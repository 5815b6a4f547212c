"""Seeded request streams for the four benchmark workloads.

A request is plain data (entry point, field spec, m, n, d and the two roots
as strings); nothing here imports linsubres.

A stream is a sequence of blocks.  Every block of a workload has the same
shapes: sizes, indices and entry points come from the first points of a
Halton sequence, so a block covers the workload's size distribution
evenly, and the rational roots over Q are fixed per shape.  The seed
orders each block and draws the rest: residues over F_p, the common sign
of the roots over Q, special primes.  Over Q the cost of a request grows
steeply with its size and its roots' height, so fixing shapes is what lets
two seeds give runs of nearly the same cost; a run always ends on a block
boundary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

P_LINEAR = 1000003  # word-sized prime, far above every m + n used here

IN_PROCESS = ("sres_fast", "sres_bernstein", "psres_all")
CLI_KINDS = ("compute", "bernstein", "cofactors", "psres")

WORKLOADS = ("fp-linear", "q-growth", "cofactors", "cli")

_HALTON_BASES = (2, 3, 5, 7, 11)

# Requests per block.  Larger blocks space the request costs more finely,
# which steadies the percentiles; a block must still fit well inside one
# run of the slower workloads.
BLOCKS = {"fp-linear": 256, "q-growth": 256, "cofactors": 128, "cli": 64}


@dataclass(frozen=True)
class Request:
    """One entry-point call, or one CLI process in the `cli` workload.

    `d` is None for principal-subresultant requests, which return every
    index at once.  `alpha` and `beta` are decimal or `a/b` strings.
    `shape` is the request's place among its workload's block of shapes.
    """

    rid: int
    kind: str
    field: str
    m: int
    n: int
    d: Optional[int]
    alpha: str
    beta: str
    shape: int = 0

    @property
    def modulus(self) -> int:
        """0 over Q, else the prime p."""
        return 0 if self.field == "q" else int(self.field[3:])


def cli_argv(req: Request) -> list:
    """Arguments after `python -m linsubres.cli`.  Values use the
    `--flag=<v>` form, because argparse takes `--alpha -5/2` for a flag."""
    sub = "psres" if req.kind == "psres" else "compute"
    argv = [sub, f"--m={req.m}", f"--n={req.n}"]
    if req.d is not None:
        argv.append(f"--d={req.d}")
    argv += [f"--alpha={req.alpha}", f"--beta={req.beta}", f"--field={req.field}"]
    if req.kind == "bernstein":
        argv.append("--basis=bernstein")
    elif req.kind == "cofactors":
        argv.append("--cofactors")
    return argv


def _radical_inverse(index: int, base: int) -> float:
    value, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        value += digit * scale
        scale /= base
    return value


def _shapes(count: int, dims: int) -> list:
    """The first `count` Halton points in `dims` dimensions."""
    return [[_radical_inverse(i, base) for base in _HALTON_BASES[:dims]]
            for i in range(1, count + 1)]


def _log_uniform(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] with log-uniform density."""
    return min(hi, int(math.exp(math.log(lo) + u * (math.log(hi + 1) - math.log(lo)))))


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    f = 2
    while f * f <= k:
        if k % f == 0:
            return False
        f += 1
    return True


def _prime_in(rng: random.Random, lo: int, hi: int) -> Optional[int]:
    """A prime in [lo, hi]: the first one at or after a random start,
    wrapping round to lo; None if the interval has none."""
    if hi < lo:
        return None
    start = rng.randint(lo, hi)
    for k in list(range(start, hi + 1)) + list(range(lo, start)):
        if _is_prime(k):
            return k
    return None


def _special_prime(rng: random.Random, m: int, n: int, d: int,
                   allow_d0_gap: bool) -> Optional[int]:
    """A prime in [max(m, n), m+n-d-1], where Sres_d is the boundary
    constant or vanishes.  For d = 0 only the boundary prime m+n-1 is taken
    unless `allow_d0_gap`: below it the cofactor closed forms are missing."""
    hi = m + n - d - 1
    if d == 0 and not allow_d0_gap:
        return hi if _is_prime(hi) else None
    return _prime_in(rng, max(m, n), hi)


def _residue_roots(rng: random.Random, p: int) -> tuple:
    alpha = rng.randrange(p)
    beta = rng.randrange(p - 1)
    return str(alpha), str(beta + (beta >= alpha))


def _signed(rng: random.Random, alpha, beta) -> tuple:
    sign = rng.choice((1, -1))
    return str(sign * alpha), str(sign * beta)


def _integer_roots(fixed: random.Random, rng: random.Random) -> tuple:
    """Distinct roots in [-9, 9], fixed by the shape up to a common sign."""
    alpha, beta = fixed.sample(range(-9, 10), 2)
    return _signed(rng, alpha, beta)


def _rational_roots(fixed: random.Random, rng: random.Random) -> tuple:
    """a/b and c/e with a, c in [-9, 9] and b, e in 2..9, fixed by the
    shape up to a common sign."""
    while True:
        alpha = Fraction(fixed.randint(-9, 9), fixed.randint(2, 9))
        beta = Fraction(fixed.randint(-9, 9), fixed.randint(2, 9))
        if alpha != beta:
            return _signed(rng, alpha, beta)


def _fp_linear(shape, fixed, rng):
    um, un, ud, uk, uc = shape
    m, n = _log_uniform(um, 256, 4096), _log_uniform(un, 256, 4096)
    d = int(ud * min(m, n))
    kind = IN_PROCESS[int(uk * 3)]
    p = P_LINEAR
    if uc < 1 / 8:
        # boundary and vanishing branches; sres_fast only
        special = _special_prime(rng, m, n, d, allow_d0_gap=True)
        if special is not None:
            kind, p = "sres_fast", special
    return (kind, f"fp:{p}", m, n, d) + _residue_roots(rng, p)


# Over Q the cost of one request grows with the bit size of its
# coefficients, about (m-d)(n-d) log|alpha-beta| plus the factorial ratios,
# and psres_all returns min(m, n) such values.  The size caps keep the
# slowest request near a second.
Q_INT_MAX = 512
Q_RAT_MAX = 160


def _q_growth(shape, fixed, rng):
    um, un, ud, uk, ur = shape
    rational = ur < 1 / 4
    hi = Q_RAT_MAX if rational else Q_INT_MAX
    m, n = _log_uniform(um, 16, hi), _log_uniform(un, 16, hi)
    roots = (_rational_roots if rational else _integer_roots)(fixed, rng)
    return (IN_PROCESS[int(uk * 3)], "q", m, n, int(ud * min(m, n))) + roots


COF_FP_MAX = 160
COF_Q_MAX = 96


def _cofactors(shape, fixed, rng):
    um, un, ud, uf, uc = shape
    if uf < 1 / 2:
        m, n = _log_uniform(um, 32, COF_FP_MAX), _log_uniform(un, 32, COF_FP_MAX)
        d = int(ud * min(m, n))
        p = P_LINEAR
        if uc < 1 / 8:
            p = _special_prime(rng, m, n, d, allow_d0_gap=False) or P_LINEAR
        return ("cofactors", f"fp:{p}", m, n, d) + _residue_roots(rng, p)
    m, n = _log_uniform(um, 16, COF_Q_MAX), _log_uniform(un, 16, COF_Q_MAX)
    return ("cofactors", "q", m, n, int(ud * min(m, n))) + _integer_roots(fixed, rng)


# CLI over Q: the interpreter refuses to print an int of more than 4300
# decimal digits (a standing defect, reproduced separately), so Q sizes
# are capped where every output stays well below that.
CLI_FP_MAX = 256
CLI_COF_MAX = 64
CLI_Q_INT_MAX = 40
CLI_Q_RAT_MAX = 24


def _cli(shape, fixed, rng):
    um, un, ud, uk, uf = shape
    kind = CLI_KINDS[int(uk * 4)]
    if uf < 1 / 2:
        hi = CLI_COF_MAX if kind == "cofactors" else CLI_FP_MAX
        field, roots = f"fp:{P_LINEAR}", _residue_roots(rng, P_LINEAR)
    elif uf < 3 / 4:
        hi, field, roots = CLI_Q_INT_MAX, "q", _integer_roots(fixed, rng)
    else:
        hi, field, roots = CLI_Q_RAT_MAX, "q", _rational_roots(fixed, rng)
    m, n = _log_uniform(um, 4, hi), _log_uniform(un, 4, hi)
    d = None if kind == "psres" else int(ud * min(m, n))
    return (kind, field, m, n, d) + roots


_MAKERS = {
    "fp-linear": _fp_linear,
    "q-growth": _q_growth,
    "cofactors": _cofactors,
    "cli": _cli,
}


def requests(workload: str, seed: int) -> Iterator[Request]:
    """The endless, seeded request stream of one workload, one block of
    shapes at a time."""
    rng = random.Random(f"{workload}/{seed}")
    block = BLOCKS[workload]
    shapes = _shapes(block, len(_HALTON_BASES))
    rid = 0
    while True:
        for index in rng.sample(range(block), block):
            fixed = random.Random(f"{workload}/shape/{index}")
            kind, field, m, n, d, alpha, beta = _MAKERS[workload](shapes[index], fixed, rng)
            if kind == "psres_all":
                d = None
            yield Request(rid, kind, field, m, n, d, alpha, beta, index)
            rid += 1
