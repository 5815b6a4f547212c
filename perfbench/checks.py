"""Correctness checks for every benchmark output, run outside the timed
region and by a route other than the one timed.

- Small requests (m + n <= ORACLE_MAX) are compared exactly with the
  determinant oracle (`sres_oracle`, `psres_oracle`).
- Larger requests are checked in residues: modulo p over F_p, and modulo
  the prime 2^61 - 1 over Q, where a wrong value passes with probability
  about d / 2^61.  A subresultant must agree with the other coefficient
  basis (`sres_bernstein` for `sres_fast` and back) at x = alpha, x = beta
  and a seeded random point, and its leading coefficient must equal the
  factorial closed form, evaluated here from prime exponents.  Principal
  subresultant vectors are checked against the closed form at four
  seeded indices.  Cofactors must satisfy F(x0) f(x0) + G(x0) g(x0) =
  Sres_d(x0) at a seeded point, with deg F < n - d and deg G < m - d.
- Boundary and vanishing results are checked against their closed forms:
  the constant (-1)^(md) (alpha-beta)^((m-d)(n-d)+d), and zero.

`check` returns (ok, used_oracle).
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from library import ls, roots_of, spec_of

MERSENNE_61 = (1 << 61) - 1
ORACLE_MAX = 24
SIEVE_LIMIT = 1 << 14  # above m + n for every workload


def expected_case(m: int, n: int, d: int, p: int) -> str:
    """The README's characteristic table, written out independently."""
    if p == 0 or p >= m + n - d:
        return "generic"
    if p == m + n - d - 1:
        return "boundary"
    return "vanishing" if d >= 1 else "generic"


def residue(value, modulus: int) -> int:
    if isinstance(value, Fraction):
        return value.numerator * pow(value.denominator, -1, modulus) % modulus
    return value % modulus


@functools.cache
def _primes() -> list:
    sieve = bytearray([1]) * (SIEVE_LIMIT + 1)
    sieve[:2] = b"\x00\x00"
    for q in range(2, int(SIEVE_LIMIT ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(range(q * q, SIEVE_LIMIT + 1, q)))
    return [q for q in range(SIEVE_LIMIT + 1) if sieve[q]]


def _floor_sum(top: int, power: int) -> int:
    """sum_{x=0}^{top} floor(x / power)."""
    if top < 0:
        return 0
    t, r = divmod(top, power)
    return power * t * (t - 1) // 2 + t * (r + 1)


def _factorial_exponent(lo: int, hi: int, q: int) -> int:
    """Exponent of the prime q in prod_{x=lo}^{hi} x!, by Legendre's formula."""
    total, power = 0, q
    while power <= hi:
        total += _floor_sum(hi, power) - _floor_sum(lo - 1, power)
        power *= q
    return total


def leading_closed_form(m: int, n: int, d: int, delta: int, modulus: int) -> int:
    """s_d = delta^((m-d)(n-d)) prod_{i=1}^{d} (i-1)! (m+n-d-i)! / ((m-i)! (n-i)!)
    modulo `modulus`, from the exponent of each prime in the product.

    Each of the four factorial families runs over an interval of
    arguments, so Legendre's formula sums in closed form."""
    value = pow(delta, (m - d) * (n - d), modulus)
    if d == 0:
        return value
    for q in _primes():
        if q >= m + n - d:
            break
        e = (_factorial_exponent(0, d - 1, q)
             + _factorial_exponent(m + n - 2 * d, m + n - d - 1, q)
             - _factorial_exponent(m - d, m - 1, q)
             - _factorial_exponent(n - d, n - 1, q))
        if e:
            value = value * pow(q, e, modulus) % modulus
    return value


def _horner(coeffs: list, x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def _pair_basis_at(coeffs: list, prefactor: int, x: int, alpha: int, beta: int,
                   modulus: int) -> int:
    """prefactor * sum_j c_j (x-alpha)^j (x-beta)^(d-j), modulo `modulus`."""
    u, v = (x - alpha) % modulus, (x - beta) % modulus
    d = len(coeffs) - 1
    v_pows = [1] * (d + 1)
    for j in range(1, d + 1):
        v_pows[j] = v_pows[j - 1] * v % modulus
    total, u_pow = 0, 1
    for j, c in enumerate(coeffs):
        total = (total + c * u_pow * v_pows[d - j]) % modulus
        u_pow = u_pow * u % modulus
    return total * prefactor % modulus


class _View:
    """Residue-domain view of one request, with a lazily built reference
    for Sres_d(x) from a route other than the one being checked."""

    def __init__(self, req, rng: random.Random):
        self.req = req
        self.p = req.modulus
        self.modulus = self.p or MERSENNE_61
        alpha, beta = roots_of(req)
        self.alpha, self.beta = alpha, beta
        self.a = residue(alpha.payload, self.modulus)
        self.b = residue(beta.payload, self.modulus)
        self.small = req.m + req.n <= ORACLE_MAX
        count = req.m + req.n + 1 if self.small else 1
        self.points = [self.a, self.b] + [self._point(rng) for _ in range(count)]
        self._oracle = None

    def _point(self, rng: random.Random) -> int:
        while True:
            x = rng.randrange(self.modulus)
            if x not in (self.a, self.b):
                return x

    def res(self, values) -> list:
        return [residue(v, self.modulus) for v in values]

    def oracle(self):
        if self._oracle is None:
            req = self.req
            f = ls.power_of_linear(self.alpha, req.m)
            g = ls.power_of_linear(self.beta, req.n)
            self._oracle = ls.sres_oracle(f, g, req.d)
        return self._oracle

    def reference(self, avoid: str):
        """x -> Sres_d(x) mod modulus, not computed by `avoid`."""
        req, M = self.req, self.modulus
        m, n, d = req.m, req.n, req.d
        case = expected_case(m, n, d, self.p)
        if self.small:
            coeffs = self.res(c.payload for c in self.oracle().coeffs)
            return lambda x: _horner(coeffs, x, M)
        if case == "vanishing":
            return lambda x: 0
        if case == "boundary":
            value = pow(self.a - self.b, (m - d) * (n - d) + d, M)
            value = -value % M if (m * d) % 2 else value
            return lambda x: value
        spec = spec_of(req)
        if avoid == "sres_fast":
            other = ls.sres_bernstein(spec)
            coeffs = self.res(c.payload for c in other.coeffs)
            prefactor = residue(other.prefactor.payload, M)
            return lambda x: _pair_basis_at(coeffs, prefactor, x, self.a, self.b, M)
        coeffs = self.res(c.payload for c in ls.sres_fast(spec).coeffs)
        return lambda x: _horner(coeffs, x, M)

    def leading(self) -> int:
        req = self.req
        return leading_closed_form(req.m, req.n, req.d, self.a - self.b, self.modulus)


def _check_monomial(view: _View, coeffs: list) -> bool:
    req = view.req
    case = expected_case(req.m, req.n, req.d, view.p)
    if view.small:
        return _strip(list(coeffs)) == [c.payload for c in view.oracle().coeffs]
    res = view.res(coeffs)
    ref = view.reference(avoid="sres_fast")
    if case == "generic":
        if len(res) != req.d + 1 or res[-1] != view.leading():
            return False
    elif len(res) != (1 if case == "boundary" else req.d + 1):
        return False
    return all(_horner(res, x, view.modulus) == ref(x) for x in view.points)


def _check_bernstein(view: _View, coeffs: list, prefactor) -> bool:
    req, M = view.req, view.modulus
    res, pre = view.res(coeffs), residue(prefactor, M)
    if len(res) != req.d + 1 or sum(res) * pre % M != view.leading():
        return False
    ref = view.reference(avoid="sres_bernstein")
    return all(_pair_basis_at(res, pre, x, view.a, view.b, M) == ref(x)
               for x in view.points)


def _check_cofactors(view: _View, f_coeffs: list, g_coeffs: list) -> bool:
    req, M = view.req, view.modulus
    f_res, g_res = view.res(f_coeffs), view.res(g_coeffs)
    if len(f_res) > req.n - req.d or len(g_res) > req.m - req.d:
        return False
    ref = view.reference(avoid="cofactors")
    return all(
        (_horner(f_res, x, M) * pow(x - view.a, req.m, M)
         + _horner(g_res, x, M) * pow(x - view.b, req.n, M)) % M == ref(x)
        for x in view.points
    )


def _check_psres(req, values: list, rng: random.Random) -> bool:
    low = min(req.m, req.n)
    if len(values) != low or any(v == 0 for v in values):
        return False
    alpha, beta = roots_of(req)
    if req.m + req.n <= ORACLE_MAX:
        f, g = ls.power_of_linear(alpha, req.m), ls.power_of_linear(beta, req.n)
        return all(values[d] == ls.psres_oracle(f, g, d).payload for d in range(low))
    M = req.modulus or MERSENNE_61
    delta = residue(alpha.payload, M) - residue(beta.payload, M)
    indices = {0, low - 1, rng.randrange(low), rng.randrange(low)}
    return all(residue(values[d], M) == leading_closed_form(req.m, req.n, d, delta, M)
               for d in indices)


def _strip(values: list) -> list:
    while values and values[-1] == 0:
        values.pop()
    return values


def check(req, out: dict, rng: random.Random) -> tuple:
    """(ok, used_oracle) for one normalised output."""
    small = req.m + req.n <= ORACLE_MAX
    if "values" in out:
        return _check_psres(req, out["values"], rng), small
    view = _View(req, rng)
    ok = out["case"] == expected_case(req.m, req.n, req.d, view.p)
    if ok and "coeffs" in out:
        if out["prefactor"] is None:
            ok = _check_monomial(view, out["coeffs"])
        else:
            ok = _check_bernstein(view, out["coeffs"], out["prefactor"])
    if ok and "f" in out:
        ok = _check_cofactors(view, out["f"], out["g"])
    return ok, small
