"""Command line interface.

Subcommands: compute (one subresultant, optional cofactors), psres (all
principal subresultants), verify (self-check sweeps against the
determinant oracle and the Jacobi identities), bench (operation counts
and wall times in CSV).

Exit codes: 0 success, 2 usage or invalid values, 3 unsupported
characteristic case, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from .errors import CharacteristicError, LinsubresError
from .field import (
    FieldDescriptor,
    count_ops,
    parse_field_spec,
    prime_field,
    rationals,
)
from .fastsubres import (
    CharCase,
    bernstein_to_monomial,
    classify,
    cofactors,
    result_to_json,
    sres_bernstein,
    sres_fast,
)
from .jacobi import (
    JacobiParams,
    jacobi_hypergeometric,
    jacobi_rodrigues,
    shifted_jacobi,
    verify_pade_identity,
)
from .poly import ProblemSpec, poly_to_json, power_of_linear, psres_oracle, sres_oracle
from .psres import psres_all

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY_FAILED = 4


@dataclasses.dataclass
class BenchRow:
    """One benchmark measurement; counts are the tally of exactly one run.
    The fields, in order, are the CSV columns."""

    m: int
    n: int
    d: int
    field: str
    algorithm: str
    adds: int
    muls: int
    divs: int
    wall_ns: int

    def to_csv(self) -> list:
        return [str(value) for value in dataclasses.astuple(self)]

    @classmethod
    def from_csv(cls, row) -> "BenchRow":
        return cls(*(value if column.type == "str" else int(value)
                     for column, value in zip(dataclasses.fields(cls), row)))


CSV_HEADER = [column.name for column in dataclasses.fields(BenchRow)]


# Verification: each check is a generator of (ok, detail) records.  The
# `verify` suites below and the acceptance criteria run the same checks,
# each with its own fields, degree box, pair count and seed.


def _sample_pairs(descriptor: FieldDescriptor, rng: random.Random, count: int):
    """Deterministic distinct (alpha, beta) samples; small integers over Q."""
    p = descriptor.characteristic
    pairs = []
    while len(pairs) < count:
        if p:
            a, b = rng.randrange(p), rng.randrange(p)
        else:
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if a != b:
            pairs.append((descriptor.element(a), descriptor.element(b)))
    return pairs


def _cases(fields, max_degree: int, rng: random.Random, pairs: int):
    """(m, n, alpha, beta) for each field, m, n <= max_degree and `pairs`
    sampled root pairs.  An (m, n) with 0 < p < max(m, n) is unsupported
    for every d, so it is skipped before any pair is drawn."""
    for descriptor in fields:
        p = descriptor.characteristic
        for m in range(1, max_degree + 1):
            for n in range(1, max_degree + 1):
                if p and p < max(m, n):
                    continue
                for alpha, beta in _sample_pairs(descriptor, rng, pairs):
                    yield m, n, alpha, beta


def _detail(check: str, m: int, n: int, alpha, beta, **more) -> dict:
    return {"check": check, "field": alpha.descriptor.spec_string(), "m": m, "n": n,
            "alpha": str(alpha), "beta": str(beta), **more}


def _check_sres(m, n, alpha, beta):
    """sres_fast equals the determinant definition, for every d."""
    f, g = power_of_linear(alpha, m), power_of_linear(beta, n)
    for d in range(min(m, n)):
        result = sres_fast(ProblemSpec(m, n, d, alpha, beta))
        yield (result.polynomial() == sres_oracle(f, g, d),
               _detail("sres", m, n, alpha, beta, d=d, case=result.case.value))


def _check_cofactors(m, n, alpha, beta):
    """F f + G g = Sres_d with deg F < n - d and deg G < m - d, for every d
    the closed forms cover: not d = 0 with max(m, n) <= p < m + n - 1,
    where only the value is."""
    p = alpha.descriptor.characteristic
    f, g = power_of_linear(alpha, m), power_of_linear(beta, n)
    for d in range(min(m, n)):
        if d == 0 and p and p < m + n - 1:
            continue
        spec = ProblemSpec(m, n, d, alpha, beta)
        pair = cofactors(spec)
        ok = pair.f * f + pair.g * g == sres_fast(spec).polynomial()
        ok = ok and (pair.f.is_zero() or pair.f.degree < n - d)
        ok = ok and (pair.g.is_zero() or pair.g.degree < m - d)
        yield ok, _detail("cofactors", m, n, alpha, beta, d=d)


def _check_psres(m, n, alpha, beta):
    """psres_all equals the determinant's principal subresultants, where
    p = 0 or p >= m + n."""
    p = alpha.descriptor.characteristic
    if p and p < m + n:
        return
    f, g = power_of_linear(alpha, m), power_of_linear(beta, n)
    values = psres_all(m, n, alpha, beta)
    ok = len(values) == min(m, n) and all(
        values[d] == psres_oracle(f, g, d) for d in range(min(m, n)))
    yield ok, _detail("psres", m, n, alpha, beta)


def _check_correspondence(m, n, alpha, beta):
    """Over Q, Sres_d = delta^((m-d)(n-d)) prod_{i<=d} i! (m+n-d-i-1)! /
    ((m-i)! (n-i)!) times the shifted Jacobi form, whose leading
    coefficient is C(m+n-d-1, d)."""
    field = alpha.descriptor
    for d in range(min(m, n)):
        spec = ProblemSpec(m, n, d, alpha, beta)
        scalar = Fraction(1)
        for i in range(1, d + 1):
            scalar *= Fraction(
                math.factorial(i) * math.factorial(m + n - d - i - 1),
                math.factorial(m - i) * math.factorial(n - i),
            )
        value = field.element(scalar) * (alpha - beta) ** ((m - d) * (n - d))
        shifted = shifted_jacobi(spec)
        ok = shifted.leading() == field.element(math.comb(m + n - d - 1, d))
        ok = ok and sres_fast(spec).polynomial() == shifted.scale(value)
        yield ok, _detail("correspondence", m, n, alpha, beta, d=d)


def _check_bernstein(m, n, alpha, beta):
    """Pair-basis output, for every generic d: integral over Q with integer
    roots, and equal to the monomial route after conversion."""
    for d in range(min(m, n)):
        spec = ProblemSpec(m, n, d, alpha, beta)
        if classify(spec) is not CharCase.GENERIC_LARGE:
            continue
        result = sres_bernstein(spec)
        ok = True
        if alpha.descriptor.characteristic == 0:
            ok = all(c.payload.denominator == 1 for c in result.coeffs)
        converted = bernstein_to_monomial(result)
        ok = ok and converted.polynomial() == sres_fast(spec).polynomial()
        yield ok, _detail("bernstein", m, n, alpha, beta, d=d)


def _check_jacobi_routes(triples):
    """Hypergeometric and derivative (Rodrigues) evaluation agree on each
    (r, k, l), over Q."""
    q = rationals()
    for r, k, l in triples:
        params = JacobiParams(r, k, l)
        ok = jacobi_hypergeometric(params, q) == jacobi_rodrigues(params, q)
        yield ok, {"check": "routes", "r": r, "k": k, "l": l}


def _check_endpoints(triples):
    """P_r^(k,l)(1) = (k+1)_r / r! and P_r^(k,l)(-1) = (-1)^r (l+1)_r / r!."""
    q = rationals()
    for r, k, l in triples:
        poly = jacobi_hypergeometric(JacobiParams(r, k, l), q)
        fact = math.factorial(r)
        at_plus = Fraction(math.prod(range(k + 1, k + r + 1)), fact)
        at_minus = Fraction((-1) ** r * math.prod(range(l + 1, l + r + 1)), fact)
        ok = poly.evaluate(q.one) == q.element(at_plus)
        ok = ok and poly.evaluate(-q.one) == q.element(at_minus)
        yield ok, {"check": "endpoints", "r": r, "k": k, "l": l}


def _check_pade(cap: int, k_stop: int):
    """The rational-approximation identity for (1-x)^k, over Q, for
    m, n <= cap and m <= k < k_stop."""
    for m in range(1, cap + 1):
        for n in range(1, cap + 1):
            for k in range(m, k_stop):
                yield verify_pade_identity(m, n, k, rationals()), {
                    "check": "pade", "m": m, "n": n, "k": k, "field": "q"}


def _suite_oracle(max_degree: int, primes, rng: random.Random):
    """Fast algorithms against the determinant definition, plus the Bezout
    identity and principal-subresultant vector, over Q and each F_p."""
    fields = [rationals()] + [prime_field(p) for p in primes]
    for case in _cases(fields, max_degree, rng, 3):
        yield from _check_sres(*case)
        yield from _check_cofactors(*case)
        yield from _check_psres(*case)


def _suite_jacobi(max_degree: int, primes, rng: random.Random):
    """Hypergeometric vs derivative evaluation, endpoint values, and the
    subresultant = scalar * shifted-Jacobi correspondence, over Q."""
    box = min(max_degree, 6)
    span = range(-box, box + 1)
    yield from _check_jacobi_routes(itertools.product(range(box + 1), span, span))
    yield from _check_endpoints((r, rng.randint(-6, 6), rng.randint(-6, 6))
                                for r in range(max_degree + 3))
    for case in _cases([rationals()], max_degree, rng, 1):
        yield from _check_correspondence(*case)


def _suite_pade(max_degree: int, primes, rng: random.Random):
    """Rational-approximation identity for (1-x)^k, characteristic 0."""
    yield from _check_pade(min(max_degree, 5), max_degree + 3)


def _suite_bernstein(max_degree: int, primes, rng: random.Random):
    """Pair-basis output: integrality over Z inputs and agreement with the
    monomial route after conversion."""
    fields = [rationals()] + [prime_field(p) for p in primes]
    for case in _cases(fields, max_degree, rng, 2):
        yield from _check_bernstein(*case)


_SUITES = {
    "oracle": _suite_oracle,
    "jacobi": _suite_jacobi,
    "pade": _suite_pade,
    "bernstein": _suite_bernstein,
}


def run_verify(max_degree: int, primes, seed: int, suite: str) -> int:
    rng = random.Random(seed)
    names = list(_SUITES) if suite == "all" else [suite]
    passed = total = 0
    first_failure = None
    for name in names:
        suite_passed = suite_total = 0
        for ok, detail in _SUITES[name](max_degree, primes, rng):
            suite_total += 1
            if ok:
                suite_passed += 1
            elif first_failure is None:
                first_failure = {"suite": name, **detail}
        verdict = "PASS" if suite_passed == suite_total else "FAIL"
        print(f"{name}: {verdict} {suite_passed}/{suite_total} cases")
        passed += suite_passed
        total += suite_total
    if passed < total:
        print(f"FAIL {passed}/{total} cases")
        print("first counterexample:")
        print(json.dumps(first_failure))
        return EXIT_VERIFY_FAILED
    print(f"PASS {passed}/{total} cases")
    return EXIT_OK


BENCH_ALGORITHMS = ("fast", "psres_all", "oracle")


def run_bench(sizes, descriptor: FieldDescriptor, oracle_cutoff: int,
              algorithms=BENCH_ALGORITHMS):
    """One row per (size, algorithm): m = n = size, d = size // 2,
    alpha = 1, beta = 2.  Oracle runs are skipped above the cutoff."""
    rows = []
    field_name = descriptor.spec_string()
    alpha = descriptor.element(1)
    beta = descriptor.element(2)
    for size in sizes:
        m = n = size
        d = size // 2
        for algorithm in algorithms:
            if algorithm == "oracle":
                if size > oracle_cutoff:
                    continue
                f = power_of_linear(alpha, m)
                g = power_of_linear(beta, n)
                with count_ops() as counter:
                    start = time.perf_counter_ns()
                    sres_oracle(f, g, d)
                    wall = time.perf_counter_ns() - start
            elif algorithm == "psres_all":
                with count_ops() as counter:
                    start = time.perf_counter_ns()
                    psres_all(m, n, alpha, beta)
                    wall = time.perf_counter_ns() - start
            else:
                spec = ProblemSpec(m, n, d, alpha, beta)
                start = time.perf_counter_ns()
                result = sres_fast(spec)
                wall = time.perf_counter_ns() - start
                counter = result.op_count
            rows.append(BenchRow(m, n, d, field_name, algorithm,
                                 counter.adds, counter.muls, counter.divs, wall))
    return rows


def _parse_int_list(text: str, what: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad {what} list {text!r}") from exc
    if not values:
        raise ValueError(f"empty {what} list")
    return values


@contextmanager
def uncapped_int_str():
    """Lift the interpreter's int-to-str digit cap for the block.

    Exact results over Q outgrow the default 4300 digits at moderate sizes
    (m = n = 256 already), so output is built inside this block; input is
    parsed outside it and stays capped, since the cap guards parsing
    against quadratic-time denial of service."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def cmd_compute(args) -> int:
    descriptor = parse_field_spec(args.field)
    alpha = descriptor.from_str(args.alpha)
    beta = descriptor.from_str(args.beta)
    spec = ProblemSpec(args.m, args.n, args.d, alpha, beta)
    if args.basis == "bernstein":
        result = sres_bernstein(spec)
    else:
        result = sres_fast(spec)
    pair = cofactors(spec) if args.cofactors else None
    with uncapped_int_str():
        payload = result_to_json(result)
        if pair is not None:
            payload["cofactors"] = {"f": poly_to_json(pair.f), "g": poly_to_json(pair.g)}
        print(json.dumps(payload))
    return EXIT_OK


def cmd_psres(args) -> int:
    descriptor = parse_field_spec(args.field)
    alpha = descriptor.from_str(args.alpha)
    beta = descriptor.from_str(args.beta)
    with count_ops() as counter:
        values = psres_all(args.m, args.n, alpha, beta)
    with uncapped_int_str():
        payload = {
            "m": args.m,
            "n": args.n,
            "alpha": str(alpha),
            "beta": str(beta),
            "field": descriptor.spec_string(),
            "psres": [str(v) for v in values],
            "ops": counter.as_dict(),
        }
        print(json.dumps(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    primes = _parse_int_list(args.primes, "prime")
    for p in primes:
        prime_field(p)  # validates primality up front
    if args.max_degree < 1:
        raise ValueError("max-degree must be >= 1")
    return run_verify(args.max_degree, primes, args.seed, args.suite)


def cmd_bench(args) -> int:
    sizes = _parse_int_list(args.sizes, "size")
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be >= 1")
    algorithms = [part.strip() for part in args.algorithms.split(",") if part.strip()]
    unknown = [a for a in algorithms if a not in BENCH_ALGORITHMS]
    if unknown or not algorithms:
        raise ValueError(
            f"bad algorithm list {args.algorithms!r}; "
            f"choose from {', '.join(BENCH_ALGORITHMS)}"
        )
    descriptor = parse_field_spec(args.field)
    rows = run_bench(sizes, descriptor, args.oracle_cutoff, algorithms)
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            writer.writerows(row.to_csv() for row in rows)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_HEADER)
        writer.writerows(row.to_csv() for row in rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linsubres",
        description="Exact subresultants of (x-alpha)^m and (x-beta)^n "
        "in linear arithmetic complexity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="one subresultant, optionally with Bezout cofactors"
    )
    compute.add_argument("--m", type=int, required=True, help="exponent of x - alpha")
    compute.add_argument("--n", type=int, required=True, help="exponent of x - beta")
    compute.add_argument("--d", type=int, required=True, help="subresultant index")
    compute.add_argument("--alpha", required=True, help="root of f (e.g. 3 or -5/2)")
    compute.add_argument("--beta", required=True, help="root of g")
    compute.add_argument("--field", default="q", help="q or fp:<prime> (default q)")
    compute.add_argument(
        "--basis", choices=["monomial", "bernstein"], default="monomial",
        help="coefficient basis of the output",
    )
    compute.add_argument(
        "--cofactors", action="store_true", help="also emit the Bezout cofactors"
    )
    compute.set_defaults(func=cmd_compute)

    psres = sub.add_parser("psres", help="all principal subresultants at once")
    psres.add_argument("--m", type=int, required=True)
    psres.add_argument("--n", type=int, required=True)
    psres.add_argument("--alpha", required=True)
    psres.add_argument("--beta", required=True)
    psres.add_argument("--field", default="q")
    psres.set_defaults(func=cmd_psres)

    verify = sub.add_parser(
        "verify", help="self-check sweeps against the determinant oracle"
    )
    verify.add_argument("--max-degree", type=int, default=6)
    verify.add_argument(
        "--suite", choices=["oracle", "jacobi", "pade", "bernstein", "all"],
        default="all",
    )
    verify.add_argument("--primes", default="11,13,101",
                        help="comma-separated prime moduli")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="operation counts and wall times (CSV)")
    bench.add_argument("--sizes", default="16,32,64,128,256,512,1024",
                       help="comma-separated values of m = n")
    bench.add_argument("--field", default="fp:10007")
    bench.add_argument("--algorithms", default=",".join(BENCH_ALGORITHMS),
                       help="comma-separated subset of fast, psres_all, oracle")
    bench.add_argument("--csv", help="write rows to this file instead of stdout")
    bench.add_argument("--oracle-cutoff", type=int, default=64,
                       help="run the determinant oracle only up to this size")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # read `--alpha -5/2` as `--alpha=-5/2`; argparse takes -5/2 for an option
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--alpha", "--beta") and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CharacteristicError as exc:
        # Includes UnsupportedCase: a well-formed request outside the
        # supported characteristic hypotheses.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (LinsubresError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
