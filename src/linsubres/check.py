"""Ground truth and self-checks: the determinant oracles, the reference
routes, and the engine behind `linsubres verify` and `linsubres bench`.

The oracles compute subresultants straight from their defining minors by
exact Gaussian elimination.  They are deliberately naive (cubic per
coefficient): their only job is to be an independent ground truth for the
fast algorithms.  No request path imports this module; `verify` and
`bench` load it when they run.
"""

import itertools
import json
import math
import random
import time
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .errors import FieldMismatch, PreconditionError
from .fastsubres import CharCase, ProblemSpec, classify, sres_bernstein, sres_fast
from .field import (
    FieldDescriptor,
    FieldValue,
    binary_pow,
    count_ops,
    prime_field,
    rationals,
)
from .jacobi import (
    JacobiParams,
    binomial,
    jacobi_hypergeometric,
    jacobi_rodrigues,
    shifted_jacobi,
    verify_pade_identity,
)
from .poly import DensePoly, cofactors, expand_pair_basis, power_of_linear
from .psres import _check_args, psres_all

__all__ = [
    "sres_oracle",
    "psres_oracle",
    "PsresSchedule",
    "psres_schedule",
    "run_verify",
    "BenchRow",
    "CSV_HEADER",
    "BENCH_ALGORITHMS",
    "run_bench",
]


# The determinant oracles.


def _det(rows) -> FieldValue:
    """Determinant by exact Gaussian elimination with first-nonzero pivoting
    (ties go to the lowest row index).  Mutates rows."""
    size = len(rows)
    descriptor = rows[0][0].descriptor if size else None
    if any(len(r) != size for r in rows):
        raise PreconditionError("determinant needs a square matrix")
    if size == 0:
        raise PreconditionError("determinant of an empty matrix")
    swaps = 0
    for col in range(size):
        pivot_row = None
        for r in range(col, size):
            if not rows[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            return descriptor.zero
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            swaps += 1
        pivot = rows[col][col]
        for r in range(col + 1, size):
            lead = rows[r][col]
            if lead.is_zero():
                continue
            factor = lead / pivot
            upper = rows[col]
            lower = rows[r]
            for c in range(col + 1, size):
                u = upper[c]
                if u.is_zero():
                    continue
                lower[c] = lower[c] - factor * u
    det = rows[0][0]
    for i in range(1, size):
        det = det * rows[i][i]
    if swaps & 1:
        det = -det
    return det


def _minor_rows(f: DensePoly, g: DensePoly, d: int):
    """Shared row data for the defining minors.

    Row layout (top to bottom): coefficient rows of x^(n-d-1) f, ..., x f, f,
    then x^(m-d-1) g, ..., x g, g.  Scalar column j (1-based, j < m+n-2d)
    of the f-row i holds the coefficient of x^(m-j+i) in f, i.e. the usual
    Sylvester-like band; the last column is the polynomial column, realized
    per minor as a single coefficient of the shifted polynomial.
    """
    m, n = f.degree, g.degree
    size = m + n - 2 * d
    scalar_rows = []
    tails = []
    for i in range(1, n - d + 1):
        scalar_rows.append([f.coeff(m - j + i) for j in range(1, size)])
        tails.append((f, n - d - i))
    for i in range(1, m - d + 1):
        scalar_rows.append([g.coeff(n - j + i) for j in range(1, size)])
        tails.append((g, m - d - i))
    return scalar_rows, tails


def _check_oracle_args(f: DensePoly, g: DensePoly, d: int) -> None:
    if f.descriptor != g.descriptor:
        raise FieldMismatch("f and g live in different fields")
    if f.degree < 1 or g.degree < 1:
        raise PreconditionError("both inputs must have degree >= 1")
    if not isinstance(d, int) or isinstance(d, bool):
        raise PreconditionError(f"d must be an int, got {d!r}")
    if not 0 <= d < min(f.degree, g.degree):
        raise PreconditionError(
            f"need 0 <= d < min(deg f, deg g) = {min(f.degree, g.degree)}, got d={d}"
        )


def sres_oracle(f: DensePoly, g: DensePoly, d: int) -> DensePoly:
    """Subresultant of index d of (f, g), coefficient by coefficient from
    the defining determinants.

    The coefficient of x^k is the minor whose last column takes the x^k
    coefficient of each row's shifted polynomial; k runs over 0..d, so the
    result has degree at most d.
    """
    _check_oracle_args(f, g, d)
    scalar_rows, tails = _minor_rows(f, g, d)
    coeffs = []
    for k in range(d + 1):
        rows = [
            row + [poly.coeff(k - shift)]
            for row, (poly, shift) in zip(scalar_rows, tails)
        ]
        coeffs.append(_det(rows))
    return DensePoly(f.descriptor, coeffs)


def psres_oracle(f: DensePoly, g: DensePoly, d: int) -> FieldValue:
    """Principal subresultant of index d: the coefficient of x^d alone."""
    _check_oracle_args(f, g, d)
    scalar_rows, tails = _minor_rows(f, g, d)
    rows = [
        row + [poly.coeff(d - shift)]
        for row, (poly, shift) in zip(scalar_rows, tails)
    ]
    return _det(rows)


# The reference route for psres_all.


class PsresSchedule(namedtuple("PsresSchedule", "m n alpha beta v u c gamma h values")):
    """The chains behind the principal subresultants, as the reference
    route psres_schedule builds them in FieldValue arithmetic.

    With mn = min(m, n) and delta = alpha - beta:

        v[i]     = v(i+1), i+1 = 1..mn-2: the ratio u(d+1)/u(d)
        u[i]     = u(i+1), i+1 = 1..mn-1: the ratio c(d)/c(d-1)
        c[i]     = c(i),   i   = 0..mn-1: the delta-free factor of s_i
        gamma[i] = gamma(i), i = 0..mn-2: the ratio h(d+1)/h(d) = delta^(2i+1-m-n)
        h[i]     = h(i),   i   = 0..mn-1: delta^((m-i)(n-i))
        values[i] = c(i) * h(i) = s_i

    alpha = beta short-circuits to all-zero values with empty chains.
    """

    __slots__ = ()


def psres_schedule(m: int, n: int, alpha: FieldValue, beta: FieldValue) -> PsresSchedule:
    """The reference route for psres_all.  Needs characteristic 0 or >= m + n."""
    descriptor = _check_args(m, n, alpha, beta)
    low = min(m, n)
    if alpha == beta:
        return PsresSchedule(
            m=m, n=n, alpha=alpha, beta=beta,
            v=(), u=(), c=(), gamma=(), h=(),
            values=(descriptor.zero,) * low,
        )
    # every factor of the denominators is below m + n, a unit mod p >= m + n
    v = [descriptor.element(d * (m - d) * (n - d) * (m + n - d))
         / descriptor.element((m + n - 2 * d - 1) * (m + n - 2 * d) ** 2 * (m + n - 2 * d + 1))
         for d in range(1, low - 1)]
    u = []
    if low >= 2:
        u.append(binomial(m - 1, n - 1, descriptor))
        for d in range(2, low):
            u.append(u[-1] * v[d - 2])
    c = [descriptor.one]
    for d in range(1, low):
        c.append(u[d - 1] * c[-1])
    delta = alpha - beta
    gamma = []
    if low >= 2:
        gamma.append(descriptor.one / binary_pow(delta, m + n - 1))
        delta_sq = delta * delta
        for _ in range(low - 2):
            gamma.append(delta_sq * gamma[-1])
    h = [binary_pow(delta, m * n)]
    for d in range(low - 1):
        h.append(gamma[d] * h[-1])
    values = tuple(c[d] * h[d] for d in range(low))
    return PsresSchedule(
        m=m, n=n, alpha=alpha, beta=beta,
        v=tuple(v), u=tuple(u), c=tuple(c), gamma=tuple(gamma), h=tuple(h),
        values=values,
    )


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
        yield (DensePoly.of(result) == sres_oracle(f, g, d),
               _detail("sres", m, n, alpha, beta, d=d, case=result.case.value))


def _check_cofactors(m, n, alpha, beta):
    """F f + G g = Sres_d with deg F < n - d and deg G < m - d, for every d."""
    f, g = power_of_linear(alpha, m), power_of_linear(beta, n)
    for d in range(min(m, n)):
        spec = ProblemSpec(m, n, d, alpha, beta)
        pair = cofactors(spec)
        ok = pair.f * f + pair.g * g == DensePoly.of(sres_fast(spec))
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
        ok = ok and DensePoly.of(sres_fast(spec)) == shifted.scale(value)
        yield ok, _detail("correspondence", m, n, alpha, beta, d=d)


def _check_bernstein(m, n, alpha, beta):
    """Pair-basis output, for every generic d: integral over Q with integer
    roots, and its expansion times the prefactor equal to sres_fast's."""
    for d in range(min(m, n)):
        spec = ProblemSpec(m, n, d, alpha, beta)
        if classify(spec) is not CharCase.GENERIC_LARGE:
            continue
        result = sres_bernstein(spec)
        ok = True
        if alpha.descriptor.characteristic == 0:
            ok = all(c.payload.denominator == 1 for c in result.coeffs)
        expanded = expand_pair_basis(result.coeffs, alpha, beta).scale(result.prefactor)
        ok = ok and expanded == DensePoly.of(sres_fast(spec))
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


def _suite_oracle(max_degree: int, fields, rng: random.Random):
    """Fast algorithms against the determinant definition, plus the Bezout
    identity and principal-subresultant vector, over Q and each F_p."""
    for case in _cases(fields, max_degree, rng, 3):
        yield from _check_sres(*case)
        yield from _check_cofactors(*case)
        yield from _check_psres(*case)


def _suite_jacobi(max_degree: int, fields, rng: random.Random):
    """Hypergeometric vs derivative evaluation, endpoint values, and the
    subresultant = scalar * shifted-Jacobi correspondence, over Q."""
    box = min(max_degree, 6)
    span = range(-box, box + 1)
    yield from _check_jacobi_routes(itertools.product(range(box + 1), span, span))
    yield from _check_endpoints((r, rng.randint(-6, 6), rng.randint(-6, 6))
                                for r in range(max_degree + 3))
    for case in _cases([rationals()], max_degree, rng, 1):
        yield from _check_correspondence(*case)


def _suite_pade(max_degree: int, fields, rng: random.Random):
    """Rational-approximation identity for (1-x)^k, characteristic 0."""
    yield from _check_pade(min(max_degree, 5), max_degree + 3)


def _suite_bernstein(max_degree: int, fields, rng: random.Random):
    """Pair-basis output: integrality over Z inputs and agreement of its
    expansion with the monomial route, over Q and each F_p."""
    for case in _cases(fields, max_degree, rng, 2):
        yield from _check_bernstein(*case)


_SUITES = {
    "oracle": _suite_oracle,
    "jacobi": _suite_jacobi,
    "pade": _suite_pade,
    "bernstein": _suite_bernstein,
}


def run_verify(max_degree: int, primes, seed: int, suite: str) -> bool:
    """Run the suites, print one line per suite and a verdict, and the
    first counterexample on a failure.  True when every case passed.
    The degree box, the suite name and every prime are checked before
    anything is printed."""
    if max_degree < 1:
        raise ValueError("max-degree must be >= 1")
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(_SUITES)}")
    fields = [rationals()] + [prime_field(p) for p in primes]
    rng = random.Random(seed)
    names = list(_SUITES) if suite == "all" else [suite]
    passed = total = 0
    first_failure = None
    for name in names:
        suite_passed = suite_total = 0
        for ok, detail in _SUITES[name](max_degree, fields, rng):
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
        return False
    print(f"PASS {passed}/{total} cases")
    return True


# Benchmark rows.


class BenchRow(namedtuple("BenchRow", "m n d field algorithm adds muls divs wall_ns")):
    """One benchmark measurement; counts are the tally of exactly one run.
    The fields, in order, are the CSV columns."""

    __slots__ = ()


CSV_HEADER = list(BenchRow._fields)

BENCH_ALGORITHMS = ("fast", "psres_all", "oracle")


def _check_algorithms(algorithms) -> None:
    """Refuse an empty list or a name outside BENCH_ALGORITHMS."""
    if not algorithms or not set(algorithms) <= set(BENCH_ALGORITHMS):
        raise ValueError(
            f"bad algorithm list {algorithms!r}; choose from {', '.join(BENCH_ALGORITHMS)}")


def run_bench(sizes, descriptor: FieldDescriptor, oracle_cutoff: int,
              algorithms=BENCH_ALGORITHMS, alpha=1, beta=2):
    """One row per (size, algorithm): m = n = size, d = size // 2, roots
    alpha and beta (values descriptor.element accepts; 1 and 2 by
    default).  Oracle runs are skipped above the cutoff.  A row's counts
    and wall time cover the call alone: its inputs are built first.  An
    empty or unknown algorithm list raises ValueError before any run."""
    _check_algorithms(algorithms)
    rows = []
    field_name = descriptor.spec_string()
    alpha = descriptor.element(alpha)
    beta = descriptor.element(beta)
    for size in sizes:
        m = n = size
        d = size // 2
        for algorithm in algorithms:
            if algorithm == "oracle":
                if size > oracle_cutoff:
                    continue
                f, g = power_of_linear(alpha, m), power_of_linear(beta, n)
                call = partial(sres_oracle, f, g, d)
            elif algorithm == "psres_all":
                call = partial(psres_all, m, n, alpha, beta)
            else:
                call = partial(sres_fast, ProblemSpec(m, n, d, alpha, beta))
            with count_ops() as counter:
                start = time.perf_counter_ns()
                call()
                wall = time.perf_counter_ns() - start
            rows.append(BenchRow(m, n, d, field_name, algorithm,
                                 counter.adds, counter.muls, counter.divs, wall))
    return rows
