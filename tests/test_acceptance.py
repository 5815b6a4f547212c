"""Acceptance gate: twelve numbered criteria, one printed line each.

Each criterion is one test.  The decorator prints `criterion N PASS: ...`
or `criterion N FAIL: ...` so a plain pytest run yields one line per
criterion (visible with -s, or in the captured output on failure).
"""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

from linsubres.check import (
    _cases,
    _check_bernstein,
    _check_cofactors,
    _check_correspondence,
    _check_endpoints,
    _check_jacobi_routes,
    _check_pade,
    _check_psres,
    _check_sres,
    psres_schedule,
    run_bench,
    sres_oracle,
)
from linsubres.fastsubres import CharCase, ProblemSpec, sres_fast
from linsubres.field import prime_field, rationals
from linsubres.poly import DensePoly, cofactors, power_of_linear

Q = rationals()
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def criterion(number, summary):
    def decorate(func):
        @functools.wraps(func)
        def wrapper():
            try:
                func()
            except BaseException:
                print(f"criterion {number} FAIL: {summary}")
                raise
            print(f"criterion {number} PASS: {summary}")

        return wrapper

    return decorate


def _sweep(check, fields, max_degree, rng, pairs):
    """The records of `check` over the sampled cases, as `verify` runs it."""
    for case in _cases(fields, max_degree, rng, pairs):
        yield from check(*case)


def _assert_all_pass(records, floor):
    """Every record passed and there were at least `floor`; the count."""
    count = 0
    for ok, detail in records:
        assert ok, detail
        count += 1
    assert count >= floor
    return count


def _residue_pairs(p, rng, count=None):
    """All ordered distinct residue pairs, or `count` sampled ones."""
    if count is None:
        return [(a, b) for a in range(p) for b in range(p) if a != b]
    seen = set()
    limit = min(count, p * (p - 1))
    while len(seen) < limit:
        a, b = rng.randrange(p), rng.randrange(p)
        if a != b:
            seen.add((a, b))
    return sorted(seen)


def _boundary_triples(p):
    """(m, n, d) with d = m + n - p - 1 >= 1 in range and max(m, n) <= p."""
    for m in range(1, p + 1):
        for n in range(1, p + 1):
            d = m + n - p - 1
            if 1 <= d < min(m, n):
                yield m, n, d


def _vanishing_triples(p):
    """(m, n, d) with d >= 1 and max(m, n) <= p < m + n - d - 1."""
    for m in range(1, p + 1):
        for n in range(1, p + 1):
            for d in range(1, min(m, n)):
                if p < m + n - d - 1:
                    yield m, n, d


def _gap_triples(p):
    """(m, n, 0) with max(m, n) <= p < m + n - 1: d = 0 below the generic
    threshold, where Sres_0 is still the nonzero resultant."""
    for m in range(1, p + 1):
        for n in range(1, p + 1):
            if p < m + n - 1:
                yield m, n, 0


@criterion(1, "fast route equals the determinant oracle for all m, n <= 8")
def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    fields = [Q, prime_field(11), prime_field(13), prime_field(101)]
    _assert_all_pass(_sweep(_check_sres, fields, 8, random.Random(101), 20), 15000)
    assert time.perf_counter() - start < 60.0


@criterion(2, "d = 1 output is the binomial closed form for 2 <= m, n <= 10")
def test_criterion_02_d1_closed_form():
    values = [
        (Fraction(5), Fraction(-2)),
        (Fraction(1, 2), Fraction(-3, 7)),
        (Fraction(0), Fraction(1)),
    ]
    for m in range(2, 11):
        for n in range(2, 11):
            for a, b in values:
                lead = (a - b) ** ((m - 1) * (n - 1))
                constant = lead * (
                    -math.comb(m + n - 3, m - 1) * a - math.comb(m + n - 3, n - 1) * b
                )
                linear = lead * math.comb(m + n - 2, m - 1)
                expected = DensePoly(Q, [Q.element(constant), Q.element(linear)])
                spec = ProblemSpec(m, n, 1, Q.element(a), Q.element(b))
                assert DensePoly.of(sres_fast(spec)) == expected


@criterion(3, "boundary characteristic yields the signed constant, equal to the oracle")
def test_criterion_03_boundary_prime():
    rng = random.Random(303)
    checked = 0
    for p in SMALL_PRIMES:
        descriptor = prime_field(p)
        pair_budget = None if p <= 7 else 10
        for m, n, d in _boundary_triples(p):
            for a, b in _residue_pairs(p, rng, pair_budget):
                alpha, beta = descriptor.element(a), descriptor.element(b)
                result = sres_fast(ProblemSpec(m, n, d, alpha, beta))
                assert result.case is CharCase.BOUNDARY_PRIME
                value = (-1) ** (m * d) * (a - b) ** ((m - d) * (n - d) + d)
                assert DensePoly.of(result) == DensePoly.from_integers(descriptor, [value])
                f = power_of_linear(alpha, m)
                g = power_of_linear(beta, n)
                assert sres_oracle(f, g, d) == DensePoly.of(result)
                checked += 1
    assert checked >= 1000


@criterion(4, "vanishing characteristic band yields zero, equal to the oracle")
def test_criterion_04_vanishing_band():
    rng = random.Random(404)
    checked = 0
    for p in SMALL_PRIMES:
        descriptor = prime_field(p)
        pair_budget = None if p <= 5 else (6 if p == 7 else 2)
        for m, n, d in _vanishing_triples(p):
            for a, b in _residue_pairs(p, rng, pair_budget):
                alpha, beta = descriptor.element(a), descriptor.element(b)
                result = sres_fast(ProblemSpec(m, n, d, alpha, beta))
                assert result.case is CharCase.VANISHING_BAND
                assert len(result.coeffs) == d + 1
                assert all(c.is_zero() for c in result.coeffs)
                f = power_of_linear(alpha, m)
                g = power_of_linear(beta, n)
                assert sres_oracle(f, g, d).is_zero()
                checked += 1
    assert checked >= 500


@criterion(5, "cofactors satisfy the exact combination identity with tight degree bounds")
def test_criterion_05_bezout_identity():
    rng = random.Random(505)
    fields = [Q, prime_field(11), prime_field(13), prime_field(101)]
    checked = _assert_all_pass(_sweep(_check_cofactors, fields, 8, rng, 20), 0)
    for p in SMALL_PRIMES:
        descriptor = prime_field(p)
        triples = [*_boundary_triples(p), *_vanishing_triples(p), *_gap_triples(p)]
        for m, n, d in triples:
            for a, b in _residue_pairs(p, rng, 3):
                alpha, beta = descriptor.element(a), descriptor.element(b)
                f = power_of_linear(alpha, m)
                g = power_of_linear(beta, n)
                spec = ProblemSpec(m, n, d, alpha, beta)
                pair = cofactors(spec)
                assert pair.f * f + pair.g * g == DensePoly.of(sres_fast(spec))
                assert pair.f.is_zero() or pair.f.degree < n - d
                assert pair.g.is_zero() or pair.g.degree < m - d
                checked += 1
    assert checked >= 15000


@criterion(6, "fast output is the scaled shifted Jacobi form for m, n <= 7")
def test_criterion_06_jacobi_correspondence():
    _assert_all_pass(_sweep(_check_correspondence, [Q], 7, random.Random(606), 3), 420)


@criterion(7, "the two Jacobi evaluation routes and the endpoint values agree")
def test_criterion_07_jacobi_internals():
    span = range(-8, 9)
    _assert_all_pass(_check_jacobi_routes(itertools.product(range(7), span, span)), 2023)
    _assert_all_pass(_check_endpoints(itertools.product(range(9), span, span)), 2601)


@criterion(8, "the principal subresultant vector matches the oracle and ratio formula")
def test_criterion_08_psres_vector():
    fields = [Q, prime_field(17), prime_field(101)]
    _assert_all_pass(_sweep(_check_psres, fields, 8, random.Random(808), 5), 960)
    for m in range(1, 9):
        for n in range(1, 9):
            schedule = psres_schedule(m, n, Q.element(2), Q.element(-1))
            for i, v in enumerate(schedule.v):
                d = i + 1
                expected = Fraction(
                    d * (m - d) * (n - d) * (m + n - d),
                    (m + n - 2 * d - 1) * (m + n - 2 * d) ** 2 * (m + n - 2 * d + 1),
                )
                assert v == Q.element(expected)


@criterion(9, "pair-basis coefficients are integers and convert back exactly")
def test_criterion_09_bernstein():
    _assert_all_pass(_sweep(_check_bernstein, [Q], 8, random.Random(909), 3), 612)


@criterion(10, "the rational-approximation identity holds for m, n <= 4, k <= 6")
def test_criterion_10_pade():
    _assert_all_pass(_check_pade(4, 7), 72)


@criterion(11, "op counts grow at most 2.5x per doubling for m = n up to 1024")
def test_criterion_11_scaling():
    start = time.perf_counter()
    sizes = [64, 128, 256, 512, 1024]
    rows = run_bench(sizes, prime_field(10007), oracle_cutoff=0,
                     algorithms=("fast", "psres_all"))
    totals = {(r.algorithm, r.m): r.adds + r.muls + r.divs for r in rows}
    for algorithm in ("fast", "psres_all"):
        for size in (64, 128, 256, 512):
            assert totals[(algorithm, 2 * size)] <= 2.5 * totals[(algorithm, size)] + 200
    assert time.perf_counter() - start < 30.0


@criterion(12, "the d = 0 path spends at most 2 log2(mn) + 8 multiplications")
def test_criterion_12_resultant_fast_path():
    F = prime_field(10007)
    for m, n in [(1, 1), (8, 8), (100, 100), (1000, 1000), (2000, 500), (5000, 200)]:
        spec = ProblemSpec(m, n, 0, F.element(5), F.element(3))
        result = sres_fast(spec)
        bound = 2 * ((m * n).bit_length() - 1) + 8
        assert result.op_count.muls <= bound
        expected = pow(5 - 3, m * n, 10007)
        assert DensePoly.of(result) == DensePoly.from_integers(F, [expected])
