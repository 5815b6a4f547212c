"""Acceptance gate: twelve numbered criteria, one printed line each.

Each criterion is one test.  The decorator prints `criterion N PASS: ...`
or `criterion N FAIL: ...` so a plain pytest run yields one line per
criterion (visible with -s, or in the captured output on failure).
"""

import functools
import math
import random
import time
from fractions import Fraction

from linsubres.cli import _sample_pairs, run_bench
from linsubres.fastsubres import (
    CharCase,
    bernstein_to_monomial,
    cofactors,
    sres_bernstein,
    sres_fast,
)
from linsubres.field import prime_field, rationals
from linsubres.jacobi import (
    JacobiParams,
    jacobi_hypergeometric,
    jacobi_rodrigues,
    shifted_jacobi,
    verify_pade_identity,
)
from linsubres.poly import DensePoly, ProblemSpec, power_of_linear, psres_oracle, sres_oracle
from linsubres.psres import psres_all, psres_schedule

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


def _int_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if a != b:
            pairs.append((a, b))
    return pairs


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


@criterion(1, "fast route equals the determinant oracle for all m, n <= 8")
def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(101)
    fields = [Q, prime_field(11), prime_field(13), prime_field(101)]
    checked = 0
    for descriptor in fields:
        p = descriptor.characteristic
        for m in range(1, 9):
            for n in range(1, 9):
                for alpha, beta in _sample_pairs(descriptor, rng, 20):
                    f = power_of_linear(alpha, m)
                    g = power_of_linear(beta, n)
                    for d in range(min(m, n)):
                        if p and p < m + n - d:
                            continue
                        spec = ProblemSpec(m, n, d, alpha, beta)
                        assert sres_fast(spec).polynomial() == sres_oracle(f, g, d)
                        checked += 1
    assert checked >= 15000
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
                assert sres_fast(spec).polynomial() == expected


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
                assert result.polynomial() == DensePoly.from_integers(descriptor, [value])
                f = power_of_linear(alpha, m)
                g = power_of_linear(beta, n)
                assert sres_oracle(f, g, d) == result.polynomial()
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
    checked = 0

    def check(spec, f, g):
        nonlocal checked
        pair = cofactors(spec)
        assert pair.f * f + pair.g * g == sres_fast(spec).polynomial()
        assert pair.f.is_zero() or pair.f.degree < spec.n - spec.d
        assert pair.g.is_zero() or pair.g.degree < spec.m - spec.d
        checked += 1

    for descriptor in (Q, prime_field(11), prime_field(13), prime_field(101)):
        p = descriptor.characteristic
        for m in range(1, 9):
            for n in range(1, 9):
                for alpha, beta in _sample_pairs(descriptor, rng, 20):
                    f = power_of_linear(alpha, m)
                    g = power_of_linear(beta, n)
                    for d in range(min(m, n)):
                        if p and p < m + n - d:
                            continue
                        check(ProblemSpec(m, n, d, alpha, beta), f, g)
    for p in SMALL_PRIMES:
        descriptor = prime_field(p)
        triples = list(_boundary_triples(p)) + list(_vanishing_triples(p))
        for m, n, d in triples:
            for a, b in _residue_pairs(p, rng, 3):
                alpha, beta = descriptor.element(a), descriptor.element(b)
                f = power_of_linear(alpha, m)
                g = power_of_linear(beta, n)
                check(ProblemSpec(m, n, d, alpha, beta), f, g)
    assert checked >= 15000


@criterion(6, "fast output is the scaled shifted Jacobi form for m, n <= 7")
def test_criterion_06_jacobi_correspondence():
    rng = random.Random(606)
    for m in range(1, 8):
        for n in range(1, 8):
            for a, b in _int_pairs(rng, 3):
                alpha, beta = Q.element(a), Q.element(b)
                for d in range(min(m, n)):
                    spec = ProblemSpec(m, n, d, alpha, beta)
                    shifted = shifted_jacobi(spec)
                    assert shifted.leading() == Q.element(math.comb(m + n - d - 1, d))
                    ratio = Fraction(a - b) ** ((m - d) * (n - d))
                    for i in range(1, d + 1):
                        ratio *= Fraction(
                            math.factorial(i) * math.factorial(m + n - d - i - 1),
                            math.factorial(m - i) * math.factorial(n - i),
                        )
                    assert sres_fast(spec).polynomial() == shifted.scale(Q.element(ratio))


@criterion(7, "the two Jacobi evaluation routes and the endpoint values agree")
def test_criterion_07_jacobi_internals():
    for r in range(7):
        for k in range(-8, 9):
            for l in range(-8, 9):
                params = JacobiParams(r, k, l)
                assert jacobi_rodrigues(params, Q) == jacobi_hypergeometric(params, Q)
    one = Q.one
    for r in range(9):
        for k in range(-8, 9):
            for l in range(-8, 9):
                poly = jacobi_hypergeometric(JacobiParams(r, k, l), Q)
                fact = math.factorial(r)
                plus = Fraction(math.prod(range(k + 1, k + r + 1)), fact)
                minus = Fraction((-1) ** r * math.prod(range(l + 1, l + r + 1)), fact)
                assert poly.evaluate(one) == Q.element(plus)
                assert poly.evaluate(-one) == Q.element(minus)


@criterion(8, "the principal subresultant vector matches the oracle and ratio formula")
def test_criterion_08_psres_vector():
    rng = random.Random(808)
    for descriptor in (Q, prime_field(17), prime_field(101)):
        p = descriptor.characteristic
        for m in range(1, 9):
            for n in range(1, 9):
                if p and p < m + n:
                    continue
                for alpha, beta in _sample_pairs(descriptor, rng, 5):
                    f = power_of_linear(alpha, m)
                    g = power_of_linear(beta, n)
                    values = psres_all(m, n, alpha, beta)
                    assert len(values) == min(m, n)
                    for d in range(min(m, n)):
                        assert values[d] == psres_oracle(f, g, d)
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
    rng = random.Random(909)
    for m in range(1, 9):
        for n in range(1, 9):
            for a, b in _int_pairs(rng, 3):
                alpha, beta = Q.element(a), Q.element(b)
                for d in range(min(m, n)):
                    spec = ProblemSpec(m, n, d, alpha, beta)
                    result = sres_bernstein(spec)
                    assert all(c.payload.denominator == 1 for c in result.coeffs)
                    converted = bernstein_to_monomial(result)
                    assert converted.polynomial() == sres_fast(spec).polynomial()


@criterion(10, "the rational-approximation identity holds for m, n <= 4, k <= 6")
def test_criterion_10_pade():
    for m in range(1, 5):
        for n in range(1, 5):
            for k in range(m, 7):
                assert verify_pade_identity(m, n, k, Q)


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
        assert result.polynomial() == DensePoly.from_integers(F, [expected])
