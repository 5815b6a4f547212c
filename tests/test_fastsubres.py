"""Fast subresultant algorithms against the determinant oracle."""

import json
import math
import sys
from fractions import Fraction

import pytest

from linsubres.errors import (
    CharacteristicError,
    CoincidentRoots,
    UnsupportedCase,
)
from linsubres.fastsubres import (
    Basis,
    CharCase,
    ProblemSpec,
    classify,
    leading_coefficient_sd,
    result_to_json,
    sres_bernstein,
    sres_fast,
)
from linsubres.field import count_ops, parse_field_spec, prime_field, rationals
from linsubres.check import psres_oracle, sres_oracle
from linsubres.poly import (
    DensePoly,
    cofactors,
    expand_pair_basis,
    poly_to_json,
    power_of_linear,
)

Q = rationals()
F3 = prime_field(3)
F5 = prime_field(5)
F11 = prime_field(11)
F13 = prime_field(13)


def spec_of(m, n, d, a, b, descriptor=Q):
    return ProblemSpec(m, n, d, descriptor.element(a), descriptor.element(b))


def test_classify_cases():
    assert classify(spec_of(3, 3, 1, 0, 1)) is CharCase.GENERIC_LARGE
    assert classify(spec_of(6, 6, 2, 0, 1, F11)) is CharCase.GENERIC_LARGE  # 11 >= 10
    assert classify(spec_of(3, 3, 2, 2, 1, F3)) is CharCase.BOUNDARY_PRIME  # 3 = 3+3-2-1
    assert classify(spec_of(5, 4, 1, 2, 1, F5)) is CharCase.VANISHING_BAND
    assert classify(spec_of(4, 4, 1, 1, 2, F3)) is CharCase.UNSUPPORTED
    # boundary wins over vanishing at the band's upper edge
    assert classify(spec_of(5, 4, 3, 0, 1, F5)) is CharCase.BOUNDARY_PRIME
    # d = 0 never vanishes: Sres_0 = (alpha-beta)^(mn) != 0 in any
    # characteristic >= max(m, n), so the band collapses to generic
    F2 = prime_field(2)
    assert classify(spec_of(2, 2, 0, 0, 1, F2)) is CharCase.GENERIC_LARGE
    assert classify(spec_of(4, 3, 0, 2, 1, F5)) is CharCase.GENERIC_LARGE
    # ... while p = m+n-1 classifies as boundary at d = 0
    assert classify(spec_of(3, 3, 0, 2, 1, F5)) is CharCase.BOUNDARY_PRIME


def test_leading_coefficient_examples():
    assert leading_coefficient_sd(spec_of(2, 2, 1, 0, 1)) == Q.element(-2)
    assert leading_coefficient_sd(spec_of(3, 3, 2, 1, 0)) == Q.element(3)
    # d = 0 is the resultant (alpha - beta)^(mn)
    assert leading_coefficient_sd(spec_of(3, 2, 0, 4, 2)) == Q.element(2**6)
    # frozen value cross-checked against the r_i product: 5^2 * 15 = 375
    assert leading_coefficient_sd(spec_of(6, 5, 4, 3, -2)) == Q.element(375)


def test_leading_coefficient_matches_oracle():
    # F_5 and F_7 hold boundary, vanishing and d = 0-gap requests
    for descriptor in (Q, F5, prime_field(7), F13):
        for m in range(1, 6):
            for n in range(1, 6):
                alpha = descriptor.element(3)
                beta = descriptor.element(-1)
                f = power_of_linear(alpha, m)
                g = power_of_linear(beta, n)
                for d in range(min(m, n)):
                    spec = ProblemSpec(m, n, d, alpha, beta)
                    assert leading_coefficient_sd(spec) == psres_oracle(f, g, d)


def test_leading_coefficient_guards():
    with pytest.raises(CoincidentRoots):
        leading_coefficient_sd(spec_of(2, 2, 1, 1, 1))
    # boundary case: (m+n-d-1)! holds p, so s_d = 0
    assert leading_coefficient_sd(spec_of(3, 3, 2, 2, 1, F3)) == F3.zero
    with pytest.raises(UnsupportedCase):
        leading_coefficient_sd(spec_of(4, 4, 1, 1, 2, F3))


def test_sres_fast_example():
    result = sres_fast(spec_of(2, 2, 1, 0, 1))
    assert result.case is CharCase.GENERIC_LARGE
    assert result.basis is Basis.MONOMIAL
    assert [str(c) for c in result.coeffs] == ["1", "-2"]
    assert DensePoly.of(result) == DensePoly.from_integers(Q, [1, -2])


def test_sres_fast_matches_oracle_sweep():
    for descriptor in (Q, F11, F13):
        p = descriptor.characteristic
        for m in range(1, 6):
            for n in range(1, 6):
                if p and p < max(m, n):
                    continue
                for a, b in [(0, 1), (2, -1), (5, 3)]:
                    alpha, beta = descriptor.element(a), descriptor.element(b)
                    if alpha == beta:
                        continue
                    f = power_of_linear(alpha, m)
                    g = power_of_linear(beta, n)
                    for d in range(min(m, n)):
                        spec = ProblemSpec(m, n, d, alpha, beta)
                        assert DensePoly.of(sres_fast(spec)) == sres_oracle(f, g, d)


def test_sres_fast_boundary_prime():
    result = sres_fast(spec_of(3, 3, 2, 2, 1, F3))
    assert result.case is CharCase.BOUNDARY_PRIME
    assert len(result.coeffs) == 1
    assert result.coeffs[0] == F3.one
    f = power_of_linear(F3.element(2), 3)
    g = power_of_linear(F3.element(1), 3)
    assert DensePoly.of(result) == sres_oracle(f, g, 2)


def test_sres_fast_vanishing_band():
    result = sres_fast(spec_of(5, 4, 1, 2, 1, F5))
    assert result.case is CharCase.VANISHING_BAND
    assert len(result.coeffs) == 2 and all(c.is_zero() for c in result.coeffs)
    f = power_of_linear(F5.element(2), 5)
    g = power_of_linear(F5.element(1), 4)
    assert sres_oracle(f, g, 1).is_zero()


def test_sres_fast_monomial_length():
    for m, n, d in [(4, 3, 2), (5, 5, 0), (2, 6, 1)]:
        result = sres_fast(spec_of(m, n, d, 7, 2))
        assert len(result.coeffs) == d + 1
        assert result.coeffs[d] == leading_coefficient_sd(spec_of(m, n, d, 7, 2))


def test_sres_fast_d0_below_generic_threshold():
    # reduced from characteristic 0, Sres_0 stays the delta power even when
    # p < m + n - 1; the oracle is the arbiter
    F2 = prime_field(2)
    for descriptor, m, n, a, b in [
        (F2, 2, 2, 0, 1),
        (F5, 4, 3, 2, 1),
        (F5, 4, 4, 3, 1),
    ]:
        alpha, beta = descriptor.element(a), descriptor.element(b)
        spec = ProblemSpec(m, n, 0, alpha, beta)
        result = sres_fast(spec)
        assert result.case is CharCase.GENERIC_LARGE
        delta = alpha - beta
        assert result.coeffs == (delta ** (m * n),)
        f = power_of_linear(alpha, m)
        g = power_of_linear(beta, n)
        assert DensePoly.of(result) == sres_oracle(f, g, 0)


def test_cofactors_d0_gap_identity():
    # d = 0 with max(m, n) <= p < m + n - 1: the one formula answers here too
    for m, n, a, b, descriptor in [(4, 3, 2, 1, F5), (2, 2, 0, 1, prime_field(2))]:
        spec = spec_of(m, n, 0, a, b, descriptor)
        pair = cofactors(spec)
        f = power_of_linear(spec.alpha, m)
        g = power_of_linear(spec.beta, n)
        assert pair.f * f + pair.g * g == DensePoly.of(sres_fast(spec))
        assert pair.f.degree < n and pair.g.degree < m


def test_sres_fast_errors():
    with pytest.raises(UnsupportedCase):
        sres_fast(spec_of(4, 4, 1, 1, 2, F3))
    with pytest.raises(CoincidentRoots):
        sres_fast(spec_of(2, 3, 1, 4, 4))


def test_sres_fast_op_count_embedded_and_stacking():
    spec = spec_of(6, 6, 3, 1, 2, prime_field(10007))
    with count_ops() as outer:
        result = sres_fast(spec)
    # the embedded snapshot equals what the enclosing scope observed
    assert outer == result.op_count
    assert result.op_count.total() > 0


def test_sres_fast_linear_growth():
    F = prime_field(10007)
    totals = {}
    for size in (64, 128, 256):
        result = sres_fast(ProblemSpec(size, size, size // 2, F.element(1), F.element(2)))
        totals[size] = result.op_count.total()
    assert totals[128] <= 2.5 * totals[64] + 50
    assert totals[256] <= 2.5 * totals[128] + 50


def test_sres_bernstein_op_counts_at_most_2_5x_per_doubling():
    """The pair-basis tally is credited by formula on both fields; it must
    stay linear, like criterion 11 holds fast and psres_all to."""
    F = prime_field(1000003)
    totals = {}
    for size in (64, 128, 256, 512, 1024, 2048):
        spec = ProblemSpec(size, size, size // 2, F.element(1), F.element(2))
        totals[size] = sres_bernstein(spec).op_count.total()
    for size in (64, 128, 256, 512, 1024):
        assert totals[2 * size] <= 2.5 * totals[size]


def test_sres_bernstein_example():
    result = sres_bernstein(spec_of(4, 3, 2, 2, 5))
    assert result.basis is Basis.BERNSTEIN
    assert result.prefactor == Q.element(9)
    assert [str(c) for c in result.coeffs] == ["3", "2", "1"]


def test_sres_bernstein_d_zero():
    result = sres_bernstein(spec_of(3, 2, 0, 4, 2))
    assert result.prefactor == Q.element(2**6)
    assert [str(c) for c in result.coeffs] == ["1"]


def test_sres_bernstein_integrality_and_conversion():
    for m in range(1, 7):
        for n in range(1, 7):
            for a, b in [(3, -2), (-1, 4)]:
                for d in range(min(m, n)):
                    spec = spec_of(m, n, d, a, b)
                    result = sres_bernstein(spec)
                    assert all(c.payload.denominator == 1 for c in result.coeffs)
                    expanded = expand_pair_basis(result.coeffs, spec.alpha, spec.beta)
                    assert expanded.scale(result.prefactor) == DensePoly.of(sres_fast(spec))


def test_sres_bernstein_rejects_non_generic():
    with pytest.raises(CharacteristicError):
        sres_bernstein(spec_of(3, 3, 2, 2, 1, F3))  # boundary case
    with pytest.raises(UnsupportedCase):
        sres_bernstein(spec_of(4, 4, 1, 1, 2, F3))


def test_cofactors_simplest_case():
    pair = cofactors(spec_of(1, 1, 0, 5, 2))
    assert pair.f == DensePoly.from_integers(Q, [-1])
    assert pair.g == DensePoly.from_integers(Q, [1])


def test_cofactors_bezout_identity_sweep():
    for descriptor in (Q, F11):
        p = descriptor.characteristic
        for m in range(1, 6):
            for n in range(1, 6):
                if p and p < max(m, n):
                    continue
                alpha, beta = descriptor.element(2), descriptor.element(-3)
                f = power_of_linear(alpha, m)
                g = power_of_linear(beta, n)
                for d in range(min(m, n)):
                    spec = ProblemSpec(m, n, d, alpha, beta)
                    pair = cofactors(spec)
                    combo = pair.f * f + pair.g * g
                    assert combo == DensePoly.of(sres_fast(spec))
                    assert pair.f.is_zero() or pair.f.degree < n - d
                    assert pair.g.is_zero() or pair.g.degree < m - d


def test_cofactors_boundary_closed_form():
    pair = cofactors(spec_of(3, 3, 2, 2, 1, F3))
    assert pair.case is CharCase.BOUNDARY_PRIME
    assert pair.f == DensePoly.from_integers(F3, [-1])
    assert pair.g == DensePoly.from_integers(F3, [1])
    # m=4, n=3, d=2 over F_4+3-2-1 = F_13 is not boundary; use m=5,n=3,d=0 -> p=7
    F7 = prime_field(7)
    spec = spec_of(5, 3, 0, 3, 1, F7)
    assert classify(spec) is CharCase.BOUNDARY_PRIME
    pair = cofactors(spec)
    delta = F7.element(2)
    scale = delta ** ((5 - 1) * (3 - 1))
    f_expected = power_of_linear(F7.element(3), 2).scale(scale).scale(-F7.one)
    g_expected = power_of_linear(F7.element(1), 4).scale(scale)
    assert pair.f == f_expected
    assert pair.g == g_expected
    f = power_of_linear(F7.element(3), 5)
    g = power_of_linear(F7.element(1), 3)
    assert pair.f * f + pair.g * g == DensePoly.of(sres_fast(spec))


def test_cofactors_vanishing_band_zero():
    pair = cofactors(spec_of(5, 4, 1, 2, 1, F5))
    assert pair.case is CharCase.VANISHING_BAND
    assert pair.f.is_zero() and pair.g.is_zero()


def test_cofactors_errors():
    with pytest.raises(UnsupportedCase):
        cofactors(spec_of(4, 4, 1, 1, 2, F3))
    with pytest.raises(CoincidentRoots):
        cofactors(spec_of(2, 2, 0, 3, 3))


def test_result_json_round_trip():
    for result in (
        sres_fast(spec_of(3, 2, 1, Fraction(1, 2), -2)),
        sres_bernstein(spec_of(4, 3, 2, 2, 5)),
        sres_fast(spec_of(3, 3, 2, 2, 1, F3)),
        sres_fast(spec_of(6, 5, 3, 4, -7, F13)),
        sres_bernstein(spec_of(6, 5, 3, 4, -7, F13)),
    ):
        spec, descriptor = result.spec, result.spec.descriptor
        payload = result_to_json(result)
        keys = {"m", "n", "d", "alpha", "beta", "field", "case", "basis", "coeffs", "ops"}
        if result.prefactor is not None:
            keys.add("prefactor")
            assert payload["prefactor"] == str(result.prefactor)
            assert descriptor.from_str(payload["prefactor"]) == result.prefactor
        assert set(payload) == keys
        assert (payload["m"], payload["n"], payload["d"]) == (spec.m, spec.n, spec.d)
        assert parse_field_spec(payload["field"]) == descriptor
        assert descriptor.from_str(payload["alpha"]) == spec.alpha
        assert descriptor.from_str(payload["beta"]) == spec.beta
        assert CharCase(payload["case"]) is result.case
        assert Basis(payload["basis"]) is result.basis
        assert payload["coeffs"] == [str(c) for c in result.coeffs]
        assert tuple(descriptor.from_str(c) for c in payload["coeffs"]) == result.coeffs
        assert payload["ops"] == result.op_count.as_dict()
        assert json.loads(json.dumps(payload)) == payload


def test_json_writers_print_past_the_int_str_limit():
    """result_to_json, poly_to_json and repr print Q values past the
    default 4300-digit cap as the uncapped str prints them, and leave the
    cap as it was."""
    results = [sres_fast(spec_of(256, 256, 128, 3, -2)),
               sres_fast(spec_of(96, 96, 48, Fraction(-7, 9), Fraction(5, 8)))]
    pair = cofactors(spec_of(160, 160, 80, 3, -2))
    polys = [pair.f, pair.g]
    cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        payloads = [result_to_json(result) for result in results]
        written = [poly_to_json(poly) for poly in polys]
        reprs = [repr(result.coeffs[-1]) for result in results]
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        for result, payload, shown in zip(results, payloads, reprs):
            assert payload["coeffs"] == [str(c.payload) for c in result.coeffs]
            assert shown == f"<{result.coeffs[-1].payload} in q>"
        for poly, obj in zip(polys, written):
            assert obj["coeffs"] == [str(c.payload) for c in poly.coeffs]
        longest = max(len(c) for c in payloads[0]["coeffs"])
        assert longest == 17_078
        assert max(len(c) for obj in written for c in obj["coeffs"]) > 4300
        assert max(len(c.partition("/")[2]) for c in payloads[1]["coeffs"]) > 4300
    finally:
        sys.set_int_max_str_digits(cap)


def test_fraction_parameters():
    # non-integer alpha, beta over Q
    spec = spec_of(3, 4, 2, Fraction(1, 2), Fraction(-3, 7))
    f = power_of_linear(spec.alpha, 3)
    g = power_of_linear(spec.beta, 4)
    assert DensePoly.of(sres_fast(spec)) == sres_oracle(f, g, 2)


def test_d1_closed_form():
    # Sres_1 = (a-b)^((m-1)(n-1)) (C(m+n-2, m-1) x - C(m+n-3, m-1) a - C(m+n-3, n-1) b)
    for m, n in [(2, 2), (3, 5), (4, 4), (6, 3)]:
        a, b = 5, -2
        spec = spec_of(m, n, 1, a, b)
        lead = (a - b) ** ((m - 1) * (n - 1))
        expected = DensePoly(
            Q,
            [
                Q.element(lead * (-math.comb(m + n - 3, m - 1) * a
                                  - math.comb(m + n - 3, n - 1) * b)),
                Q.element(lead * math.comb(m + n - 2, m - 1)),
            ],
        )
        assert DensePoly.of(sres_fast(spec)) == expected
