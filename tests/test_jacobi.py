"""Jacobi polynomial routes, shifted expansions, and the Pade identity."""

import math
from fractions import Fraction

import pytest

from linsubres.errors import (
    CharacteristicError,
    CoincidentRoots,
    PreconditionError,
)
from linsubres.fastsubres import ProblemSpec
from linsubres.field import binary_pow, prime_field, rationals
from linsubres.jacobi import (
    JacobiParams,
    hyp2f1_poly,
    jacobi_hypergeometric,
    jacobi_rodrigues,
    shifted_jacobi,
    verify_pade_identity,
)
from linsubres.poly import DensePoly, expand_pair_basis, pair_basis_coeffs

Q = rationals()


def frac_poly(*coeffs):
    return DensePoly(Q, [Q.element(Fraction(c)) for c in coeffs])


def test_degree_zero_and_one():
    assert jacobi_hypergeometric(JacobiParams(0, 3, -5), Q) == DensePoly.one(Q)
    for k in range(-4, 5):
        for l in range(-4, 5):
            p = jacobi_hypergeometric(JacobiParams(1, k, l), Q)
            expected = frac_poly(Fraction(k - l, 2), Fraction(k + l + 2, 2))
            assert p == expected


def test_negative_parameter_example():
    # P_2^{(-3,-3)} = (3x^2 + 1) / 4
    p = jacobi_hypergeometric(JacobiParams(2, -3, -3), Q)
    assert p == frac_poly(Fraction(1, 4), 0, Fraction(3, 4))
    assert jacobi_rodrigues(JacobiParams(2, -3, -3), Q) == p


def test_rodrigues_matches_hypergeometric_box():
    for r in range(5):
        for k in range(-5, 6):
            for l in range(-5, 6):
                params = JacobiParams(r, k, l)
                assert jacobi_rodrigues(params, Q) == jacobi_hypergeometric(params, Q)


def test_endpoint_values():
    # P_r(1) = (k+1)_r / r!,  P_r(-1) = (-1)^r (l+1)_r / r!
    one = Q.one
    for r in range(0, 9):
        for k, l in [(0, 0), (2, 5), (-3, 1), (-6, -2), (4, -7)]:
            p = jacobi_hypergeometric(JacobiParams(r, k, l), Q)
            fact = math.factorial(r)
            up = Fraction(math.prod(range(k + 1, k + r + 1)), fact)
            down = Fraction((-1) ** r * math.prod(range(l + 1, l + r + 1)), fact)
            assert p.evaluate(one) == Q.element(up)
            assert p.evaluate(-one) == Q.element(down)


def test_structured_endpoint_values():
    # P_d^{(-n,-m)}(1) = (-1)^d C(n-1, d) and P_d^{(-n,-m)}(-1) = C(m-1, d)
    for m in range(1, 7):
        for n in range(1, 7):
            for d in range(min(m, n)):
                p = jacobi_hypergeometric(JacobiParams(d, -n, -m), Q)
                assert p.evaluate(Q.one) == Q.element((-1) ** d * math.comb(n - 1, d))
                assert p.evaluate(-Q.one) == Q.element(math.comb(m - 1, d))


def test_hypergeometric_characteristic_guards():
    with pytest.raises(CharacteristicError):
        jacobi_hypergeometric(JacobiParams(1, 0, 0), prime_field(2))
    with pytest.raises(CharacteristicError):
        jacobi_hypergeometric(JacobiParams(5, 1, 1), prime_field(5))


def test_hypergeometric_prime_field_matches_rational_reduction():
    F11 = prime_field(11)
    for r in range(4):
        for k, l in [(1, 2), (-3, 0), (2, -4)]:
            over_q = jacobi_hypergeometric(JacobiParams(r, k, l), Q)
            over_f = jacobi_hypergeometric(JacobiParams(r, k, l), F11)
            reduced = DensePoly(
                F11,
                [
                    F11.element(c.payload.numerator)
                    / F11.element(c.payload.denominator)
                    for c in over_q.coeffs
                ],
            )
            assert over_f == reduced


def test_rodrigues_characteristic_guard():
    with pytest.raises(CharacteristicError):
        jacobi_rodrigues(JacobiParams(2, 0, 0), prime_field(7))


def test_pair_basis_matches_shift_evaluation():
    # expand_pair_basis(pair_basis_coeffs(r, k, l)) must equal
    # (beta - alpha)^r P_r^{(k,l)}((2x - alpha - beta) / (beta - alpha))
    alpha, beta = Q.element(3), Q.element(-2)
    span = beta - alpha
    for r, k, l in [(0, 2, 3), (1, -4, 2), (2, -3, 5), (3, 2, 2), (4, -5, 3)]:
        cleared = expand_pair_basis(pair_basis_coeffs(r, k, l, Q), alpha, beta)
        p = jacobi_hypergeometric(JacobiParams(r, k, l), Q)
        scale = binary_pow(span, r)
        for point in range(r + 2):
            x = Q.element(point)
            z = (x + x - alpha - beta) / span
            assert cleared.evaluate(x) == scale * p.evaluate(z)


def test_pair_basis_integer_pole():
    # l + j + 1 = 0 at j = 1, a pole of the ratio t_{j+1} / t_j;
    # t_j = C(3, j) C(1, 3-j)
    assert pair_basis_coeffs(3, 0, -2, Q) == [Q.element(v) for v in (0, 0, 3, 1)]


def test_pair_basis_generalized_binomials():
    # t_j = C(k+r, j) C(l+r, r-j) with negative top arguments
    out = pair_basis_coeffs(1, 1, -2, Q)
    assert out == [Q.element(-1), Q.element(2)]


def test_shifted_jacobi_example():
    spec = ProblemSpec(2, 2, 1, Q.element(0), Q.element(1))
    assert shifted_jacobi(spec) == DensePoly.from_integers(Q, [-1, 2])


def test_shifted_jacobi_leading_and_integrality():
    for m in range(1, 7):
        for n in range(1, 7):
            for d in range(min(m, n)):
                spec = ProblemSpec(m, n, d, Q.element(4), Q.element(-3))
                p = shifted_jacobi(spec)
                assert p.degree == d
                assert p.leading() == Q.element(math.comb(m + n - d - 1, d))
                assert all(c.payload.denominator == 1 for c in p.coeffs)


def test_shifted_jacobi_is_scaled_jacobi_at_points():
    # against (alpha - beta)^d P_d^{(-n,-m)}((2x - alpha - beta)/(beta - alpha))
    alpha, beta = Q.element(2), Q.element(7)
    for m, n, d in [(3, 2, 1), (4, 4, 3), (5, 3, 2), (2, 5, 0)]:
        spec = ProblemSpec(m, n, d, alpha, beta)
        lhs = shifted_jacobi(spec)
        p = jacobi_hypergeometric(JacobiParams(d, -n, -m), Q)
        scale = binary_pow(alpha - beta, d)
        for point in range(d + 2):
            x = Q.element(point)
            z = (x + x - alpha - beta) / (beta - alpha)
            assert lhs.evaluate(x) == scale * p.evaluate(z)


def test_shifted_jacobi_guards():
    with pytest.raises(CoincidentRoots):
        shifted_jacobi(ProblemSpec(2, 2, 1, Q.element(1), Q.element(1)))
    F5 = prime_field(5)
    with pytest.raises(CharacteristicError):
        shifted_jacobi(ProblemSpec(4, 4, 2, F5.element(0), F5.element(1)))
    with pytest.raises(PreconditionError):
        pair_basis_coeffs(-1, 0, 0, Q)
    with pytest.raises(PreconditionError):
        expand_pair_basis([], Q.one, Q.zero)


def test_hyp2f1_values():
    assert hyp2f1_poly(0, 5, 3, Q) == DensePoly.one(Q)
    assert hyp2f1_poly(-1, -2, -2, Q) == DensePoly.from_integers(Q, [1, -1])
    assert hyp2f1_poly(-2, 7, 7, Q) == DensePoly.from_integers(Q, [1, -2, 1])
    # b hits zero first: the series truncates early
    assert hyp2f1_poly(-5, 0, 3, Q) == DensePoly.one(Q)
    assert hyp2f1_poly(-3, -1, 4, Q).degree == 1


def test_hyp2f1_errors():
    with pytest.raises(PreconditionError):
        hyp2f1_poly(1, 2, 3, Q)
    with pytest.raises(PreconditionError):
        hyp2f1_poly(0.5, 1, 1, Q)
    with pytest.raises(PreconditionError):
        hyp2f1_poly(-3, -5, -2, Q)  # (c)_i hits zero before termination
    with pytest.raises(CharacteristicError):
        hyp2f1_poly(-4, 1, 2, prime_field(3))  # denominator image (c+1)(2) = 6 = 0
    # a zero image in the b ladder truncates instead of raising
    assert hyp2f1_poly(-4, 1, 1, prime_field(3)).degree <= 2


def test_pade_identity_examples():
    assert verify_pade_identity(1, 1, 1, Q)
    assert verify_pade_identity(1, 2, 1, Q)
    assert verify_pade_identity(2, 2, 3, Q)
    assert verify_pade_identity(3, 1, 4, Q)


def test_pade_identity_guards():
    with pytest.raises(PreconditionError):
        verify_pade_identity(3, 2, 2, Q)  # k < m
    with pytest.raises(CharacteristicError):
        verify_pade_identity(1, 1, 1, prime_field(7))
    with pytest.raises(PreconditionError):
        verify_pade_identity(0, 1, 1, Q)


def test_jacobi_params_validation():
    with pytest.raises(PreconditionError):
        JacobiParams(-1, 0, 0)
    with pytest.raises(PreconditionError):
        JacobiParams(1, 0.5, 0)
