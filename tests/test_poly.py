"""Polynomial arithmetic, the structured pair, and the determinant oracle."""

import json
import math
import operator

import pytest

from linsubres.check import _det, psres_oracle, sres_oracle
from linsubres.errors import BasisMismatch, FieldMismatch, PreconditionError
from linsubres.fastsubres import ProblemSpec, sres_bernstein
from linsubres.field import parse_field_spec, prime_field, rationals
from linsubres.poly import DensePoly, poly_to_json, power_of_linear

Q = rationals()
F7 = prime_field(7)
F11 = prime_field(11)
F13 = prime_field(13)


def ints(descriptor, *coeffs):
    return DensePoly.from_integers(descriptor, coeffs)


def test_normalization_strips_trailing_zeros():
    p = ints(Q, 1, 2, 0, 0)
    assert p.degree == 1
    assert p == ints(Q, 1, 2)
    assert DensePoly(Q, [Q.zero]).is_zero()
    assert DensePoly.zero(Q).degree == -1
    with pytest.raises(PreconditionError):
        DensePoly.zero(Q).leading()
    with pytest.raises(TypeError):
        DensePoly(Q, [1])
    with pytest.raises(FieldMismatch):
        DensePoly(Q, [F7.one])


def test_basic_arithmetic():
    x_plus = ints(Q, 1, 1)
    x_minus = ints(Q, -1, 1)
    assert x_plus * x_minus == ints(Q, -1, 0, 1)
    assert x_plus + x_minus == ints(Q, 0, 2)
    assert x_plus - x_minus == ints(Q, 2)
    assert -x_plus == ints(Q, -1, -1)
    assert x_plus.scale(Q.element(3)) == ints(Q, 3, 3)
    assert (x_plus * DensePoly.zero(Q)).is_zero()
    assert repr(x_minus) == "DensePoly(q, [-1, 1])"
    assert hash(x_plus) == hash(ints(Q, 1, 1)) and (x_plus == 1) is False
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x_plus, 1)


def test_arithmetic_checks_fields_and_strips_trailing_zeros():
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((ints(Q, 1, 1), ints(F7, 1, 1)), (ints(F7, 2), ints(F11, 0, 3))):
            with pytest.raises(FieldMismatch):
                op(a, b)
    x = ints(Q, 0, 1)
    one = DensePoly.one(Q)
    results = [
        ((x + one) + (-x), [1]),
        ((x + one) - (x + one), []),
        (x - (x + one), [-1]),
        (ints(Q, 1, 0, 1) * ints(Q, -1, 0, 1), [-1, 0, 0, 0, 1]),
        (ints(Q, 2, 3).scale(Q.zero), []),
        (ints(F7, 3, 1) * ints(F7, 4, 1), [5, 0, 1]),  # x^2 + 7x + 12
        (ints(F7, 3, 1) + ints(F7, 4, 6), []),
        (ints(F7, 0, 0, 2).scale(F7.element(4)), [0, 0, 1]),
    ]
    for result, coeffs in results:
        expected = ints(result.descriptor, *coeffs, 0)
        assert result == expected == DensePoly(result.descriptor, result.coeffs)
        assert result.degree == len(coeffs) - 1


def test_evaluate_horner():
    p = ints(F7.element(1).descriptor, 1, 2)  # 2x + 1 over F7
    assert p.evaluate(F7.element(3)) == F7.element(0)
    p5 = ints(prime_field(5), 1, 2)
    assert p5.evaluate(prime_field(5).element(3)) == prime_field(5).element(2)
    q = ints(Q, 5, -3, 1)  # x^2 - 3x + 5
    assert q.evaluate(Q.element(4)) == Q.element(9)


def test_derivative():
    assert ints(Q, 0, 0, 0, 1).derivative() == ints(Q, 0, 0, 3)
    assert ints(Q, 9).derivative().is_zero()


def test_coeff_out_of_range_is_zero():
    p = ints(Q, 1, 2)
    assert p.coeff(5) == Q.zero
    assert p.coeff(-1) == Q.zero


def test_power_of_linear_examples():
    assert power_of_linear(Q.element(1), 2) == ints(Q, 1, -2, 1)
    assert power_of_linear(Q.element(0), 5) == ints(Q, 0, 0, 0, 0, 0, 1)
    assert power_of_linear(Q.element(3), 0) == DensePoly.one(Q)
    assert power_of_linear(F7.element(2), 3) == ints(F7, 6, 5, 1, 1)
    with pytest.raises(ValueError):
        power_of_linear(Q.one, -1)


def test_power_of_linear_matches_repeated_multiplication():
    for descriptor in (Q, F11):
        for a in (-2, 0, 3, 5):
            alpha = descriptor.element(a)
            linear = DensePoly(descriptor, (-alpha, descriptor.one))
            acc = DensePoly.one(descriptor)
            for e in range(9):
                assert power_of_linear(alpha, e) == acc
                acc = acc * linear


def test_problem_spec_validation():
    alpha, beta = Q.element(1), Q.element(2)
    ProblemSpec(3, 2, 1, alpha, beta)
    with pytest.raises(PreconditionError):
        ProblemSpec(0, 2, 0, alpha, beta)
    with pytest.raises(PreconditionError):
        ProblemSpec(3, 2, 2, alpha, beta)  # d must stay below min(m, n)
    with pytest.raises(PreconditionError):
        ProblemSpec(3, 2, -1, alpha, beta)
    with pytest.raises(PreconditionError):
        ProblemSpec(True, 2, 0, alpha, beta)
    with pytest.raises(FieldMismatch):
        ProblemSpec(3, 2, 1, alpha, F7.element(2))
    spec = ProblemSpec(2, 2, 1, alpha, alpha)  # coincident roots allowed here
    assert spec.descriptor == Q


def test_basis_mismatch_errors():
    spec = ProblemSpec(3, 3, 1, Q.element(0), Q.element(1))
    with pytest.raises(BasisMismatch, match=r"call sres_fast\(result\.spec\)"):
        DensePoly.of(sres_bernstein(spec))


def test_sres_oracle_resultant_closed_form():
    # d = 0 is the resultant: (alpha - beta)^(m n)
    for m in range(1, 5):
        for n in range(1, 5):
            for a, b in [(2, 1), (0, 1), (-3, 4)]:
                f = power_of_linear(Q.element(a), m)
                g = power_of_linear(Q.element(b), n)
                expected = Q.element((a - b) ** (m * n))
                assert sres_oracle(f, g, 0) == DensePoly.constant(expected)


def test_sres_oracle_known_linear_case():
    f = power_of_linear(Q.element(0), 2)
    g = power_of_linear(Q.element(1), 2)
    assert sres_oracle(f, g, 1) == ints(Q, 1, -2)
    assert psres_oracle(f, g, 1) == Q.element(-2)


def test_sres_oracle_coincident_roots_vanish():
    f = power_of_linear(Q.element(3), 3)
    g = power_of_linear(Q.element(3), 2)
    for d in range(2):
        assert sres_oracle(f, g, d).is_zero()


def test_sres_oracle_frozen_values():
    # Independently cross-checked: d=0 is delta^12, d=1 matches the linear
    # closed form 729*(10x - 2), d=2 matches the scaled shifted-Jacobi
    # expansion 9*(6x^2 + 3).
    f = power_of_linear(Q.element(2), 4)
    g = power_of_linear(Q.element(-1), 3)
    assert sres_oracle(f, g, 0) == ints(Q, 531441)
    assert sres_oracle(f, g, 1) == ints(Q, -1458, 7290)
    assert sres_oracle(f, g, 2) == ints(Q, 27, 0, 54)
    # regression freeze over F13
    f = power_of_linear(F13.element(6), 5)
    g = power_of_linear(F13.element(2), 4)
    assert sres_oracle(f, g, 3) == ints(F13, 12, 1, 12, 4)
    assert sres_oracle(f, g, 2) == ints(F13, 4, 4, 11)


def test_psres_oracle_frozen_value():
    # delta = 5, s_4 = 5^2 * (1/4)(5/6)(4)(18) = 375
    f = power_of_linear(Q.element(3), 6)
    g = power_of_linear(Q.element(-2), 5)
    assert psres_oracle(f, g, 4) == Q.element(375)


def test_psres_oracle_is_xd_coefficient():
    for m in range(1, 5):
        for n in range(1, 5):
            f = power_of_linear(Q.element(4), m)
            g = power_of_linear(Q.element(-1), n)
            for d in range(min(m, n)):
                assert sres_oracle(f, g, d).coeff(d) == psres_oracle(f, g, d)


def test_sres_oracle_degree_bound():
    f = power_of_linear(Q.element(5), 4)
    g = power_of_linear(Q.element(2), 4)
    for d in range(4):
        result = sres_oracle(f, g, d)
        assert result.is_zero() or result.degree <= d


def test_oracle_works_on_unstructured_inputs():
    # The oracle is defined for arbitrary polynomials; check it against the
    # classical Sylvester resultant of two generic quadratics via the
    # product-of-root-differences formula.
    f = ints(Q, 2, -3, 1)   # (x-1)(x-2)
    g = ints(Q, 12, -7, 1)  # (x-3)(x-4)
    expected = math.prod((a - b) for a in (1, 2) for b in (3, 4))
    assert sres_oracle(f, g, 0) == DensePoly.constant(Q.element(expected))


def test_oracle_precondition_errors():
    f = power_of_linear(Q.element(1), 3)
    g = power_of_linear(Q.element(2), 2)
    with pytest.raises(PreconditionError):
        sres_oracle(f, g, 2)
    with pytest.raises(PreconditionError):
        sres_oracle(f, DensePoly.one(Q), 0)
    with pytest.raises(PreconditionError):
        psres_oracle(f, g, -1)
    with pytest.raises(FieldMismatch):
        sres_oracle(f, power_of_linear(F7.element(2), 2), 0)
    with pytest.raises(PreconditionError):
        sres_oracle(f, g, 1.0)
    for rows in ([[Q.one, Q.one]], []):
        with pytest.raises(PreconditionError):
            _det(rows)


def test_poly_json_round_trip():
    for p in (ints(Q, 1, 0, -2), power_of_linear(F7.element(3), 4), DensePoly.zero(Q)):
        obj = poly_to_json(p)
        assert set(obj) == {"field", "coeffs"}
        assert parse_field_spec(obj["field"]) == p.descriptor
        assert obj["coeffs"] == [str(c) for c in p.coeffs]
        assert DensePoly(p.descriptor, [p.descriptor.from_str(c) for c in obj["coeffs"]]) == p
        assert json.loads(json.dumps(obj)) == obj
