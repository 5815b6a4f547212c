"""Principal subresultant schedule and vector."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linsubres.check import psres_oracle, psres_schedule
from linsubres.errors import CharacteristicError, FieldMismatch, PreconditionError
from linsubres.fastsubres import ProblemSpec, leading_coefficient_sd
from linsubres.field import binary_pow, count_ops, prime_field, rationals
from linsubres.poly import power_of_linear
from linsubres.psres import psres_all

Q = rationals()
F17 = prime_field(17)


def test_psres_all_examples():
    assert psres_all(2, 2, Q.element(1), Q.element(0)) == [Q.element(1), Q.element(2)]
    assert psres_all(3, 3, Q.element(1), Q.element(0)) == [
        Q.element(1),
        Q.element(6),
        Q.element(3),
    ]


def test_schedule_chains_square_case():
    schedule = psres_schedule(3, 3, Q.element(1), Q.element(0))
    assert schedule.v == (Q.element(Fraction(1, 12)),)
    assert schedule.u == (Q.element(6), Q.element(Fraction(1, 2)))
    assert schedule.c == (Q.element(1), Q.element(6), Q.element(3))
    assert schedule.h == (Q.element(1),) * 3  # delta = 1
    assert schedule.values == (Q.element(1), Q.element(6), Q.element(3))


def test_schedule_chains_rectangular_case():
    schedule = psres_schedule(3, 2, Q.element(3), Q.element(1))
    assert schedule.v == ()
    assert schedule.u == (Q.element(3),)
    assert schedule.c == (Q.element(1), Q.element(3))
    assert schedule.gamma == (Q.element(Fraction(1, 16)),)
    assert schedule.h == (Q.element(64), Q.element(4))
    assert schedule.values == (Q.element(64), Q.element(12))


def test_schedule_h_is_delta_power():
    schedule = psres_schedule(5, 4, Q.element(2), Q.element(-1))
    delta = Q.element(3)
    for d in range(4):
        assert schedule.h[d] == binary_pow(delta, (5 - d) * (4 - d))
        assert schedule.values[d] == schedule.c[d] * schedule.h[d]


def test_psres_all_matches_oracle():
    for descriptor in (Q, F17):
        for m in range(1, 6):
            for n in range(1, 6):
                if descriptor.characteristic and descriptor.characteristic < m + n:
                    continue
                alpha = descriptor.element(4)
                beta = descriptor.element(-3)
                f = power_of_linear(alpha, m)
                g = power_of_linear(beta, n)
                values = psres_all(m, n, alpha, beta)
                assert len(values) == min(m, n)
                for d, value in enumerate(values):
                    assert value == psres_oracle(f, g, d)


def test_coincident_roots_short_circuit():
    schedule = psres_schedule(4, 3, Q.element(5), Q.element(5))
    assert schedule.values == (Q.zero,) * 3
    assert schedule.v == schedule.u == schedule.c == ()
    assert schedule.gamma == schedule.h == ()


def test_min_one():
    assert psres_all(1, 5, Q.element(2), Q.element(0)) == [Q.element(32)]
    schedule = psres_schedule(1, 5, Q.element(2), Q.element(0))
    assert schedule.v == schedule.u == schedule.gamma == ()
    assert schedule.c == (Q.one,)
    assert schedule.h == (Q.element(32),)


def test_characteristic_guard():
    F5 = prime_field(5)
    with pytest.raises(CharacteristicError):
        psres_all(4, 4, F5.element(1), F5.element(2))
    with pytest.raises(CharacteristicError):
        psres_all(3, 3, F5.element(1), F5.element(2))
    # p = m + n sits exactly on the precondition and works
    assert len(psres_all(3, 2, F5.element(1), F5.element(2))) == 2


def test_validation_errors():
    with pytest.raises(PreconditionError):
        psres_schedule(0, 3, Q.element(1), Q.element(2))
    with pytest.raises(PreconditionError):
        psres_schedule(2, True, Q.element(1), Q.element(2))
    with pytest.raises(PreconditionError):
        psres_schedule(2, 2, 1, Q.element(2))
    with pytest.raises(FieldMismatch):
        psres_schedule(2, 2, Q.element(1), F17.element(2))


def test_psres_single_examples():
    spec = ProblemSpec(6, 5, 4, Q.element(3), Q.element(-2))
    assert leading_coefficient_sd(spec) == Q.element(375)
    spec = ProblemSpec(2, 2, 1, Q.element(1), Q.element(0))
    assert leading_coefficient_sd(spec) == Q.element(2)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=6),
    a=st.integers(min_value=-6, max_value=6),
    b=st.integers(min_value=-6, max_value=6),
)
def test_vector_agrees_with_single_closed_form(m, n, a, b):
    alpha, beta = Q.element(a), Q.element(b)
    values = psres_all(m, n, alpha, beta)
    if a == b:
        assert all(value.is_zero() for value in values)
        return
    for d, value in enumerate(values):
        assert value == leading_coefficient_sd(ProblemSpec(m, n, d, alpha, beta))


def test_operation_count_is_linear_plus_log():
    F = prime_field(10007)
    for size in (64, 256):
        with count_ops() as counter:
            psres_all(size, size, F.element(1), F.element(2))
        bound = 12 * size + 4 * math.ceil(math.log2(size * size)) + 40
        assert counter.total() <= bound
