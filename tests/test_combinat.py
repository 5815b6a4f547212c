"""The reference combinatorics in linsubres.jacobi (binomial, pochhammer,
falling_product) against integer ground truth."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsubres.jacobi import binomial, falling_product, pochhammer
from linsubres.errors import CharacteristicError
from linsubres.field import count_ops, prime_field, rationals

Q = rationals()


def test_binomial_values():
    assert binomial(2, 3, Q) == Q.element(10)
    assert binomial(0, 9, Q) == Q.one
    assert binomial(9, 0, Q) == Q.one
    # C(8, 4) = 70 = 0 mod 7; min(k, l) = 4 < 7 so this is in range
    assert binomial(4, 4, prime_field(7)) == prime_field(7).zero


def test_binomial_matches_integer_combinations():
    F101 = prime_field(101)
    for k in range(0, 13):
        for l in range(0, 13):
            expected = math.comb(k + l, k)
            assert binomial(k, l, Q) == Q.element(expected)
            assert binomial(k, l, F101) == F101.element(expected)


def test_binomial_symmetry():
    for k, l in [(3, 8), (0, 5), (7, 7)]:
        assert binomial(k, l, Q) == binomial(l, k, Q)


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 3, Q)


def test_binomial_characteristic_guard():
    with pytest.raises(CharacteristicError):
        binomial(7, 9, prime_field(5))
    # boundary: min = p - 1 is fine
    assert binomial(4, 9, prime_field(5)) == prime_field(5).element(math.comb(13, 4) % 5)


def test_binomial_operation_bound():
    F = prime_field(10007)
    for k, l in [(64, 64), (1, 64), (64, 3), (0, 64), (40, 17)]:
        with count_ops() as ops:
            binomial(k, l, F)
        assert ops.total() <= 4 * min(k, l) + 8


def test_pochhammer_values():
    assert pochhammer(Q.element(1), 4) == Q.element(24)
    assert pochhammer(Q.element(-3), 5) == Q.zero  # passes through zero
    assert pochhammer(prime_field(5).element(2), 3) == prime_field(5).element(4)
    assert pochhammer(Q.element(9), 0) == Q.one
    with pytest.raises(ValueError):
        pochhammer(Q.one, -1)


def test_pochhammer_operation_count():
    for j in [1, 2, 5, 9]:
        with count_ops() as ops:
            pochhammer(Q.element(3), j)
        assert ops.muls == j - 1 and ops.adds == j - 1


def test_falling_product_values():
    assert falling_product(5, 2, Q) == Q.element(20)
    assert falling_product(5, 0, Q) == Q.one
    assert falling_product(6, 3, prime_field(11)) == prime_field(11).element(10)
    # factorial as the special case top = count
    assert falling_product(6, 6, Q) == Q.element(720)
    with pytest.raises(ValueError):
        falling_product(5, -1, Q)


small = st.integers(min_value=1, max_value=12)


@settings(max_examples=60, deadline=None)
@given(k=small, l=small)
def test_binomial_pascal_identity(k, l):
    lhs = binomial(k, l, Q)
    assert lhs == binomial(k - 1, l, Q) + binomial(k, l - 1, Q)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(min_value=-9, max_value=9), j=st.integers(min_value=0, max_value=8))
def test_pochhammer_matches_product(a, j):
    expected = math.prod(range(a, a + j))
    assert pochhammer(Q.element(a), j) == Q.element(expected)
