"""Field arithmetic, canonical forms, and operation counting."""

import copy
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsubres import field
from linsubres.errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidModulus,
)
from linsubres.field import (
    FieldDescriptor,
    FieldValue,
    OpCounter,
    _decimal_text,
    _int_text,
    binary_pow,
    binary_pow_muls,
    count_ops,
    parse_field_spec,
    prime_field,
    rationals,
)

Q = rationals()
F7 = prime_field(7)
DEFAULT_INT_STR_CAP = 4300  # CPython's default int-to-str digit cap


def test_rational_arithmetic():
    half = Q.element(Fraction(1, 2))
    third = Q.element(Fraction(1, 3))
    assert half + third == Q.element(Fraction(5, 6))
    assert half - third == Q.element(Fraction(1, 6))
    assert half * third == Q.element(Fraction(1, 6))
    assert half / third == Q.element(Fraction(3, 2))
    assert -half == Q.element(Fraction(-1, 2))


def test_prime_field_arithmetic():
    assert F7.element(3) * F7.element(5) == F7.one  # 15 mod 7
    assert F7.element(3) + F7.element(5) == F7.element(1)
    assert F7.element(2) - F7.element(5) == F7.element(4)
    assert F7.element(1) / F7.element(3) == F7.element(5)  # 3 * 5 = 15 = 1
    assert -F7.element(3) == F7.element(4)


def test_canonical_forms_idempotent():
    assert Q.element(Fraction(2, 4)) == Q.element(Fraction(1, 2))
    assert F7.element(-3) == F7.element(4)
    assert F7.element(72) == F7.element(2)
    v = Q.element(Fraction(-3, 9))
    assert Q.element(v) is v  # injection of an own element is a no-op


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F7.element(4) / F7.zero
    with pytest.raises(DivisionByZero):
        Q.one / Q.zero


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Q.one + F7.one
    with pytest.raises(FieldMismatch):
        F7.element(prime_field(11).one)
    for value in (True, 1.5):
        with pytest.raises(TypeError):
            Q.element(value)
    for mixed in (lambda: Q.one + 1, lambda: Q.one - 1, lambda: Q.one * 1,
                  lambda: Q.one / 1, lambda: 1 + Q.one, lambda: Q.one ** 1.5):
        with pytest.raises(TypeError):
            mixed()


def test_modulus_validation():
    with pytest.raises(InvalidModulus):
        prime_field(4)
    with pytest.raises(InvalidModulus):
        prime_field(1)
    with pytest.raises(InvalidModulus):
        prime_field(1763)  # 41 * 43: no witness divides it, Miller-Rabin refuses it
    with pytest.raises(InvalidModulus):
        prime_field(2**64 + 13)  # beyond the deterministic primality range
    prime_field(2)
    prime_field(2**61 - 1)  # Mersenne prime inside the range


def test_one_descriptor_per_field():
    assert FieldDescriptor(7) is F7 is prime_field(7) is parse_field_spec("fp:7")
    assert FieldDescriptor() is Q is parse_field_spec("q")
    assert prime_field(10007) is prime_field(10007) is not prime_field(10009)
    assert "__eq__" not in vars(FieldDescriptor) and "__hash__" not in vars(FieldDescriptor)


def test_copies_and_pickles_are_the_interned_field():
    for desc in (Q, F7, prime_field(2**61 - 1)):
        modulus = desc.modulus
        assert copy.copy(desc) is desc
        assert copy.deepcopy(desc) is desc
        assert pickle.loads(pickle.dumps(desc)) is desc
        value = desc.element(3)
        assert copy.deepcopy(value).descriptor is desc
        assert pickle.loads(pickle.dumps(value)) == value
        assert desc.modulus == modulus
    assert Q.modulus is None and Q.characteristic == 0 and Q.zero.payload == Fraction(0)


def test_a_rejected_modulus_is_never_cached():
    assert F7 is prime_field(7)  # F_7's entry exists, and 7.0 == 7
    before = dict(field._FIELDS)
    for bad in (4, 2**64, 7.0, True, "7", 1763):
        for _ in range(2):
            with pytest.raises(InvalidModulus):
                FieldDescriptor(bad)
    assert field._FIELDS == before
    assert all(type(k) is int for k in field._FIELDS if k is not None)


def test_two_threads_building_one_field_get_one_object(monkeypatch):
    p = 999999937
    assert p not in field._FIELDS
    barrier = threading.Barrier(2)
    is_prime = field._is_prime

    def both_miss(q):
        barrier.wait(timeout=10)  # both threads have missed the cache
        return is_prime(q)

    monkeypatch.setattr(field, "_is_prime", both_miss)
    built = [None, None]

    def build(i):
        built[i] = FieldDescriptor(p)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    monkeypatch.undo()
    assert built[0] is built[1] is prime_field(p)
    assert built[0].zero.descriptor is built[0]


def test_characteristic():
    assert Q.characteristic == 0
    assert F7.characteristic == 7
    assert prime_field(10007).characteristic == 10007


def test_parse_field_spec_round_trip():
    assert parse_field_spec("q") == Q
    assert parse_field_spec("fp:10007") == prime_field(10007)
    assert parse_field_spec(Q.spec_string()) == Q
    with pytest.raises(InvalidModulus):
        parse_field_spec("gf:7")
    with pytest.raises(InvalidModulus):
        parse_field_spec("fp:abc")


def test_value_string_round_trip():
    for text in ["5/6", "-3", "0", "-22/7"]:
        assert str(Q.from_str(text)) == str(Fraction(text))
    assert F7.from_str("-3") == F7.element(4)
    with pytest.raises(ValueError):
        Q.from_str("five")


def test_rationals_inject_into_prime_fields():
    assert F7.element("1/2") == F7.element(4)
    assert F7.from_str("-5/2") == F7.element(-5) / F7.element(2)
    assert F7.element(Fraction(3, 4)) == F7.element(3) / F7.element(4)
    assert F7.element(Fraction(14, 3)) == F7.zero
    for bad in ("1/7", Fraction(2, 21)):
        with pytest.raises(DivisionByZero):
            F7.element(bad)
    with pytest.raises(ValueError):
        F7.from_str("1/7")
    with pytest.raises(ValueError):
        F7.from_str("1/" + "7" * 5000)


def test_element_holds_strings_to_the_int_str_limit():
    """element refuses a Q string past the digit cap, as from_str does,
    before building its power of ten."""
    cap = sys.get_int_max_str_digits()
    for text in ("1e5000", "1e-5000"):
        with pytest.raises(ValueError, match=f"{cap}-digit input limit"):
            Q.element(text)
        with pytest.raises(ValueError, match=f"cannot parse '{text}'.*{cap}-digit input limit"):
            Q.from_str(text)
    assert Q.element(f"1e{cap - 1}") == Q.element(10 ** (cap - 1))


def _fraction_reading(F, text):
    """What element(text) gave when every text went through Fraction: the
    value, or the (type, message) of the error."""
    try:
        return F.element(Fraction(text))
    except ValueError as exc:
        return type(exc), str(exc)


def test_integer_texts_read_as_fraction_reads_them():
    """element and from_str read an integer text, on both fields and
    under caps 640 and 4300, as Fraction(text) read it: the same value, or
    the same error type and message, past the digit cap included."""
    texts = ["0", "-0", "+0", "00", "123456", "-123456", "+42", " 42 ", "\t-7\n",
             "  5 ", "1_000", "-1_0_0", "007", "-007", " +000_12 ",
             "1__000", "_1", "1_", "+-1", "- 1", "1 2", "", " ", "+", "0x10", "5\u200b",
             "\u00a0 5\u2003", "\x1c5\x1f"]
    cap = sys.get_int_max_str_digits()
    try:
        for limit in (640, DEFAULT_INT_STR_CAP):
            sys.set_int_max_str_digits(limit)
            for digits in (limit - 1, limit, limit + 1):
                texts += ["9" * digits, "-" + "8" * digits, "0" * digits + "1",
                          " " + "1_" * (digits - 1) + "1 "]
            for F in (Q, prime_field(1000003)):
                for text in texts:
                    expected = _fraction_reading(F, text)
                    if isinstance(expected, FieldValue):
                        assert F.element(text) == F.from_str(text) == expected, text
                        continue
                    with pytest.raises(expected[0]) as excinfo:
                        F.element(text)
                    assert str(excinfo.value) == expected[1]
                    with pytest.raises(ValueError, match="^cannot parse "):
                        F.from_str(text)
    finally:
        sys.set_int_max_str_digits(cap)
    assert prime_field(1000003).from_str(" -1_000_004 ").payload == 1000002
    assert Q.from_str("-007").payload == Fraction(-7)


def test_int_text_is_the_uncapped_str():
    """_int_text prints what str prints with the digit cap lifted, under
    any cap: random ints of 1 to 200k bits of both signs, 0, and 10^j,
    10^j - 1 and 10^j + 1 around the caps and the split points."""
    rng = random.Random(23)
    sizes = [1, 2, 64, 2126, 2127, 14283, 14284, 200_000]
    sizes += [int(2 ** rng.uniform(0, 17.6)) + 1 for _ in range(24)]
    values = [0] + [rng.getrandbits(bits) | 1 << (bits - 1) for bits in sizes]
    for j in (1, 319, 639, 640, 641, 1281, 2150, 4299, 4300, 4301, 8601, 30_000):
        values += [10**j - 1, 10**j, 10**j + 1]
    values += [-v for v in values]
    cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(v) for v in values]
        for limit in (640, DEFAULT_INT_STR_CAP, 0):
            sys.set_int_max_str_digits(limit)
            assert [_int_text(v) for v in values] == expected
    finally:
        sys.set_int_max_str_digits(cap)


def test_decimal_text_is_str_across_its_leaf():
    """_decimal_text prints what str prints below, at and above its leaf
    size, and for values that split at several levels."""
    rng = random.Random(29)
    leaf = field._DECIMAL_LEAF
    values = [1, 9, 10, 2**leaf - 1, 2**leaf, 2**leaf + 1, 10**400, 10**400 - 1]
    values += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (leaf + 1, 3 * leaf + 7, 60_001)]
    values += [-v for v in values]
    cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(v) for v in values]
        sys.set_int_max_str_digits(DEFAULT_INT_STR_CAP)
        assert [_decimal_text(v) for v in values] == expected
    finally:
        sys.set_int_max_str_digits(cap)


def test_values_print_past_the_int_str_limit():
    """str and repr of a Q value print its numerator and denominator at
    any size under the default cap, as the uncapped Fraction prints them,
    and leave the cap as it was."""
    big = 7**6000  # 5,071 digits
    fractions = [Fraction(big), Fraction(-big), Fraction(1, big), Fraction(-big, big + 2),
                 Fraction(big, 3), Fraction(-3, 7)]
    cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(value) for value in fractions]
        sys.set_int_max_str_digits(DEFAULT_INT_STR_CAP)
        values = [Q.element(value) for value in fractions]
        assert [str(v) for v in values] == expected
        assert [repr(v) for v in values] == [f"<{text} in q>" for text in expected]
        assert sys.get_int_max_str_digits() == DEFAULT_INT_STR_CAP
    finally:
        sys.set_int_max_str_digits(cap)


def _digits(draw, value: int) -> str:
    """value's decimal digits, with underscores drawn into some gaps; a
    leading, trailing or doubled underscore now and then, which no field
    accepts."""
    text = str(value)
    out = text[0]
    for digit in text[1:]:
        out += draw(st.sampled_from(["", "", "", "_"])) + digit
    return draw(st.sampled_from([out] * 6 + [f"_{out}", f"{out}_", out.replace("_", "__")]))


@st.composite
def rational_texts(draw):
    """Strings in the forms Fraction reads, "a/b", "a.b" and "a.be-c",
    padded and signed, and short junk over the same alphabet."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet="0123456789_+-./eE \t", max_size=10))
    whole = draw(st.integers(0, 10**30))
    form = draw(st.sampled_from(["integer", "ratio", "decimal", "exponent"]))
    body = _digits(draw, whole)
    if form == "ratio":
        body += "/" + _digits(draw, draw(st.integers(0, 10**20)))
    if form in ("decimal", "exponent") and draw(st.booleans()):
        body += "." + _digits(draw, draw(st.integers(0, 10**12)))
    if form == "exponent":
        exponent = draw(st.one_of(st.integers(-40, 40), st.integers(4250, 4350),
                                  st.integers(-4350, -4250)))
        body += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+"])) + str(exponent)
    sign = draw(st.sampled_from(["", "-", "+"]))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    return draw(pad) + sign + body + draw(pad)


@settings(max_examples=300, deadline=None)
@given(text=rational_texts(), p=st.sampled_from([2, 7, 101, 1000003, 2**61 - 1]))
def test_prime_fields_read_the_strings_the_rationals_read(text, p):
    """F_p accepts exactly the strings Q accepts, as Q's value mod p,
    except that a denominator divisible by p raises DivisionByZero."""
    F = prime_field(p)
    try:
        value = Q.from_str(text).payload
    except ValueError:
        with pytest.raises(ValueError):
            F.from_str(text)
        return
    if value.denominator % p == 0:
        with pytest.raises(ValueError) as excinfo:
            F.from_str(text)
        assert isinstance(excinfo.value.__cause__, DivisionByZero)
        return
    assert F.from_str(text).payload == value.numerator * pow(value.denominator, -1, p) % p


def test_parse_errors_quote_a_bounded_prefix():
    with pytest.raises(ValueError) as excinfo:
        F7.from_str("x" * 5000)
    message = str(excinfo.value)
    assert len(message) < 120 and "5000 characters" in message
    with pytest.raises(ValueError, match="'five'"):
        Q.from_str("five")


def _canonical(value) -> bool:
    """A Q payload is an int exactly when the value is an integer."""
    return (type(value.payload) is int) == (value.payload.denominator == 1)


def test_q_payloads_are_ints_exactly_for_integers():
    inputs = {6: 6, Fraction(6, 3): 2, "6/3": 2, "2.0": 2, "1e3": 1000, "-5/2": Fraction(-5, 2),
              " 7 ": 7, Fraction(1, 3): Fraction(1, 3)}
    for raw, expected in inputs.items():
        for value in (Q.element(raw.strip() if isinstance(raw, str) else raw),
                      Q.from_str(str(raw))):
            assert value.payload == expected and _canonical(value), raw
    assert type(Q.zero.payload) is type(Q.one.payload) is int
    assert type(Q.from_ints([5])[0].payload) is int


def test_q_arithmetic_keeps_payloads_canonical():
    half, third, six, three = (Q.from_str(t) for t in ("1/2", "1/3", "6", "3"))
    cases = [
        (half + half, 1), (half - half, 0), (half * Q.element(2), 1), (half / half, 1),
        (third + half, Fraction(5, 6)), (six / three, 2), (Q.one / three, Fraction(1, 3)),
        (six / half, 12), (half / six, Fraction(1, 12)), (-half, Fraction(-1, 2)), (-six, -6),
        (six * third, 2), (six - half, Fraction(11, 2)), (third * three, 1),
        (Q.element(Fraction(3, 2)) * Q.element(Fraction(2, 3)), 1),
        (binary_pow(half, 0), 1), (binary_pow(half, 3), Fraction(1, 8)),
        (binary_pow(six, 0), 1), (binary_pow(six, 2), 36), (binary_pow(-three, 3), -27),
    ]
    for value, expected in cases:
        assert value.payload == expected and _canonical(value), (value, expected)
    rng = random.Random(31)
    pool = [Q.element(Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4))))
            for _ in range(40)]
    for x in pool:
        for y in pool[:12]:
            results = [x + y, x - y, x * y, -x, binary_pow(x, rng.randrange(4))]
            if y:
                results.append(x / y)
            assert all(map(_canonical, results)), (x, y)


def test_q_entry_point_outputs_are_canonical():
    """Integer roots give int payloads only.  Rational roots at an integer
    delta (alpha = 1/2, beta = -1/2) give ints wherever the output is a
    function of delta alone: psres_all, leading_coefficient_sd and the
    pair-basis coefficients and prefactor of sres_bernstein."""
    from linsubres.fastsubres import (
        ProblemSpec, leading_coefficient_sd, sres_bernstein, sres_fast)
    from linsubres.poly import cofactors
    from linsubres.psres import psres_all

    for a, b in (("3", "-2"), ("0", "5"), ("1/2", "-1/2"), ("5/3", "-1/3"),
                 ("1/2", "-1/3"), ("-7/3", "2")):
        alpha, beta = Q.from_str(a), Q.from_str(b)
        of_delta, of_roots = list(psres_all(7, 5, alpha, beta)), []
        for d in range(4):
            spec = ProblemSpec(7, 5, d, alpha, beta)
            bern, pair = sres_bernstein(spec), cofactors(spec)
            of_delta += [*bern.coeffs, bern.prefactor, leading_coefficient_sd(spec)]
            of_roots += [*sres_fast(spec).coeffs, *pair.f.coeffs, *pair.g.coeffs]
        assert all(map(_canonical, of_delta + of_roots)), (a, b)
        ints = [type(v.payload) is int for v in of_delta + of_roots]
        if "/" not in a + b:
            assert all(ints), (a, b)
        elif (alpha - beta).payload.denominator == 1:
            assert all(ints[:len(of_delta)]) and not all(ints), (a, b)
        else:
            assert not all(ints), (a, b)


def test_int_payloads_print_past_the_int_str_limit():
    """str, repr, result_to_json and poly_to_json print an int payload of
    more than the default cap's digits as the uncapped str does."""
    from linsubres.fastsubres import ProblemSpec, result_to_json, sres_fast
    from linsubres.poly import DensePoly, poly_to_json

    big = 7**6000  # 5,071 digits
    cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(big), str(-big), str(big * 3 + 1)]
        power = str(18**10000)  # Sres_0 of (x-9)^100, (x+9)^100: 12,553 digits
        sys.set_int_max_str_digits(DEFAULT_INT_STR_CAP)
        values = [Q.element(big), -Q.element(big), Q.from_str("3") * Q.element(big) + Q.one]
        assert all(type(v.payload) is int for v in values)
        assert [str(v) for v in values] == expected
        assert [repr(v) for v in values] == [f"<{text} in q>" for text in expected]
        assert poly_to_json(DensePoly(Q, values))["coeffs"] == expected
        result = sres_fast(ProblemSpec(100, 100, 0, Q.element(9), Q.element(-9)))
        assert type(result.coeffs[0].payload) is int
        assert result_to_json(result)["coeffs"] == [power]
        assert sys.get_int_max_str_digits() == DEFAULT_INT_STR_CAP
    finally:
        sys.set_int_max_str_digits(cap)


def test_equality_and_hash():
    assert Q.element(2) == Q.element(Fraction(4, 2))
    assert hash(Q.element(2)) == hash(Q.element(Fraction(4, 2)))
    assert Q.element(2) != F7.element(2)
    assert Q.element(2) != 2  # no silent cross-type equality
    assert FieldDescriptor() == Q and (FieldDescriptor() == "q") is False
    assert not Q.zero and Q.one
    half = Q.from_str("1/2")
    for int_built, fraction_built in ((Q.element(2), half * Q.element(4)),
                                      (Q.one, half + half), (Q.zero, half - half),
                                      (Q.element(-3), Q.from_str("-6/2"))):
        assert int_built == fraction_built and hash(int_built) == hash(fraction_built)
        assert {int_built: 1}[fraction_built] == 1


def test_count_ops_basic():
    a, b = F7.element(3), F7.element(5)
    with count_ops() as ops:
        _ = a + b
        _ = a - b
        _ = a * b
        _ = a / b
        _ = -a
    assert (ops.adds, ops.muls, ops.divs, ops.negs) == (2, 1, 1, 1)
    assert ops.total() == 5


def test_count_ops_nested_scopes_stack():
    a = Q.element(3)
    with count_ops() as outer:
        _ = a * a
        with count_ops() as inner:
            _ = a + a
        _ = a * a
    assert (inner.adds, inner.muls) == (1, 0)
    assert (outer.adds, outer.muls) == (1, 2)


def test_count_ops_scope_isolation():
    a = Q.element(3)
    with count_ops() as ops:
        _ = a * a
    snapshot = ops.snapshot()
    _ = a * a  # outside the scope: must not count
    assert ops == snapshot


def test_inverse_is_one_division():
    a = prime_field(10007).element(1234)
    one = prime_field(10007).one
    with count_ops() as ops:
        inv = one / a
    assert ops.divs == 1 and ops.muls == 0
    assert inv * a == one


def test_binary_pow_values():
    assert binary_pow(Q.element(2), 10) == Q.element(1024)
    assert binary_pow(prime_field(5).element(3), 4) == prime_field(5).one
    assert binary_pow(Q.element(7), 0) == Q.one
    assert binary_pow(Q.zero, 0) == Q.one  # 0**0 = 1 by convention
    assert binary_pow(Q.zero, 5) == Q.zero
    with pytest.raises(ValueError):
        binary_pow(Q.element(2), -1)


def test_binary_pow_multiplication_bound():
    base = prime_field(10007).element(3)
    previous = None
    for e in range(1, 260):
        with count_ops() as ops:
            binary_pow(base, e)
        assert ops.muls <= 2 * e.bit_length() - 1
        if previous is not None and e % 2 == 0:
            with count_ops() as half:
                binary_pow(base, e // 2)
            assert ops.muls <= half.muls + 2  # doubling adds at most two
        previous = e


def _square_and_multiply_muls(exponent):
    """The multiplications of the right-to-left square-and-multiply loop."""
    muls, started = 0, False
    while exponent:
        if exponent & 1:
            muls += started
            started = True
        exponent >>= 1
        muls += exponent > 0
    return muls


@pytest.mark.parametrize("base", [
    Q.element(-13), Q.element(Fraction(-7, 3)), Q.zero,
    prime_field(1000003).element(12345), prime_field(7).zero,
])
def test_binary_pow_is_the_builtin_power_credited_by_square_and_multiply(base):
    descriptor = base.descriptor
    for e in range(301):
        with count_ops() as outer:
            with count_ops() as inner:
                value = binary_pow(base, e)
        expected = pow(base.payload, e, descriptor.modulus)
        assert value.descriptor is descriptor and value.payload == expected
        assert type(value.payload) is (int if value.payload.denominator == 1 else Fraction)
        assert binary_pow_muls(e) == _square_and_multiply_muls(e)
        assert inner == outer == OpCounter(muls=binary_pow_muls(e))
    with pytest.raises(TypeError):
        binary_pow(base, True)
    with pytest.raises(TypeError):
        binary_pow(base, 2.0)
    with pytest.raises(ValueError):
        binary_pow(base, -1)
    assert base ** 5 == binary_pow(base, 5)


def test_opcounter_json_shape():
    with count_ops() as ops:
        _ = -(Q.element(2) * Q.element(3))
    assert ops.as_dict() == {"add": 0, "mul": 1, "div": 0, "neg": 1}
    assert repr(ops) == "OpCounter(adds=0, muls=1, divs=0, negs=1)"
    assert (OpCounter() == 0) is False  # NotImplemented, then identity


elements = st.integers(min_value=-50, max_value=50)


@settings(max_examples=80, deadline=None)
@given(a=elements, b=elements, c=elements)
def test_field_axioms_rationals(a, b, c):
    x, y, z = Q.element(a), Q.element(b), Q.element(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x - x == Q.zero
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=80, deadline=None)
@given(a=elements, b=elements, c=elements)
def test_field_axioms_prime(a, b, c):
    x, y, z = F7.element(a), F7.element(b), F7.element(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y - z) == x * y - x * z
    assert x + (-x) == F7.zero
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=60, deadline=None)
@given(a=elements)
def test_negation_counts_separately(a):
    x = Q.element(a)
    with count_ops() as ops:
        _ = -x
    assert ops.negs == 1 and ops.adds == 0


def test_field_value_repr_mentions_field():
    assert "fp:7" in repr(F7.element(3))
    assert isinstance(F7.element(3), FieldValue)


def _inverse_by_extended_euclid(a: int, p: int) -> int:
    old_r, r = a, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_s % p


@pytest.mark.parametrize("p", [7, 10007, 1000003, 2**61 - 1, 2**64 - 59])
def test_division_matches_the_extended_euclid_inverse(p):
    F = prime_field(p)
    rng = random.Random(p)
    samples = [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(200)]
    for a in samples:
        b = rng.randrange(p)
        with count_ops() as counter:
            quotient = F.element(b) / F.element(a)
        assert quotient.payload == b * _inverse_by_extended_euclid(a, p) % p
        assert (counter.divs, counter.muls) == (1, 0)
