"""Exact coefficient fields (Q and F_p) with arithmetic-operation counting.

Each field is one FieldDescriptor object, interned by its modulus, so
values share a field exactly when their descriptors are one object.

Every +, -, *, / on a FieldValue increments whatever OpCounter scopes are
active on the current context, and a power (binary_pow) credits the
multiplications of square and multiply.  Counting costs one ContextVar
read per operation when no scope is active, so the fast paths stay usable
inside the cubic-cost determinant oracle.

A payload is a residue int over F_p.  Over Q it is an int when the value
is an integer, otherwise a Fraction, whose denominator is then > 1:
every Q payload but the int result of int arithmetic goes through the
one normaliser, _rational.  fractions (and with it decimal and numbers)
is imported on the first value that is not an integer, by _fraction or
the branch that reads one, so a process whose inputs and outputs are
integers, over F_p or over Q, never loads it.
"""

import sys
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import repeat

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidModulus,
    PreconditionError,
)

__all__ = [
    "FieldDescriptor",
    "FieldValue",
    "OpCounter",
    "count_ops",
    "binary_pow",
    "binary_pow_muls",
    "credit_ops",
    "rationals",
    "prime_field",
    "parse_field_spec",
]


# Witness set proving primality for every integer below 3.3 * 10**24,
# which covers the full supported modulus range [2, 2**64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p == q:
            return True
        if p % q == 0:
            return False
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class OpCounter:
    """Monotone tally of field operations: adds (incl. subtractions),
    muls, divs, and unary negations."""

    __slots__ = ("adds", "muls", "divs", "negs")

    def __init__(self, adds: int = 0, muls: int = 0, divs: int = 0, negs: int = 0):
        self.adds = adds
        self.muls = muls
        self.divs = divs
        self.negs = negs

    def total(self) -> int:
        return self.adds + self.muls + self.divs + self.negs

    def snapshot(self) -> "OpCounter":
        return OpCounter(self.adds, self.muls, self.divs, self.negs)

    def as_dict(self) -> dict:
        """JSON shape used by the CLI: additions, multiplications, divisions,
        negations."""
        return {"add": self.adds, "mul": self.muls, "div": self.divs, "neg": self.negs}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpCounter):
            return NotImplemented
        return (self.adds, self.muls, self.divs, self.negs) == (
            other.adds,
            other.muls,
            other.divs,
            other.negs,
        )

    def __repr__(self) -> str:
        return (
            f"OpCounter(adds={self.adds}, muls={self.muls}, "
            f"divs={self.divs}, negs={self.negs})"
        )


# Stack of active counters.  A tuple so that nested scopes copy cheaply and
# threads started fresh see an empty stack.
_counters: ContextVar[tuple] = ContextVar("linsubres_op_counters", default=())
_new = object.__new__  # _new(cls): an instance whose slots the caller sets


@contextmanager
def count_ops() -> "Iterator[OpCounter]":
    """Activate a fresh OpCounter for the dynamic extent of the block.

    Scopes nest: an operation inside two nested scopes increments both
    counters, so library entry points can keep private tallies without
    hiding work from an enclosing caller's scope.
    """
    counter = OpCounter()
    token = _counters.set(_counters.get() + (counter,))
    try:
        yield counter
    finally:
        _counters.reset(token)


def credit_ops(adds: int = 0, muls: int = 0, divs: int = 0, negs: int = 0) -> None:
    """Add a tally to every active scope, for work done outside FieldValue
    arithmetic that stands for exactly those field operations."""
    for c in _counters.get():
        c.adds += adds
        c.muls += muls
        c.divs += divs
        c.negs += negs


def _int_digit_cap() -> int:
    """The interpreter's int-to-str digit cap; 0 when there is none."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    return getter() if getter else 0


# Leaves of this many bits or fewer go to Decimal(int) in _decimal_text.
_DECIMAL_LEAF = 1024


def _int_text(n: int) -> str:
    """str(n) at any size, without lifting the int-to-str digit cap: the
    cap guards parsing against quadratic-time denial of service, and
    output needs no exemption from it.  Past the cap, _decimal_text
    prints n."""
    try:
        return str(n)
    except ValueError:
        return _decimal_text(n)


def _decimal_text(n: int) -> str:
    """str(n) by divide and conquer in decimal: D(n) = D(high) * 2^k +
    D(low) for n = high * 2^k + low, k half n's bits, down to leaves that
    Decimal(int) converts, in an exact context (Inexact traps).  libmpdec
    multiplies big operands by number-theoretic transforms, so this is
    subquadratic where str() is quadratic.  decimal is imported here, so
    only a Q output past the digit cap loads it."""
    import decimal

    Decimal = decimal.Decimal
    powers = {}  # 2^k by k: one recursion level splits at one or two k

    def convert(value: int, bits: int) -> "decimal.Decimal":
        if bits <= _DECIMAL_LEAF:
            return Decimal(value)
        k = bits >> 1
        if k not in powers:
            powers[k] = Decimal(2) ** k
        high = value >> k
        return convert(high, bits - k) * powers[k] + convert(value - (high << k), k)

    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _fraction(*args) -> "Fraction":
    """Fraction(*args).  The first call imports fractions and rebinds this
    name to Fraction itself: a process whose values are all integers
    never loads fractions (nor decimal and numbers, which it imports), and
    one with rationals pays for the import once, not per value."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(*args)


def _rational(num, den=1) -> "int | Fraction":
    """num / den as a Q payload, for ints or Fractions num and den != 0:
    an int when the quotient is an integer, otherwise a Fraction (with
    denominator > 1).  int / int is an exact divmod, so it imports
    fractions only when den does not divide num."""
    if den != 1:
        if type(num) is int and type(den) is int:
            quotient, rest = divmod(num, den)
            return _fraction(num, den) if rest else quotient
        num = num / den
    return num if type(num) is int or num.denominator != 1 else num.numerator


def _parse_rational(text: str) -> "int | Fraction":
    """Fraction(text), the string reader of both fields, refusing, as
    int(text) does, a numerator or denominator past the int-to-str digit
    cap while there is one.  An exponent form ("1e5000") above cap +
    len(text) is refused before its power of ten is built: no value it
    gives but zero fits the cap.  A text without "/" or "." is tried by
    int(text) first: int takes the same integer forms as Fraction (sign,
    spaces, underscores, leading zeros) in a fifth of the time, and a
    text it refuses, past the cap included, goes on to Fraction, which
    raises the error it always raised."""
    if "/" not in text and "." not in text:
        try:
            return int(text)
        except ValueError:
            pass
    cap = _int_digit_cap()
    if cap:
        _, mark, exponent = text.strip().lower().partition("e")
        if mark and abs(int(exponent)) > cap + len(text):
            raise PreconditionError(f"an exponent past the {cap}-digit input limit")
    value = _fraction(text)
    if cap:
        big = max(abs(value.numerator), value.denominator)
        # a b-bit big is below 2^b <= 10^cap while 10 b <= 33 cap
        if big.bit_length() * 10 > cap * 33 and big >= 10**cap:
            raise PreconditionError(
                f"a numerator or denominator past the {cap}-digit input limit")
    return value


class FieldDescriptor:
    """A concrete coefficient field, named by its modulus: None for the
    rationals, a prime p < 2**64 for F_p.  There is one descriptor per
    field, compared by identity: FieldDescriptor(p) returns the object
    every earlier call returned, and so do copy, deepcopy and pickle.
    The modulus's type and range are checked before the lookup, its
    primality only when the field is new."""

    __slots__ = ("modulus", "characteristic", "zero", "one")

    def __new__(cls, modulus: int | None = None):
        if modulus is not None:
            if not isinstance(modulus, int) or modulus < 2:
                raise InvalidModulus(f"modulus must be an integer >= 2, got {modulus!r}")
            if modulus >= 2**64:
                raise InvalidModulus(f"modulus {modulus} is >= 2**64")
        field = _FIELDS.get(modulus)
        if field is not None:
            return field
        if modulus is not None and not _is_prime(modulus):
            raise InvalidModulus(f"modulus {modulus} is not prime")
        field = super().__new__(cls)
        field.modulus = modulus
        field.characteristic = modulus or 0
        field.zero, field.one = field.from_ints((0, 1))
        # two threads that build one new field both get the first stored
        return _FIELDS.setdefault(modulus, field)

    def __reduce__(self):
        return FieldDescriptor, (self.modulus,)

    def element(self, value) -> "FieldValue":
        """Canonical injection of an int, a Fraction or a string.  Every
        string is read by _parse_rational, so both fields take the same
        forms ("3", "-5/2", "2.5", "1e5", with sign, spaces and
        underscores) under the same int-to-str digit cap.  Over F_p a
        rational a/b is a * b^-1, and a b divisible by p raises
        DivisionByZero.  Idempotent on FieldValues of this same field.
        An int over F_p is reduced mod p before anything else, and
        fractions is imported only for a rational input."""
        if isinstance(value, FieldValue):
            if value.descriptor != self:
                raise FieldMismatch(f"value from {value.descriptor} injected into {self}")
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a field element")
        if isinstance(value, str):
            value = _parse_rational(value)
        p = self.modulus
        if isinstance(value, int):
            return FieldValue(self, value % p if p else int(value))
        from fractions import Fraction

        if not isinstance(value, Fraction):
            raise TypeError(f"cannot inject {type(value).__name__} into {self}")
        if p is None:
            return FieldValue(self, _rational(value))
        if value.denominator % p == 0:
            raise DivisionByZero(f"denominator divisible by {p}")
        return FieldValue(self, value.numerator * pow(value.denominator, -1, p) % p)

    def from_ints(self, values) -> tuple:
        """Wrap canonical payloads, unchecked: ints over Q, residues
        already in [0, p) over F_p (the output of an integer kernel)."""
        return tuple(map(FieldValue, repeat(self), values))

    def from_str(self, text: str) -> "FieldValue":
        """element(text.strip()), with a ValueError that names the text,
        and the limit when the value is past the digit cap."""
        try:
            return self.element(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            shown = repr(text)
            if len(text) > 40:
                shown = f"{text[:40]!r}... ({len(text)} characters)"
            reason = f": {exc}" if isinstance(exc, PreconditionError) else ""
            raise ValueError(f"cannot parse {shown} as an element of {self}{reason}") from exc

    def spec_string(self) -> str:
        return "q" if self.modulus is None else f"fp:{self.modulus}"

    def __repr__(self) -> str:
        return f"FieldDescriptor({self.spec_string()!r})"


class FieldValue:
    """Immutable element of a FieldDescriptor.

    The payload is canonical: over Q an int when the value is an integer,
    otherwise a normalized Fraction with denominator > 1; a residue in
    [0, p) over F_p.  Construct through FieldDescriptor.element.

    The operators keep one op's cost at its floor: an identity test of
    the fields, one ContextVar read, and a result built by _new rather
    than an __init__ call."""

    __slots__ = ("descriptor", "payload")

    def __init__(self, descriptor: FieldDescriptor, payload: "int | Fraction"):
        self.descriptor = descriptor
        self.payload = payload

    def is_zero(self) -> bool:
        return self.payload == 0

    def _mismatch(self, other: "FieldValue") -> FieldMismatch:
        return FieldMismatch(
            f"mixed fields: {self.descriptor.spec_string()} and "
            f"{other.descriptor.spec_string()}"
        )

    def __add__(self, other: "FieldValue") -> "FieldValue":
        if not isinstance(other, FieldValue):
            return NotImplemented
        d = self.descriptor
        if other.descriptor is not d:
            raise self._mismatch(other)
        counters = _counters.get()
        if counters:
            for c in counters:
                c.adds += 1
        if d.modulus is None:
            value = self.payload + other.payload
            if type(value) is not int:
                value = _rational(value)
        else:
            value = (self.payload + other.payload) % d.modulus
        result = _new(FieldValue)
        result.descriptor = d
        result.payload = value
        return result

    def __sub__(self, other: "FieldValue") -> "FieldValue":
        if not isinstance(other, FieldValue):
            return NotImplemented
        d = self.descriptor
        if other.descriptor is not d:
            raise self._mismatch(other)
        counters = _counters.get()
        if counters:
            for c in counters:
                c.adds += 1
        if d.modulus is None:
            value = self.payload - other.payload
            if type(value) is not int:
                value = _rational(value)
        else:
            value = (self.payload - other.payload) % d.modulus
        result = _new(FieldValue)
        result.descriptor = d
        result.payload = value
        return result

    def __mul__(self, other: "FieldValue") -> "FieldValue":
        if not isinstance(other, FieldValue):
            return NotImplemented
        d = self.descriptor
        if other.descriptor is not d:
            raise self._mismatch(other)
        counters = _counters.get()
        if counters:
            for c in counters:
                c.muls += 1
        if d.modulus is None:
            value = self.payload * other.payload
            if type(value) is not int:
                value = _rational(value)
        else:
            value = self.payload * other.payload % d.modulus
        result = _new(FieldValue)
        result.descriptor = d
        result.payload = value
        return result

    def __truediv__(self, other: "FieldValue") -> "FieldValue":
        if not isinstance(other, FieldValue):
            return NotImplemented
        d = self.descriptor
        if other.descriptor is not d:
            raise self._mismatch(other)
        if other.payload == 0:
            raise DivisionByZero(f"division by zero in {d.spec_string()}")
        counters = _counters.get()
        if counters:
            for c in counters:
                c.divs += 1
        if d.modulus is None:
            value = _rational(self.payload, other.payload)
        else:
            value = self.payload * pow(other.payload, -1, d.modulus) % d.modulus
        result = _new(FieldValue)
        result.descriptor = d
        result.payload = value
        return result

    def __neg__(self) -> "FieldValue":
        counters = _counters.get()
        if counters:
            for c in counters:
                c.negs += 1
        d = self.descriptor
        result = _new(FieldValue)
        result.descriptor = d
        result.payload = -self.payload if d.modulus is None else -self.payload % d.modulus
        return result

    def __pow__(self, exponent: int) -> "FieldValue":
        return binary_pow(self, exponent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldValue):
            return NotImplemented
        return self.descriptor == other.descriptor and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.descriptor, self.payload))

    def __bool__(self) -> bool:
        return self.payload != 0

    def __str__(self) -> str:
        try:
            return str(self.payload)
        except ValueError:  # only a Q payload, int or Fraction, grows past the digit cap
            text = _int_text(self.payload.numerator)
            if self.payload.denominator == 1:
                return text
            return f"{text}/{_int_text(self.payload.denominator)}"

    def __repr__(self) -> str:
        return f"<{self} in {self.descriptor.spec_string()}>"


_FIELDS: dict = {}  # the one FieldDescriptor of each field built so far, by modulus


def rationals() -> FieldDescriptor:
    return FieldDescriptor()


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(p)


def parse_field_spec(text: str) -> FieldDescriptor:
    """Parse "q" or "fp:<prime>"."""
    text = text.strip().lower()
    if text == "q":
        return rationals()
    if text.startswith("fp:"):
        try:
            p = int(text[3:], 10)
        except ValueError as exc:
            raise InvalidModulus(f"bad field spec {text!r}") from exc
        return prime_field(p)
    raise InvalidModulus(f"unknown field spec {text!r}; expected 'q' or 'fp:<prime>'")


def binary_pow(base: FieldValue, exponent: int) -> FieldValue:
    """base**exponent by the builtin power: pow(payload, e, p) over F_p,
    payload ** e over Q (a Fraction power needs no gcd, and is an integer
    only at e = 0).

    Every active count_ops scope is credited with binary_pow_muls(e), the
    multiplications of square and multiply: at most 2*floor(log2(e)) + 1
    for e >= 1, so doubling the exponent adds at most two.  exponent = 0
    returns one, including 0**0 = 1 (the empty-product convention used
    throughout the package).
    """
    if not isinstance(exponent, int) or isinstance(exponent, bool):
        raise TypeError("exponent must be an int")
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    muls = binary_pow_muls(exponent)
    for c in _counters.get():
        c.muls += muls
    d = base.descriptor
    if d.modulus is None:
        value = base.payload ** exponent
        return FieldValue(d, value if type(value) is int else _rational(value))
    return FieldValue(d, pow(base.payload, exponent, d.modulus))


def binary_pow_muls(exponent: int) -> int:
    """The multiplications square and multiply spends on base**exponent:
    floor(log2(e)) squarings and one fewer multiplication than e has set
    bits; the tally binary_pow credits."""
    return max(exponent.bit_length() - 1, 0) + max(bin(exponent).count("1") - 1, 0)
