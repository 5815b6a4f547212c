"""Dense univariate polynomials and the structured problem statement.

The determinant-definition oracles that check the fast algorithms live in
linsubres.check.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import FieldMismatch, PreconditionError
from .field import FieldDescriptor, FieldValue

__all__ = [
    "DensePoly",
    "ProblemSpec",
    "power_of_linear",
    "poly_to_json",
]


class DensePoly:
    """Immutable dense polynomial; coeffs[i] is the coefficient of x**i.

    Trailing zeros are stripped on construction, so equal polynomials have
    equal coefficient tuples.  The zero polynomial has degree -1.
    """

    __slots__ = ("descriptor", "coeffs")

    def __init__(self, descriptor: FieldDescriptor, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, FieldValue):
                raise TypeError("coefficients must be FieldValues")
            if c.descriptor != descriptor:
                raise FieldMismatch("coefficient from a different field")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.descriptor = descriptor
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, descriptor: FieldDescriptor) -> "DensePoly":
        return cls(descriptor, ())

    @classmethod
    def one(cls, descriptor: FieldDescriptor) -> "DensePoly":
        return cls(descriptor, (descriptor.one,))

    @classmethod
    def constant(cls, value: FieldValue) -> "DensePoly":
        return cls(value.descriptor, (value,))

    @classmethod
    def from_integers(cls, descriptor: FieldDescriptor, ints) -> "DensePoly":
        return cls(descriptor, [descriptor.element(i) for i in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> FieldValue:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.descriptor.zero

    def leading(self) -> FieldValue:
        if not self.coeffs:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "DensePoly") -> "DensePoly":
        if not isinstance(other, DensePoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return DensePoly(self.descriptor, out)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        if not isinstance(other, DensePoly):
            return NotImplemented
        out = [
            self.coeff(i) - other.coeff(i)
            for i in range(max(len(self.coeffs), len(other.coeffs)))
        ]
        return DensePoly(self.descriptor, out)

    def __neg__(self) -> "DensePoly":
        return DensePoly(self.descriptor, [-c for c in self.coeffs])

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        if not isinstance(other, DensePoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return DensePoly.zero(self.descriptor)
        out = [self.descriptor.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return DensePoly(self.descriptor, out)

    def scale(self, value: FieldValue) -> "DensePoly":
        if value.is_zero():
            return DensePoly.zero(self.descriptor)
        return DensePoly(self.descriptor, [c * value for c in self.coeffs])

    def evaluate(self, point: FieldValue) -> FieldValue:
        acc = self.descriptor.zero
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "DensePoly":
        d = self.descriptor
        return DensePoly(
            d, [d.element(i) * c for i, c in enumerate(self.coeffs) if i > 0]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.descriptor == other.descriptor and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.descriptor, self.coeffs))

    def __repr__(self) -> str:
        return f"DensePoly({self.descriptor.spec_string()}, [{', '.join(map(str, self.coeffs))}])"


class ProblemSpec(namedtuple("ProblemSpec", "m n d alpha beta")):
    """The structured input pair: f = (x - alpha)^m, g = (x - beta)^n,
    and the subresultant index d with 0 <= d < min(m, n)."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, d: int, alpha: FieldValue, beta: FieldValue):
        for name, v in (("m", m), ("n", n), ("d", d)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise PreconditionError(f"{name} must be an int, got {v!r}")
        if m < 1 or n < 1:
            raise PreconditionError(f"need m, n >= 1, got m={m}, n={n}")
        if not 0 <= d < min(m, n):
            raise PreconditionError(f"need 0 <= d < min(m, n) = {min(m, n)}, got d={d}")
        if not isinstance(alpha, FieldValue) or not isinstance(beta, FieldValue):
            raise PreconditionError("alpha and beta must be FieldValues")
        if alpha.descriptor != beta.descriptor:
            raise FieldMismatch("alpha and beta live in different fields")
        return super().__new__(cls, m, n, d, alpha, beta)

    @property
    def descriptor(self) -> FieldDescriptor:
        return self.alpha.descriptor


def power_of_linear(alpha: FieldValue, e: int) -> DensePoly:
    """(x - alpha)**e expanded in the monomial basis.

    Binomial coefficients come from integer arithmetic and are injected,
    so the expansion works in every characteristic.
    """
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    descriptor = alpha.descriptor
    if e == 0:
        return DensePoly.one(descriptor)
    neg = -alpha
    powers = [descriptor.one]
    for _ in range(e):
        powers.append(powers[-1] * neg)
    coeffs = []
    for i in range(e + 1):
        c = math.comb(e, i)
        if c == 1:
            coeffs.append(powers[e - i])
        else:
            coeffs.append(descriptor.element(c) * powers[e - i])
    return DensePoly(descriptor, coeffs)


def poly_to_json(poly: DensePoly) -> dict:
    return {
        "field": poly.descriptor.spec_string(),
        "coeffs": [str(c) for c in poly.coeffs],
    }
