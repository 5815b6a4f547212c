"""Dense univariate polynomials, and the Bezout cofactors, whose output
they are.

Only a request for cofactors loads this module: a subresultant is
coefficients on a basis (fastsubres.SubresResult), and DensePoly.of
turns a monomial one into a polynomial.  The cofactors are scaled
pair-basis expansions, quadratic in their degrees.  The
determinant-definition oracles that check the fast algorithms live in
linsubres.check.
"""

import math
from collections import namedtuple

from .errors import BasisMismatch, FieldMismatch, PreconditionError
from .fastsubres import (
    Basis,
    ProblemSpec,
    SubresResult,
    _checked_case,
    _credit_ratio_chain,
    _factorial_ratio_ints,
)
from .field import FieldDescriptor, FieldValue, binary_pow, credit_ops

__all__ = [
    "DensePoly",
    "CofactorPair",
    "power_of_linear",
    "poly_to_json",
    "pair_basis_coeffs",
    "expand_pair_basis",
    "cofactors",
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
    def of(cls, result: SubresResult) -> "DensePoly":
        """A monomial-basis subresultant as a polynomial."""
        if result.basis is not Basis.MONOMIAL:
            raise BasisMismatch("DensePoly.of needs monomial coefficients; "
                                "call sres_fast(result.spec)")
        return cls(result.spec.descriptor, result.coeffs)

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


class CofactorPair(namedtuple("CofactorPair", "spec f g case")):
    """Bezout cofactors: f_cof * (x-alpha)^m + g_cof * (x-beta)^n = Sres_d,
    with deg f_cof < n - d and deg g_cof < m - d."""

    __slots__ = ()


def expand_pair_basis(coeffs, alpha: FieldValue, beta: FieldValue) -> DensePoly:
    """Expand sum_j coeffs[j] (x - alpha)^j (x - beta)^(r-j), r = len - 1,
    into the monomial basis in O(r^2) field operations."""
    if not coeffs:
        raise PreconditionError("need at least one coefficient")
    descriptor = alpha.descriptor
    r = len(coeffs) - 1
    x_minus_alpha = DensePoly(descriptor, (-alpha, descriptor.one))
    x_minus_beta = DensePoly(descriptor, (-beta, descriptor.one))
    beta_power = DensePoly.one(descriptor)  # (x - beta)^(r - t) in the loop
    acc = DensePoly.constant(coeffs[r])
    for t in range(r - 1, -1, -1):
        acc = acc * x_minus_alpha
        beta_power = beta_power * x_minus_beta
        if not coeffs[t].is_zero():
            acc = acc + beta_power.scale(coeffs[t])
    return acc


def pair_basis_coeffs(r: int, k: int, l: int, descriptor: FieldDescriptor) -> list:
    """Coefficients t_j of (beta-alpha)^r P_r^{(k,l)}(z) on the basis
    (x-alpha)^j (x-beta)^(r-j), where z = (2x-alpha-beta)/(beta-alpha):

        t_j = C(k+r, j) * C(l+r, r-j)

    as field images of generalized binomials, C(a, j) = (-1)^j C(j-a-1, j)
    for a negative top a.  The t_j are integers, computed exactly and
    injected once, so every characteristic has them.  Credits the tally of
    the ratio chain t_{j+1} = t_j (k+r-j)(r-j) / ((j+1)(l+j+1)) seeded at
    t_0 = C(l+r, r): 2r multiplications and 2r divisions.
    """
    if r < 0:
        raise PreconditionError(f"degree must be nonnegative, got {r}")
    credit_ops(muls=2 * r, divs=2 * r)
    return [descriptor.element(_comb(k + r, j) * _comb(l + r, r - j)) for j in range(r + 1)]


def _comb(a: int, j: int) -> int:
    """The generalized binomial C(a, j) for an integer a of either sign."""
    return math.comb(a, j) if a >= 0 else (-1) ** j * math.comb(j - a - 1, j)


def cofactors(spec: ProblemSpec) -> CofactorPair:
    """The Bezout cofactors (F, G) with F f + G g = Sres_d, deg F < n-d,
    deg G < m-d.  Both are scaled shifted Jacobi polynomials,

        F = (-1)^(m+d)   delta^((m-d-1)(n-d-1)) T * [pair basis of P_{n-d-1}^{(-n,m)}],
        G = (-1)^(m+d+1) delta^((m-d-1)(n-d-1)) T * [pair basis of P_{m-d-1}^{(n,-m)}],

    where T = prod_{i=1}^{d} i! (m+n-d-i-1)! / ((m-i)! (n-i)!) is one
    factorial_ratio, credited as the ratio chain seeded at
    t_d = d! C(m+n-2d-1, m-d) / (n-d), and the pair-basis coefficients
    are integers (pair_basis_coeffs).  One formula for every supported
    characteristic: T's denominators are units for p >= max(m, n), so the
    formula reduced mod p is the determinantal answer.  In the vanishing
    band (m+n-d-2)! contains p and T = 0, so F = G = 0.

    Over Q each T t_j is an integer: at alpha = 1, beta = 0 the cofactors
    are integer polynomials, and their basis (x-1)^j x^(r-j) is unimodular
    (triangular against the x^(r-j), with diagonal (-1)^j).  So T goes
    into the t_j by exact integer division, credited as the one
    multiplication scale * T it replaces, and integer roots give ints
    throughout, with the same values and op count.
    """
    case = _checked_case(spec)
    descriptor = spec.descriptor
    p = descriptor.characteristic
    m, n, d = spec.m, spec.n, spec.d
    delta = spec.alpha - spec.beta
    scale = binary_pow(delta, (m - d - 1) * (n - d - 1))
    num = den = 1  # T = num / den
    if d >= 1:
        _credit_ratio_chain(d, min(m - d, n - d - 1), d - 1, seed_divs=1)
        # not principal_ratio(m, n, d) * d! (m+n-2d-1)! / (m+n-d-1)!: that
        # quotient has p in its denominator in the vanishing band
        num, den = _factorial_ratio_ints(
            [range(1, d + 1), range(m + n - 2 * d - 1, m + n - d - 1)],
            [range(m - d, m), range(n - d, n)], p)
    f_basis = pair_basis_coeffs(n - d - 1, -n, m, descriptor)
    g_basis = pair_basis_coeffs(m - d - 1, n, -m, descriptor)
    if p:
        base = scale * FieldValue(descriptor, num * pow(den, -1, p) % p)
    else:
        base = scale
        credit_ops(muls=1)
        f_basis, g_basis = (descriptor.from_ints([t.payload * num // den for t in basis])
                            for basis in (f_basis, g_basis))
    f_cof = expand_pair_basis(f_basis, spec.alpha, spec.beta).scale(base)
    g_cof = expand_pair_basis(g_basis, spec.alpha, spec.beta).scale(base)
    if (m + d) % 2:
        f_cof = -f_cof
    else:
        g_cof = -g_cof
    return CofactorPair(spec=spec, f=f_cof, g=g_cof, case=case)
