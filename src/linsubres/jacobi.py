"""Reference routes for Jacobi polynomials with integer parameters, over
exact fields: only linsubres.check imports this module, so no request loads it.

Two independent evaluation routes (terminating hypergeometric sum and
iterated-derivative form) cross-check each other, shifted_jacobi gives the
pair-basis form that subresultants of (x - alpha)^m and (x - beta)^n are
multiples of, and hyp2f1_poly and verify_pade_identity check the Pade link.
The reference combinatorics, binomial, pochhammer and falling_product,
are counted FieldValue products: integer parameters stay in Z, and only
the values that enter the arithmetic are injected into the field.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .errors import CharacteristicError, CoincidentRoots, PreconditionError
from .fastsubres import ProblemSpec, sres_fast
from .field import FieldDescriptor, FieldValue
from .poly import DensePoly, cofactors, expand_pair_basis, power_of_linear

__all__ = [
    "JacobiParams",
    "jacobi_hypergeometric",
    "jacobi_rodrigues",
    "shifted_jacobi",
    "hyp2f1_poly",
    "verify_pade_identity",
    "binomial",
    "pochhammer",
    "falling_product",
]


class JacobiParams(namedtuple("JacobiParams", "r k l")):
    """Degree r >= 0 and integer parameters (k, l), both allowed negative."""

    __slots__ = ()

    def __new__(cls, r: int, k: int, l: int):
        if not isinstance(r, int) or r < 0:
            raise PreconditionError(f"degree must be a nonnegative int, got {r!r}")
        if not isinstance(k, int) or not isinstance(l, int):
            raise PreconditionError("parameters k and l must be ints")
        return super().__new__(cls, r, k, l)


def jacobi_hypergeometric(params: JacobiParams, descriptor: FieldDescriptor) -> DensePoly:
    """P_r^{(k,l)}(x) via the terminating sum

        sum_j  (k+r-j+1)_j / j!  *  (l+j+1)_{r-j} / (r-j)!
               * ((x-1)/2)^{r-j} * ((x+1)/2)^j.

    Needs characteristic != 2 (the halves) and characteristic 0 or > r
    (divisions by j! and (r-j)!).
    """
    r, k, l = params.r, params.k, params.l
    p = descriptor.characteristic
    if p == 2:
        raise CharacteristicError("jacobi_hypergeometric needs characteristic != 2")
    if p and r >= p:
        raise CharacteristicError(
            f"jacobi_hypergeometric needs characteristic 0 or > r = {r}, have {p}"
        )
    one = descriptor.one
    half = one / descriptor.element(2)
    neg_half = -half
    x_minus = DensePoly(descriptor, (neg_half, half))  # (x - 1) / 2
    x_plus = DensePoly(descriptor, (half, half))       # (x + 1) / 2
    minus_powers = [DensePoly.one(descriptor)]
    plus_powers = [DensePoly.one(descriptor)]
    for _ in range(r):
        minus_powers.append(minus_powers[-1] * x_minus)
        plus_powers.append(plus_powers[-1] * x_plus)
    factorial = [one]
    for i in range(1, r + 1):
        factorial.append(factorial[-1] * descriptor.element(i))
    acc = DensePoly.zero(descriptor)
    for j in range(r + 1):
        rising_a = pochhammer(descriptor.element(k + r - j + 1), j)
        rising_b = pochhammer(descriptor.element(l + j + 1), r - j)
        weight = (rising_a / factorial[j]) * (rising_b / factorial[r - j])
        if weight.is_zero():
            continue
        acc = acc + (minus_powers[r - j] * plus_powers[j]).scale(weight)
    return acc


def jacobi_rodrigues(params: JacobiParams, descriptor: FieldDescriptor) -> DensePoly:
    """P_r^{(k,l)}(x) from the r-fold derivative of (1-x)^(k+r) (1+x)^(l+r).

    The derivative is tracked in factored form: after t steps it is
    (1-x)^(k+r-t) (1+x)^(l+r-t) Q_t with Q_0 = 1 and

        Q_{t+1} = ((l-k) - (k+l+2r-2t) x) Q_t + (1 - x^2) Q_t',

    so the weight prefactors cancel exactly and only the polynomial Q_r
    survives.  Valid for arbitrary integer k, l; characteristic 0 only
    (final division by 2^r r!).
    """
    r, k, l = params.r, params.k, params.l
    if descriptor.characteristic != 0:
        raise CharacteristicError("jacobi_rodrigues needs characteristic 0")
    a = k + r
    b = l + r
    one_minus_x2 = DensePoly.from_integers(descriptor, (1, 0, -1))
    q = DensePoly.one(descriptor)
    for t in range(r):
        linear = DensePoly.from_integers(descriptor, (l - k, -(a + b - 2 * t)))
        q = linear * q + one_minus_x2 * q.derivative()
    scalar = descriptor.element(Fraction((-1) ** r, 2**r * math.factorial(r)))
    return q.scale(scalar)


def shifted_jacobi(spec: ProblemSpec) -> DensePoly:
    """The integer-coefficient combination

        sum_j C(n-d+j-1, j) C(m-j-1, d-j) (x-alpha)^j (x-beta)^(d-j),

    which equals (alpha-beta)^d P_d^{(-n,-m)}((2x-alpha-beta)/(beta-alpha)).
    Its leading coefficient is the image of C(m+n-d-1, d).  Subresultants
    of the structured pair are scalar multiples of this polynomial.

    Needs alpha != beta and characteristic 0 or >= m+n-d.
    """
    m, n, d = spec.m, spec.n, spec.d
    descriptor = spec.descriptor
    if spec.alpha == spec.beta:
        raise CoincidentRoots("shifted_jacobi needs alpha != beta")
    p = descriptor.characteristic
    if p and p < m + n - d:
        raise CharacteristicError(
            f"shifted_jacobi needs characteristic 0 or >= m+n-d = {m + n - d}, have {p}"
        )
    coeffs = [
        binomial(j, n - d - 1, descriptor) * binomial(d - j, m - d - 1, descriptor)
        for j in range(d + 1)
    ]
    return expand_pair_basis(coeffs, spec.alpha, spec.beta)


def hyp2f1_poly(a: int, b: int, c: int, descriptor: FieldDescriptor) -> DensePoly:
    """The terminating Gauss series 2F1(a, b; c; x) for integer a <= 0.

    Term i+1 comes from term i by the ratio (a+i)(b+i) / ((c+i)(i+1)).
    Raises if a denominator image vanishes before the series terminates
    (e.g. (c)_i hitting zero).  Degree at most -a, less when (b)_i runs
    into zero first.
    """
    if not isinstance(a, int) or not isinstance(b, int) or not isinstance(c, int):
        raise PreconditionError("hyp2f1_poly takes integer parameters")
    if a > 0:
        raise PreconditionError(f"need a <= 0 for a terminating series, got a = {a}")
    one = descriptor.one
    terms = [one]
    t = one
    for i in range(-a):
        factor_b = descriptor.element(b + i)
        if factor_b.is_zero():
            break
        if c + i == 0:
            raise PreconditionError(
                f"2F1 denominator Pochhammer (c)_i hits zero at i = {i + 1} "
                f"before the series terminates (c = {c})"
            )
        denominator = inject_nonzero(
            descriptor, (c + i) * (i + 1), f"2F1 denominator (c+{i})({i}+1)"
        )
        t = t * descriptor.element(a + i) * factor_b / denominator
        terms.append(t)
    return DensePoly(descriptor, terms)


def verify_pade_identity(m: int, n: int, k: int, descriptor: FieldDescriptor) -> bool:
    """Check that Sres_m(x^(m+n+1), (x-1)^k) and its second Bezout cofactor
    match the (m, n) Pade numerator and denominator of (1-x)^k:

        Sres_m = lambda * 2F1(-m, -k-n; -m-n; x)
        G_m    = (-1)^k lambda * 2F1(-n, k-m; -m-n; x)

    with lambda fixed by the x^m coefficients.  Characteristic 0 only.
    For k = m the pair is degenerate (d equals deg g); the defining minors
    then have no f-rows and give Sres_m = (x-1)^m with cofactors (0, 1).
    """
    if descriptor.characteristic != 0:
        raise CharacteristicError("verify_pade_identity needs characteristic 0")
    if m < 1 or n < 1:
        raise PreconditionError(f"need m, n >= 1, got ({m}, {n})")
    if k < m:
        raise PreconditionError(f"need k >= m, got k = {k} < m = {m}")
    if k == m:
        sres = power_of_linear(descriptor.one, k)
        g_cof = DensePoly.one(descriptor)
    else:
        spec = ProblemSpec(
            m + n + 1, k, m, descriptor.element(0), descriptor.element(1)
        )
        sres = DensePoly.of(sres_fast(spec))
        g_cof = cofactors(spec).g
    numerator = hyp2f1_poly(-m, -k - n, -m - n, descriptor)
    denominator = hyp2f1_poly(-n, k - m, -m - n, descriptor)
    lead_sres = sres.coeff(m)
    lead_num = numerator.coeff(m)
    if lead_sres.is_zero() or lead_num.is_zero():
        return False
    lam = lead_sres / lead_num
    if sres != numerator.scale(lam):
        return False
    sign = descriptor.one if k % 2 == 0 else -descriptor.one
    return g_cof == denominator.scale(sign * lam)


def binomial(k: int, l: int, descriptor: FieldDescriptor) -> FieldValue:
    """Field image of the binomial coefficient C(k + l, k).

    Runs the shorter of the two quotient products: min(k, l) steps of one
    multiplication and one division, so at most 4 * min(k, l) + O(1) field
    operations.  Every intermediate value is C(max(k, l) + i, i), itself the
    image of an integer.  Requires characteristic 0 or > min(k, l); the
    incremental divisions are by 1, ..., min(k, l).
    """
    if k < 0 or l < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got ({k}, {l})")
    small, big = (k, l) if k <= l else (l, k)
    p = descriptor.characteristic
    if p and small >= p:
        raise CharacteristicError(
            f"binomial needs characteristic 0 or > min(k, l) = {small}, have {p}"
        )
    acc = descriptor.one
    for i in range(1, small + 1):
        acc = acc * descriptor.element(big + i)
        acc = acc / descriptor.element(i)
    return acc


def pochhammer(a: FieldValue, j: int) -> FieldValue:
    """Rising factorial (a)_j = a (a+1) ... (a+j-1); (a)_0 = 1.

    Costs j - 1 multiplications and j - 1 increments for j >= 1.
    """
    if j < 0:
        raise ValueError(f"pochhammer length must be nonnegative, got {j}")
    descriptor = a.descriptor
    if j == 0:
        return descriptor.one
    one = descriptor.one
    acc = a
    current = a
    for _ in range(j - 1):
        current = current + one
        acc = acc * current
    return acc


def falling_product(top: int, count: int, descriptor: FieldDescriptor) -> FieldValue:
    """Field image of top (top-1) ... (top-count+1); empty product is 1.

    With top = count this is the factorial count!.
    """
    if count < 0:
        raise ValueError(f"falling_product length must be nonnegative, got {count}")
    if count == 0:
        return descriptor.one
    acc = descriptor.element(top)
    for i in range(1, count):
        acc = acc * descriptor.element(top - i)
    return acc


def inject_nonzero(descriptor: FieldDescriptor, n: int, what: str) -> FieldValue:
    """Inject the integer n, raising CharacteristicError if its image is zero.

    Used before every division by an injected integer so a characteristic
    mistake fails loudly instead of silently corrupting a result."""
    v = descriptor.element(n)
    if v.is_zero():
        raise CharacteristicError(
            f"{what} = {n} vanishes in characteristic {descriptor.characteristic}"
        )
    return v
