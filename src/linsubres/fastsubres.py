"""Subresultants of (x - alpha)^m and (x - beta)^n in linear time.

The structured pair admits closed forms: in the generic characteristic
case the subresultant of index d is a scaled shifted Jacobi polynomial,
its coefficients obey a three-term recurrence, and the whole computation
costs O(min(m, n) + d + log(mn)) field operations instead of the cubic
determinant definition.  Positive characteristic splits into pinned-down
cases which this module dispatches on explicitly.  The problem statement
(ProblemSpec) and the result (SubresResult) are records here; the Bezout
cofactors, which return polynomials, live in linsubres.poly, so a
request without them never loads it.

The kernels run on Python ints, exact when p = 0 and mod p otherwise,
and credit the tallies of the FieldValue chains they replace: the seed
factorial_ratio, the chain c_j = c_{j-1} num_j / den_j (_ratio_chain, one
inverse over F_p) and sres_fast's three-term recurrence (_recurrence_int).
"""

import enum
from collections import namedtuple
from itertools import accumulate, compress
from math import isqrt, lcm

from .errors import (
    CharacteristicError,
    CoincidentRoots,
    FieldMismatch,
    PreconditionError,
    UnsupportedCase,
)
from .field import (
    FieldDescriptor,
    FieldValue,
    _rational,
    binary_pow,
    count_ops,
    credit_ops,
)

__all__ = [
    "CharCase",
    "Basis",
    "ProblemSpec",
    "SubresResult",
    "classify",
    "factorial_ratio",
    "principal_ratio",
    "leading_coefficient_sd",
    "sres_fast",
    "sres_bernstein",
    "result_to_json",
]


class CharCase(enum.Enum):
    """Characteristic regimes for the pair ((x-alpha)^m, (x-beta)^n, d)."""

    GENERIC_LARGE = "generic"      # char = 0 or char >= m+n-d: s_d != 0
    BOUNDARY_PRIME = "boundary"    # char = m+n-d-1: Sres_d degenerates to a constant
    VANISHING_BAND = "vanishing"   # max(m,n) <= char < m+n-d-1: Sres_d = 0
    UNSUPPORTED = "unsupported"    # 0 < char < max(m,n): outside every case


class Basis(enum.Enum):
    MONOMIAL = "monomial"
    BERNSTEIN = "bernstein"


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


class SubresResult(namedtuple("SubresResult", "spec basis coeffs case op_count prefactor",
                              defaults=(None,))):
    """One subresultant, as coefficients on a basis.

    Monomial basis: coeffs[i] is the x^i coefficient, length d+1 except in
    the boundary case, where the result is a single constant.  Bernstein
    basis: coeffs[j] weights (x-alpha)^j (x-beta)^(d-j), and the stored
    prefactor (alpha-beta)^((m-d)(n-d)) multiplies the whole sum.
    op_count is the field-operation tally of the producing call.
    poly.DensePoly.of(result) is a monomial result as a polynomial.
    """

    __slots__ = ()


def classify(spec: ProblemSpec) -> CharCase:
    """Characteristic dispatch.  Unsupported is a value, not an error;
    the compute entry points raise on it.

    The vanishing band exists only for d >= 1: Sres_0 is (alpha-beta)^(mn),
    a nonzero delta power in every characteristic >= max(m, n), so d = 0
    below the generic threshold classifies as generic (the d = 0 path is a
    single binary power, valid whenever the pair is supported at all).
    The case picks sres_fast's branch and gates sres_bernstein; cofactors
    and leading_coefficient_sd run one formula in every supported case.
    """
    p = spec.descriptor.characteristic
    m, n, d = spec.m, spec.n, spec.d
    if p == 0 or p >= m + n - d:
        return CharCase.GENERIC_LARGE
    if p == m + n - d - 1:
        return CharCase.BOUNDARY_PRIME
    if p >= max(m, n):
        return CharCase.VANISHING_BAND if d >= 1 else CharCase.GENERIC_LARGE
    return CharCase.UNSUPPORTED


def _checked_case(spec: ProblemSpec, generic_for: str = "") -> CharCase:
    """classify(spec) for an entry point: raises UnsupportedCase, then,
    when generic_for names a route that needs the generic case,
    CharacteristicError, then CoincidentRoots."""
    case = classify(spec)
    p = spec.descriptor.characteristic
    if case is CharCase.UNSUPPORTED:
        raise UnsupportedCase(
            f"characteristic {p} is positive and below max(m, n) = {max(spec.m, spec.n)}: "
            f"no supported hypothesis applies (need char = 0 or char >= max(m, n))"
        )
    if generic_for and case is not CharCase.GENERIC_LARGE:
        raise CharacteristicError(
            f"{generic_for} needs char = 0 or char >= m+n-d = {spec.m + spec.n - spec.d}, "
            f"have {p} (case {case.value})"
        )
    if spec.alpha == spec.beta:
        raise CoincidentRoots(
            f"alpha = beta = {spec.alpha} makes the pair degenerate; "
            f"the structured formulas need distinct roots"
        )
    return case


def factorial_ratio(numerator, denominator, descriptor: FieldDescriptor) -> FieldValue:
    """Field image of  prod a! (a in the numerator ranges)
    / prod b! (b in the denominator ranges).

    Each argument is an iterable of unit-step ranges of nonnegative
    factorial arguments.  The route depends only on p and the ranges.

    Over F_p with p at least every range stop, every a! is a unit, and
    with SF(k) = prod_{a<k} a! mod p a range [s, t) contributes
    SF(t) / SF(s): one pass k = 1..top carries k! and SF(k) and keeps
    SF(k) only at the range ends.

    Otherwise (over Q, or p inside the ranges) exponent[k], how often k
    is a factor, is a suffix sum over a difference array of the ranges,
    and each prime q < top, from a bytearray sieve, takes Legendre's
    exponent sum_i sum(exponent[q^i::q^i]).  A net negative power of p
    raises CharacteristicError; a positive one makes the numerator 0.
    The prime powers, mod p over F_p, meet in two balanced product trees
    (an order of magnitude faster than multiplying the factorials out).

    Both routes give the ratio as num / den with ints (_factorial_ratio_ints)
    and meet at one exit per field.  Over F_p it is num * den^-1 mod p,
    one inverse: den is a unit on either route, a product of unit
    factorials on the first, of powers of primes other than p on the
    second (a net negative power of p has raised by then).  Over Q it is
    the canonical payload of num / den (field._rational): an int when den
    divides num, as it does for every integer factorial ratio, so
    fractions is imported only for a ratio that is not an integer.
    """
    p = descriptor.characteristic
    num, den = _factorial_ratio_ints(numerator, denominator, p)
    if p:
        return FieldValue(descriptor, num * pow(den, -1, p) % p)
    return FieldValue(descriptor, _rational(num, den))


def _factorial_ratio_ints(numerator, denominator, p: int) -> tuple:
    """(num, den), ints whose quotient is factorial_ratio's value in
    characteristic p, by the routes factorial_ratio describes: mod p over
    F_p, where den is a unit, and in lowest terms over Q."""
    spans = [(r, 1) for r in numerator] + [(r, -1) for r in denominator]
    for r, _ in spans:
        if not isinstance(r, range) or r.step != 1 or (r and r.start < 0):
            raise ValueError(f"factorial arguments must be unit-step ranges of "
                             f"nonnegative integers, got {r!r}")
    top = max((r.stop for r, _ in spans if r), default=1)
    if p and p >= top:
        sf, acc, fact, done = {}, 1, 1, 0  # acc = SF(done), fact = done!
        for end in sorted({e for r, _ in spans if r for e in (r.start, r.stop)}):
            for k in range(done + 1, end + 1):
                acc = acc * fact % p
                fact = fact * k % p
            sf[end], done = acc, end
        num = den = 1
        for r, sign in spans:
            if r:
                up, down = (r.stop, r.start) if sign > 0 else (r.start, r.stop)
                num = num * sf[up] % p
                den = den * sf[down] % p
    else:
        diff = [0] * (top + 1)
        for r, sign in spans:
            if r:
                diff[r.start] += sign
                diff[r.stop] -= sign
        factorials = list(accumulate(diff[:top]))  # signed count of each a!
        # exponent[k]: how often k occurs as a factor, the signed count of
        # the a! with a >= k
        exponent = list(accumulate(reversed(factorials)))[::-1]
        sieve = bytearray(2) + b"\1" * (top - 2)  # sieve[k] = 1 for the primes k < top
        for f in range(2, isqrt(top - 1) + 1):
            if sieve[f]:
                sieve[f * f::f] = bytes(len(range(f * f, top, f)))
        ups, downs = [], []
        for q in compress(range(top), sieve):
            e, power = 0, q
            while power < top:
                e += sum(exponent[power::power])
                power *= q
            if e < 0 and q == p:
                raise CharacteristicError(
                    f"the factorial ratio has {p}^{-e} in its denominator, "
                    f"which vanishes in characteristic {p}")
            if e:
                (ups if e > 0 else downs).append(pow(q, abs(e), p or None))
        num, den = _product_tree(ups), _product_tree(downs)
    return num, den


def principal_ratio(m: int, n: int, d: int, descriptor: FieldDescriptor) -> FieldValue:
    """prod_{i=1}^{d} (i-1)! (m+n-d-i)! / ((m-i)! (n-i)!): s_d of
    ((x-alpha)^m, (x-beta)^n) at alpha - beta = 1.  Its callers credit ops."""
    return factorial_ratio([range(d), range(m + n - 2 * d, m + n - d)],
                           [range(m - d, m), range(n - d, n)], descriptor)


def _product_tree(factors: list) -> int:
    """Product of the list by pairwise rounds, so that the big
    multiplications meet operands of similar size."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def _credit_ratio_chain(falling: int, small: int, steps: int, seed_divs: int = 0) -> None:
    """Credit the op count of a factorial_ratio seed, on both fields: the
    tally of the FieldValue ratio chain it stands for, seeded at
    jacobi.falling_product(falling, falling) * jacobi.binomial (min argument
    `small`) with `seed_divs` more divisions, followed by `steps` updates
    r = r * num / den, product = product * r."""
    credit_ops(muls=max(falling - 1, 0) + small + 1 + 2 * steps,
               divs=small + seed_divs + steps)


def _ratio_chain(first: int, factors, p: int) -> list:
    """[c_0, ..., c_k], c_0 = first and c_j = c_{j-1} num_j / den_j for the
    k pairs (num_j, den_j) of factors: by exact // when p = 0; over F_p
    (every den_j a unit) by running products, one inverse of the last
    denominator product E_k, and the walk back 1/E_{j-1} = den_j / E_j."""
    out = [first]
    if not p:
        for num, den in factors:
            out.append(out[-1] * num // den)
        return out
    dens, scale = [], 1
    for num, den in factors:
        out.append(out[-1] * num % p)
        scale = scale * den % p
        dens.append(den)
    inverse = pow(scale, -1, p)
    for j in range(len(dens), 0, -1):
        out[j] = out[j] * inverse % p
        inverse = inverse * dens[j - 1] % p
    return out


def leading_coefficient_sd(spec: ProblemSpec) -> FieldValue:
    """The principal subresultant

        s_d = (alpha-beta)^((m-d)(n-d)) * prod_{i=1}^{d} r_i,
        r_i = (i-1)! (m+n-d-i)! / ((m-i)! (n-i)!).

    The product is principal_ratio(m, n, d), one factorial_ratio, and the
    active count_ops scopes are credited with the tally of the downward
    ratio chain r_d = (d-1)! C(m+n-2d, m-d),
    r_i = r_{i+1} (m+n-d-i) / (i (m-i) (n-i)).
    O(min(m, n) + log(mn)) operations.  Every supported characteristic and
    alpha != beta: the denominators (m-i)! (n-i)! are units for
    p >= max(m, n), and for d >= 1 below the generic threshold the
    numerator (m+n-d-1)! contains p, so s_d = 0 in the boundary and
    vanishing cases; s_0 = delta^(mn) always.
    """
    _checked_case(spec)
    m, n, d = spec.m, spec.n, spec.d
    power = binary_pow(spec.alpha - spec.beta, (m - d) * (n - d))
    if d == 0:
        return power
    _credit_ratio_chain(d - 1, min(m - d, n - d), d - 1)
    return power * principal_ratio(m, n, d, spec.descriptor)


def _recurrence_int(m: int, n: int, d: int, alpha: int, beta: int, top: int, p: int) -> list:
    """sres_fast's downward recurrence on Python ints, for integer roots
    over Q (p = 0: every s_t is an integer, so the division is an exact //)
    and for residues over F_p.  Over F_p it carries s'_t = D_t s_t with
    D_t = prod_{u=t}^{d-1} den_u, den_u = (d-u)(m+n-d-u-1), which obeys

        s'_t = -(t+1) [B_t s'_{t+1} + (t+2) alpha beta den_{t+1} s'_{t+2}],
        B_t = (n-t-1) alpha + (m-t-1) beta,

    without a division; one inverse of D_0 and the walk back up,
    1/D_{t+1} = den_t / D_t, give the s_t.  Credits the tally of the
    recurrence in field arithmetic, whose s_{t+2} term is skipped when
    s_{t+2} = 0 (over F_p s'_{t+2} = 0 exactly then, as D_t is a unit)."""
    out = [0] * (d + 1)
    out[d] = top
    above, above2 = top, 0
    full = 0
    if p:
        alpha_beta = alpha * beta % p
        scale = den_above = 1
        for t in range(d - 1, -1, -1):
            acc = ((n - t - 1) * alpha + (m - t - 1) * beta) * above
            if above2:
                acc += (t + 2) * alpha_beta * den_above % p * above2
                full += 1
            den_above = (d - t) * (m + n - d - t - 1)
            scale = scale * den_above % p
            value = -acc * (t + 1) % p
            out[t] = value
            above2, above = above, value
        inverse = pow(scale, -1, p)
        for t in range(d):
            out[t] = out[t] * inverse % p
            inverse = inverse * ((d - t) * (m + n - d - t - 1)) % p
    else:
        alpha_beta = alpha * beta
        for t in range(d - 1, -1, -1):
            acc = ((n - t - 1) * alpha + (m - t - 1) * beta) * above
            if above2:
                acc += (t + 2) * alpha_beta * above2
                full += 1
            value = -(acc * (t + 1) // ((d - t) * (m + n - d - t - 1)))
            out[t] = value
            above2, above = above, value
    credit_ops(adds=d + full, muls=1 + 4 * d + 2 * full, divs=d, negs=d)
    return out


def sres_fast(spec: ProblemSpec) -> SubresResult:
    """Sres_d((x-alpha)^m, (x-beta)^n) on the monomial basis.

    Generic case: seeds the leading coefficient s_d and fills downward with
    the recurrence (a consequence of the hypergeometric differential
    equation satisfied by the shifted Jacobi form)

        s_t = -(t+1) [((n-t-1) alpha + (m-t-1) beta) s_{t+1}
                      + (t+2) alpha beta s_{t+2}] / ((d-t)(m+n-d-t-1)),

    O(min(m, n) + d + log(mn)) operations total.  Boundary case: the single
    constant (-1)^(md) (alpha-beta)^((m-d)(n-d)+d).  Vanishing band: zeros.
    The recurrence runs on Python ints (_recurrence_int): residues over
    F_p, exact integers over Q.  s_t is homogeneous of degree (m-d)(n-d)
    + d - t in (alpha, beta), so with alpha = a/q and beta = b/q over a
    common denominator (q = 1 over F_p) it is s_t(a, b) / q^(that degree).
    The op count is that of the recurrence in field arithmetic.
    """
    with count_ops() as counter:
        case = _checked_case(spec)
        descriptor = spec.descriptor
        m, n, d = spec.m, spec.n, spec.d
        if case is CharCase.VANISHING_BAND:
            coeffs = (descriptor.zero,) * (d + 1)
        elif case is CharCase.BOUNDARY_PRIME:
            delta = spec.alpha - spec.beta
            value = binary_pow(delta, (m - d) * (n - d) + d)
            if (m * d) % 2:
                value = -value
            coeffs = (value,)
        elif d == 0:
            coeffs = (leading_coefficient_sd(spec),)
        else:
            alpha, beta = spec.alpha.payload, spec.beta.payload
            q = lcm(alpha.denominator, beta.denominator)
            a, b = (r.numerator * (q // r.denominator) for r in (alpha, beta))
            top = leading_coefficient_sd(
                ProblemSpec(m, n, d, descriptor.element(a), descriptor.element(b)))
            ints = _recurrence_int(m, n, d, a, b, top.payload, descriptor.characteristic)
            if q == 1:
                coeffs = descriptor.from_ints(ints)
            else:
                from fractions import Fraction

                # Fraction's one gcd, normalised after: a coefficient is
                # seldom an integer here, and a divmod first would cost
                # every other coefficient one more long division
                out, den = [], q ** ((m - d) * (n - d))
                for value in reversed(ints):
                    out.append(FieldValue(descriptor, _rational(Fraction(value, den))))
                    den *= q
                coeffs = tuple(reversed(out))
    return SubresResult(
        spec=spec,
        basis=Basis.MONOMIAL,
        coeffs=coeffs,
        case=case,
        op_count=counter.snapshot(),
    )


def sres_bernstein(spec: ProblemSpec) -> SubresResult:
    """Sres_d on the pair basis (x-alpha)^j (x-beta)^(d-j):

        Sres_d = (alpha-beta)^((m-d)(n-d)) * sum_j c_j (x-alpha)^j (x-beta)^(d-j)

    with integer-image coefficients c_j.  c_0 is the product of
    b_i = (i-1)! (m+n-d-i-1)! / ((m-i-1)! (n-i)!) over i = 1..d, which is
    principal_ratio(m-1, n, d), credited as the ratio chain seeded at
    b_d = (d-1)! C(m+n-2d-1, m-d-1), and

        c_j = c_{j-1} (d-j+1)(n-d+j-1) / (j (m-j)).

    The c_j chain is one _ratio_chain, credited with the op count of a
    FieldValue chain: exact // over Q, one inverse over F_p.
    O(min(m, n) + d + log(mn)) operations.  Generic case only.
    """
    with count_ops() as counter:
        case = _checked_case(spec, generic_for="the pair-basis expansion")
        descriptor = spec.descriptor
        m, n, d = spec.m, spec.n, spec.d
        delta = spec.alpha - spec.beta
        prefactor = binary_pow(delta, (m - d) * (n - d))
        if d == 0:
            coeffs = (descriptor.one,)
        else:
            _credit_ratio_chain(d - 1, min(m - d - 1, n - d), d - 1)
            c = principal_ratio(m - 1, n, d, descriptor).payload
            credit_ops(muls=d, divs=d)
            coeffs = descriptor.from_ints(_ratio_chain(
                c, (((d - j + 1) * (n - d + j - 1), j * (m - j)) for j in range(1, d + 1)),
                descriptor.characteristic))
    return SubresResult(
        spec=spec,
        basis=Basis.BERNSTEIN,
        coeffs=coeffs,
        case=case,
        op_count=counter.snapshot(),
        prefactor=prefactor,
    )


def result_to_json(result: SubresResult) -> dict:
    """JSON shape shared with the CLI."""
    spec = result.spec
    payload = {
        "m": spec.m,
        "n": spec.n,
        "d": spec.d,
        "alpha": str(spec.alpha),
        "beta": str(spec.beta),
        "field": spec.descriptor.spec_string(),
        "case": result.case.value,
        "basis": result.basis.value,
        "coeffs": [str(c) for c in result.coeffs],
        "ops": result.op_count.as_dict(),
    }
    if result.prefactor is not None:
        payload["prefactor"] = str(result.prefactor)
    return payload
