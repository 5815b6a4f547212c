"""Combinatorial quantities as field elements.

Integer parameters stay in Z; only the values that enter the arithmetic
are injected into the field, so the operation counts reported by the
algorithms reflect actual field work.  factorial_ratio is the exception:
it works on Python ints (exact over Q, residues over F_p) and performs no
counted field operation; its callers credit the ratio chain it replaces.
It has two routes: prefix products of a! mod p when p exceeds every
factorial argument, and Legendre prime exponents from a sieve over Q and
for a p inside the range, where the ratio can be zero or undefined.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import isqrt

from .errors import CharacteristicError
from .field import FieldDescriptor, FieldValue


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


def factorial_ratio(numerator, denominator, descriptor: FieldDescriptor) -> FieldValue:
    """Field image of  prod a! (a in the numerator ranges)
    / prod b! (b in the denominator ranges).

    Each argument is an iterable of unit-step ranges of nonnegative
    factorial arguments.  The route depends only on p and the ranges.

    Over F_p with p at least every range stop, every a! is a unit, and
    with SF(k) = prod_{a<k} a! mod p a range [s, t) contributes
    SF(t) / SF(s): one pass k = 1..top carries k! and SF(k), keeps SF(k)
    only at the range ends, and the whole ratio costs one inverse.

    Otherwise (over Q, or p inside the range) the multiplicity of every k
    in the merged product is a suffix sum over a difference array of the
    ranges, so counting is O(N) for N the largest argument; a
    smallest-prime-factor sieve (built per call) pushes each composite's
    count onto its factors, which leaves Legendre's prime exponents.  Over
    Q the prime powers are multiplied in a balanced product tree
    (multiplying the factorials out instead is an order of magnitude
    slower); over F_p they are reduced mod p and the denominator is
    inverted once, a ratio with a positive net exponent of p is zero, and
    one with a negative net exponent raises CharacteristicError.
    """
    spans = [(r, 1) for r in numerator] + [(r, -1) for r in denominator]
    for r, _ in spans:
        if not isinstance(r, range) or r.step != 1 or (r and r.start < 0):
            raise ValueError(f"factorial arguments must be unit-step ranges of "
                             f"nonnegative integers, got {r!r}")
    top = max((r.stop for r, _ in spans if r), default=1)
    p = descriptor.characteristic
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
        return FieldValue(descriptor, num * pow(den, -1, p) % p)
    diff = [0] * (top + 1)
    for r, sign in spans:
        if r:
            diff[r.start] += sign
            diff[r.stop] -= sign
    factorials = list(accumulate(diff[:top]))  # signed count of each a!
    # exponent[k]: how often k occurs as a factor, the signed count of the
    # a! with a >= k
    exponent = list(accumulate(reversed(factorials)))[::-1]
    # spf[k]: smallest prime factor of k; smaller primes overwrite larger
    spf = list(range(top))
    small = [f for f in range(2, isqrt(top - 1) + 1)
             if all(f % q for q in range(2, isqrt(f) + 1))]
    for f in reversed(small):
        spf[f * f::f] = [f] * len(range(f * f, top, f))
    # move each composite's exponent onto spf[k] and k // spf[k], both
    # smaller than k, so one downward pass leaves only prime exponents
    for k in range(top - 1, 3, -1):
        f = spf[k]
        if f != k and exponent[k]:
            exponent[f] += exponent[k]
            exponent[k // f] += exponent[k]
    primes = [(q, exponent[q]) for q in range(2, top) if spf[q] == q and exponent[q]]
    if not p:
        num = _product_tree([q ** e for q, e in primes if e > 0])
        den = _product_tree([q ** -e for q, e in primes if e < 0])
        return FieldValue(descriptor, Fraction(num, den))
    num = den = 1
    for q, e in primes:
        if q == p:
            if e < 0:
                raise CharacteristicError(
                    f"the factorial ratio has {p}^{-e} in its denominator, "
                    f"which vanishes in characteristic {p}")
            return descriptor.zero
        if e > 0:
            num = num * pow(q, e, p) % p
        else:
            den = den * pow(q, -e, p) % p
    return FieldValue(descriptor, num * pow(den, -1, p) % p)


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


__all__ = ["binomial", "pochhammer", "falling_product", "factorial_ratio", "principal_ratio"]
