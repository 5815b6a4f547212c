"""All principal subresultants of ((x-alpha)^m, (x-beta)^n) at once.

s_i = c(i) delta^((m-i)(n-i)) with delta = alpha - beta and c(i) the
integer principal subresultant at delta = 1, so the whole vector costs
O(min(m, n) + log(mn)) field operations.

psres_all runs one downward chain on Python ints.  Over F_p, and over Q
with an integer delta != 0, it starts at s_{low-1}, with c(low-1) from
combinat.principal_ratio, and steps

    s_{i-1} = s_i // num(u_i) * delta^(m+n-2i+1) * den(u_i),  u_i = c(i)/c(i-1).

Over Q, u_i is in lowest terms and num(u_i) divides c(i), which divides
s_i, so the division is exact.  Over F_p (p >= m + n, so every factor of
num(u_i) is a unit) u_i stays an unreduced pair of residues, and one
inverse, of num(u_{low-1}), serves every step.  For a non-integer delta
over Q the chain at delta = 1 gives the c(i), which a downward chain of
Fraction powers multiplies by delta^((m-i)(n-i)).  alpha = beta gives
zeros.  check.psres_schedule, the reference route the tests compare
psres_all with, builds both chains index by index in FieldValue arithmetic;
psres_all credits the active count_ops scopes with its op tally.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .combinat import principal_ratio
from .errors import CharacteristicError
from .field import (
    FieldDescriptor,
    FieldValue,
    binary_pow_muls,
    char_of,
    credit_ops,
    prime_field,
    rationals,
)
from .poly import ProblemSpec

__all__ = ["psres_all"]


def _check_args(m: int, n: int, alpha: FieldValue, beta: FieldValue) -> FieldDescriptor:
    """ProblemSpec's checks at d = 0, and p = 0 or p >= m + n."""
    descriptor = ProblemSpec(m, n, 0, alpha, beta).descriptor
    p = char_of(descriptor)
    if p and p < m + n:
        raise CharacteristicError(
            f"the principal subresultant schedule needs characteristic 0 "
            f"or >= m + n = {m + n}, have {p}"
        )
    return descriptor


def psres_all(m: int, n: int, alpha: FieldValue, beta: FieldValue) -> list:
    """[s_0, ..., s_{min(m,n)-1}] in O(min(m,n) + log(mn)) operations."""
    descriptor = _check_args(m, n, alpha, beta)
    delta = alpha.payload - beta.payload
    if not delta:
        return [descriptor.zero] * min(m, n)
    if delta.denominator == 1:
        return list(descriptor.from_ints(
            _downward(m, n, delta.numerator, descriptor.characteristic)))
    c = _downward(m, n, 1, 0)
    top = len(c) - 1
    h, step = delta ** ((m - top) * (n - top)), delta ** (m + n - 2 * top + 1)
    values = [FieldValue(descriptor, c[top] * h)]
    for i in range(top - 1, -1, -1):
        h *= step
        step *= delta * delta
        values.append(FieldValue(descriptor, c[i] * h))
    return values[::-1]


def _credit_schedule(m: int, n: int) -> None:
    """Credit check.psres_schedule's tally: delta, the powers seeding h and
    gamma, the c and h chains and the values; for min(m, n) >= 2 also the
    binomial seeding u, the v, u and gamma chains, 1/delta^(m+n-1) and
    delta^2."""
    low = min(m, n)
    muls, divs = binary_pow_muls(m * n) + 3 * low - 2, 0
    if low >= 2:
        small = min(m - 1, n - 1)
        muls += small + 2 * (low - 2) + binary_pow_muls(m + n - 1) + 1
        divs += (low - 2) + small + 1
    credit_ops(adds=1, muls=muls, divs=divs)


def _downward(m: int, n: int, delta: int, p: int) -> list:
    """The principal subresultants for delta != 0 by the downward chain of
    the module docstring, on integers (p = 0) or residues mod p >= m + n."""
    low = min(m, n)
    top = low - 1
    s = principal_ratio(m, n, top, prime_field(p) if p else rationals()).payload.numerator
    s *= pow(delta, (m - top) * (n - top), p or None)
    step = pow(delta, m + n - 2 * top + 1, p or None)
    delta_sq = delta * delta
    # u_1 = C(m+n-2, m-1) and u_{d+1} = u_d v_d, v_d = a_d / b_d
    v = [(d * (m - d) * (n - d) * (m + n - d),
          (m + n - 2 * d - 1) * (m + n - 2 * d) ** 2 * (m + n - 2 * d + 1))
         for d in range(1, low - 1)]
    values = [0] * low
    if p:
        # u_i = num_i / den_i unreduced, so one inverse, of num_top, serves
        # every step down: 1/num_{i-1} = a_{i-1} / num_i
        num, dens = comb(m + n - 2, m - 1) % p, [1]
        for a, b in v:
            num = num * a % p
            dens.append(dens[-1] * b % p)
        inverse = pow(num, -1, p)
        values[top] = s = s % p
        for i in range(top, 0, -1):
            s = s * dens[i - 1] % p * inverse % p * step % p
            values[i - 1] = s
            step = step * delta_sq % p
            inverse = inverse * ((i - 1) * (m - i + 1) * (n - i + 1) * (m + n - i + 1)) % p
    else:
        u = [Fraction(comb(m + n - 2, m - 1))]
        for a, b in v:
            u.append(u[-1] * Fraction(a, b))
        values[top] = s
        for i in range(top, 0, -1):
            s = s // u[i - 1].numerator * (step * u[i - 1].denominator)
            values[i - 1] = s
            step *= delta_sq
    _credit_schedule(m, n)
    return values
