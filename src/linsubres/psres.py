"""All principal subresultants of ((x-alpha)^m, (x-beta)^n) at once.

s_i = c(i) delta^((m-i)(n-i)) with delta = alpha - beta and c(i) the
integer principal subresultant at delta = 1, so the whole vector costs
O(min(m, n) + log(mn)) field operations.

psres_all runs one downward chain on Python ints.  Over F_p, and over Q
with an integer delta != 0, it starts at s_{low-1}, with c(low-1) from
fastsubres.principal_ratio, and steps

    s_{i-1} = s_i // num(u_i) * delta^(m+n-2i+1) * den(u_i),  u_i = c(i)/c(i-1).

Over Q, u_i is taken in closed form and lowest terms,

    u_i = C(m+n-2i, m-i) / C(m+n-i, i-1),

both binomials divided by their gcd.  math.comb gives them at
i = low - 1, and each step down multiplies them by exact ratios of small
integers, as in C(N+2, K+1) = C(N, K) (N+1)(N+2) / ((K+1)(N-K+1)); at
m + n ~ 900 that costs a tenth of a math.comb call.  num(u_i) divides
c(i), which divides s_i, so the division is exact.  Over F_p
(p >= m + n, so every factor of u_i is a unit) one
fastsubres._ratio_chain, with one inverse, gives the 1/u_i from
1/u_1 = 1/C(m+n-2, m-1) and u_{d+1} / u_d = d (m-d) (n-d) (m+n-d)
/ ((k-1) k^2 (k+1)), k = m+n-2d.  For a non-integer delta over Q the
chain at delta = 1 gives the c(i), which a downward chain of Fraction
powers multiplies by delta^((m-i)(n-i)); a product that is an integer
is stored as an int, the canonical Q payload.  alpha = beta gives
zeros.
check.psres_schedule, the reference route the tests compare psres_all
with, builds both chains index by index in FieldValue arithmetic;
psres_all credits the active count_ops scopes with its op tally.
"""

from math import comb, gcd

from .errors import CharacteristicError
from .fastsubres import ProblemSpec, _ratio_chain, principal_ratio
from .field import FieldDescriptor, FieldValue, _rational, binary_pow_muls, credit_ops

__all__ = ["psres_all"]


def _check_args(m: int, n: int, alpha: FieldValue, beta: FieldValue) -> FieldDescriptor:
    """ProblemSpec's checks at d = 0, and p = 0 or p >= m + n."""
    descriptor = ProblemSpec(m, n, 0, alpha, beta).descriptor
    p = descriptor.characteristic
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
            _downward(m, n, delta.numerator, descriptor)))
    c = _downward(m, n, 1, descriptor)
    top = len(c) - 1
    h, step = delta ** ((m - top) * (n - top)), delta ** (m + n - 2 * top + 1)
    values = [FieldValue(descriptor, _rational(c[top] * h))]
    for i in range(top - 1, -1, -1):
        h *= step
        step *= delta * delta
        values.append(FieldValue(descriptor, _rational(c[i] * h)))
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


def _downward(m: int, n: int, delta: int, descriptor: FieldDescriptor) -> list:
    """The principal subresultants for delta != 0 by the downward chain of
    the module docstring, on integers over Q or residues mod p >= m + n."""
    p = descriptor.characteristic
    low = min(m, n)
    top = low - 1
    s = principal_ratio(m, n, top, descriptor).payload
    s *= pow(delta, (m - top) * (n - top), p or None)
    step = pow(delta, m + n - 2 * top + 1, p or None)
    delta_sq = delta * delta
    values = [0] * low
    if p:
        inverse_u = _ratio_chain(1, _inverse_u_factors(m, n, top), p)
        values[top] = s = s % p
        for i in range(top, 0, -1):
            s = s * inverse_u[i] % p * step % p
            values[i - 1] = s
            step = step * delta_sq % p
    else:
        # u_i = a / b, a = C(m+n-2i, m-i) and b = C(m+n-i, i-1), each
        # stepped from i to i - 1 by its exact integer ratio
        values[top] = s
        a = comb(m + n - 2 * top, m - top)
        b = comb(m + n - top, top - 1) if top else 0  # min(m, n) = 1: no step
        for i in range(top, 0, -1):
            g = gcd(a, b)
            s = s // (a // g) * (step * (b // g))
            values[i - 1] = s
            step *= delta_sq
            k = m + n - 2 * i
            a = a * ((k + 1) * (k + 2)) // ((m - i + 1) * (n - i + 1))
            b = b * ((m + n - i + 1) * (i - 1)) // ((k + 2) * (k + 3))
    _credit_schedule(m, n)
    return values


def _inverse_u_factors(m: int, n: int, top: int):
    """The (num, den) steps of the chain 1, 1/u_1, ..., 1/u_top: the
    first is 1/C(m+n-2, m-1), the others u_d / u_{d+1}."""
    if top:
        yield 1, comb(m + n - 2, m - 1)
    for d in range(1, top):
        k = m + n - 2 * d
        yield (k - 1) * k * k * (k + 1), d * (m - d) * (n - d) * (m + n - d)
