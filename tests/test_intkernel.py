"""The integer kernels: factorial_ratio over Q and F_p, the integer
recurrence, the downward psres chain, and the op counts they credit.

The entry points take their factorial-ratio seeds from factorial_ratio on
both fields and run their chains on Python ints instead of FieldValue
arithmetic: exact integers over Q (on the numerators over a common
denominator for rational roots), residues over F_p.  These tests hold
them to the determinant oracle, to the F_p route mod a large prime, to
exact products of the closed-form ratios, to psres_schedule, to FieldValue
copies of the loops they replaced, to outputs recorded before that, and
to the op counts the FieldValue route records.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from linsubres.check import psres_oracle, psres_schedule, sres_oracle
from linsubres.errors import CharacteristicError
from linsubres.fastsubres import (
    ProblemSpec,
    _credit_ratio_chain,
    factorial_ratio,
    leading_coefficient_sd,
    sres_bernstein,
    sres_fast,
)
from linsubres.field import (
    binary_pow,
    count_ops,
    parse_field_spec,
    prime_field,
    rationals,
)
from linsubres.jacobi import inject_nonzero
from linsubres.poly import (
    DensePoly,
    cofactors,
    expand_pair_basis,
    pair_basis_coeffs,
    power_of_linear,
)
from linsubres.psres import psres_all

Q = rationals()
P61 = 2**61 - 1
F61 = prime_field(P61)


def _tally(counter):
    return (counter.adds, counter.muls, counter.divs, counter.negs)


def _entry_tallies(spec):
    """(adds, muls, divs, negs) of sres_fast, sres_bernstein, cofactors and
    psres_all on one spec."""
    with count_ops() as cof:
        cofactors(spec)
    with count_ops() as ps:
        psres_all(spec.m, spec.n, spec.alpha, spec.beta)
    return [_tally(sres_fast(spec).op_count), _tally(sres_bernstein(spec).op_count),
            _tally(cof), _tally(ps)]


def _roots(descriptor, a, b):
    return descriptor.from_str(str(a)), descriptor.from_str(str(b))


def _mod_p(value: Fraction) -> int:
    return value.numerator * pow(value.denominator, -1, P61) % P61


def _inject_p(text: str):
    value = Fraction(text)
    return F61.element(value.numerator) / F61.element(value.denominator)


# Op counts recorded from the FieldValue-only implementation (before the
# integer routes) for alpha = 3, beta = -2; the same on every field here,
# and for the rational roots below.  Columns: sres_fast, sres_bernstein,
# cofactors, psres_all.
RECORDED_OPS = {
    (1, 1, 0): [(1, 0, 0, 0), (1, 0, 0, 0), (1, 3, 0, 5), (1, 1, 0, 0)],
    (4, 3, 2): [(4, 17, 4, 2), (1, 7, 4, 0), (7, 16, 4, 6), (1, 19, 4, 0)],
    (5, 5, 0): [(1, 6, 0, 0), (1, 6, 0, 0), (109, 139, 16, 9), (1, 34, 8, 0)],
    (6, 9, 3): [(6, 32, 8, 3), (1, 16, 7, 0), (98, 135, 20, 10), (1, 43, 10, 0)],
    (9, 6, 5): [(10, 45, 10, 5), (1, 20, 10, 0), (34, 58, 11, 8), (1, 43, 10, 0)],
    (12, 12, 6): [(12, 63, 17, 6), (1, 32, 16, 0), (161, 220, 31, 10), (1, 81, 22, 0)],
    (17, 11, 10): [(20, 92, 20, 10), (1, 42, 20, 0), (112, 160, 22, 5), (1, 79, 20, 0)],
    (33, 40, 20): [(40, 199, 52, 20), (1, 98, 51, 0), (1372, 1548, 95, 24), (1, 212, 64, 0)],
}

# alpha = 1, beta = -1 makes some coefficients zero, and the recurrence
# skips its s_{t+2} term after a zero: fewer adds and muls at (12, 12, 6).
RECORDED_OPS_SYMMETRIC = dict(RECORDED_OPS)
RECORDED_OPS_SYMMETRIC[(12, 12, 6)] = [
    (10, 59, 17, 6), (1, 32, 16, 0), (159, 218, 31, 10), (1, 81, 22, 0),
]


@pytest.mark.parametrize("field, a, b, recorded", [
    ("fp:1000003", 3, -2, RECORDED_OPS),
    (f"fp:{P61}", 3, -2, RECORDED_OPS),
    ("q", 3, -2, RECORDED_OPS),
    ("q", "1/2", "-3/2", RECORDED_OPS),
    ("q", "-5/2", "1/3", RECORDED_OPS),
    ("q", 1, -1, RECORDED_OPS_SYMMETRIC),
])
def test_op_counts_match_the_recorded_fieldvalue_tallies(field, a, b, recorded):
    alpha, beta = _roots(parse_field_spec(field), a, b)
    for (m, n, d), expected in recorded.items():
        assert _entry_tallies(ProblemSpec(m, n, d, alpha, beta)) == expected, (m, n, d)


@pytest.mark.parametrize("a, b", [(3, -2), (1, -1), (0, 5), (2, 1)])
def test_q_op_counts_equal_the_fp_counts(a, b):
    """Integer roots: the Q routes credit exactly what the FieldValue route
    records over F_p (p = 2^61 - 1), including its zero-dependent skips."""
    for m in range(1, 11):
        for n in range(1, 11):
            for d in range(min(m, n)):
                q_spec = ProblemSpec(m, n, d, *_roots(Q, a, b))
                p_spec = ProblemSpec(m, n, d, *_roots(F61, a, b))
                assert _entry_tallies(q_spec) == _entry_tallies(p_spec), (m, n, d)
                with count_ops() as q_count:
                    leading_coefficient_sd(q_spec)
                with count_ops() as p_count:
                    leading_coefficient_sd(p_spec)
                assert q_count == p_count


def test_psres_all_equals_the_schedule_values():
    for a, b in [(3, -2), (1, -1), (0, 7), ("1/2", "-3/2"), ("-5/2", "1/3"), (4, 4)]:
        alpha, beta = _roots(Q, a, b)
        for m in range(1, 16):
            for n in range(1, 16):
                with count_ops() as fast:
                    values = psres_all(m, n, alpha, beta)
                with count_ops() as schedule:
                    expected = list(psres_schedule(m, n, alpha, beta).values)
                assert values == expected, (a, b, m, n)
                assert fast == schedule


# Outputs and op counts of the FieldValue F_p routes, recorded before the
# F_p chains moved onto residues: the sha256 of the comma-joined payloads
# (coefficients, then the pair-basis prefactor) and (adds, muls, divs,
# negs).  At (500, 500, 350) mod 653 two coefficients vanish, so the
# recurrence skips its s_{t+2} term twice.
FP_PINS = [
    ("sres_fast", 4096, 4096, 2048, 1000003, 123456, -98765, (4096, 20499, 6143, 2048),
     "5b9daf033ab81e478166c5291f8bf5029906820b6b4b10dd0c2b5f69a82e9eb9"),
    ("sres_bernstein", 4096, 4096, 2048, 1000003, 123456, -98765, (1, 10258, 6142, 0),
     "6dca22bf251878c203dd75f64454ac9342420b59fb9e478dfb3ac4075578ecd3"),
    ("psres_all", 4096, 4096, None, 1000003, 123456, -98765, (1, 24618, 8190, 0),
     "ba98533b747d00a078ce01b1319491efefd1767e7e7e1ebdcaea778de94d6d0d"),
    ("sres_fast", 300, 3000, 150, 1000003, 31, 41, (300, 1524, 449, 150),
     "31e5f0c2009863131c0714860b312ca99dce0d409b6515f653b6e3b803b88788"),
    ("sres_bernstein", 300, 3000, 150, 1000003, 31, 41, (1, 773, 448, 0),
     "c16853b30d0e29116ac5afb3b4c722aa49d4c28ea0b902a41f3f22a6edc8aa1c"),
    ("psres_all", 300, 3000, None, 1000003, 31, 41, (1, 1840, 598, 0),
     "81ac54768c68affe367b9e47198aafca3c8b9ba990eee640eaaf8a53fecb2206"),
    ("sres_fast", 500, 500, 350, 653, 3, -2, (698, 3315, 849, 350),
     "8f8fff410f64cba3f19cc978ef70ee9ff4a7cfc122cd0d9146614dffc69dcf07"),
    ("sres_bernstein", 500, 500, 350, 653, 3, -2, (1, 1568, 848, 0),
     "ee170cb24b8895cd05733551a3dd1f82d00f463eb9e6f25fd85997f62e9a39c6"),
    ("psres_all", 500, 500, None, 1009, 3, -2, (1, 3033, 998, 0),
     "0bbe62de1e0bfae7501b25d5b54d6c061c681a85af2f18a43b164e1ae861712c"),
    ("psres_all", 4096, 1000, None, 1000003, 2, 1000002, (1, 6040, 1998, 0),
     "b223cef29c3359cbee32c5ff479fff1c59256d8142a3d99e058540808914dccc"),
    ("sres_fast", 1000, 1200, 600, P61, 10**17 + 3, -10**15 - 7, (1200, 5820, 1599, 600),
     "9c099820845eac30e7e197b6d6e9e1aca32029b934a5abc78d9b45a4ede7b884"),
    ("sres_bernstein", 1000, 1200, 600, P61, 10**17 + 3, -10**15 - 7, (1, 2819, 1598, 0),
     "18f325033ef5ef04a72fca415f40a9d250125c132d9a747ec3520edd0fe3ab0b"),
    ("psres_all", 1000, 1200, None, P61, 10**17 + 3, -10**15 - 7, (1, 6037, 1998, 0),
     "2d6f92e135c981d2e29c5c24771cd148332aac05ebd4143b435a3cffe4b24c31"),
]


# Outputs and op counts over Q with rational roots, recorded before
# sres_fast and psres_all ran them on integer numerators (when they took
# the FieldValue loop and psres_schedule): the sha256 of the comma-joined
# payloads as hex "numerator/denominator", and (adds, muls, divs, negs).
Q_PINS = [
    ("sres_fast", 160, 160, 80, "1/2", "-1/3", (160, 811, 239, 80),
     "db4cdf86d69271511de5a3247e53126802fdb5151e5c512f51a0cd71bb53c4b2"),
    ("sres_bernstein", 160, 160, 80, "1/2", "-1/3", (1, 410, 238, 0),
     "f2d47cdb208c3dac9872411f4b4deec1b2fd38f0eb1319cc5944234f2eec31bb"),
    ("psres_all", 160, 160, None, "1/2", "-1/3", (1, 984, 318, 0),
     "a6001aade429ea35b86507e5351fa43f2b3b65860d474396cb86c90478a1b277"),
    ("sres_fast", 160, 100, 10, "-7/9", "5/8", (20, 197, 109, 10),
     "0de183e204fe02b39d313cb7bae1fb0242981e5b9f305b210353fefa3e9c160d"),
    ("sres_bernstein", 160, 100, 10, "-7/9", "5/8", (1, 147, 109, 0),
     "cb6ec5a73b9aa2bec522fe7a6a9c2fd5711635ed23f3bfa7bfd6c5531934375b"),
    ("psres_all", 160, 100, None, "-7/9", "5/8", (1, 622, 198, 0),
     "047884d8dfe161767764b6e138597748abda1d3e1b31fa932ef1d1346fd7a0f7"),
    ("psres_all", 256, 256, None, "5/6", "0", (1, 1562, 510, 0),
     "bb9857d1c60c33d407b84c437e01cf861f8ceb59b1a5b308a8e2f5d604b82424"),
]


def _pinned_values(entry, m, n, d, alpha, beta):
    """The values an entry point returns (coefficients, then the pair-basis
    prefactor) and its op counter."""
    with count_ops() as counter:
        if entry == "psres_all":
            values = psres_all(m, n, alpha, beta)
        else:
            result = {"sres_fast": sres_fast, "sres_bernstein": sres_bernstein}[entry](
                ProblemSpec(m, n, d, alpha, beta))
            values = list(result.coeffs)
            if result.prefactor is not None:
                values.append(result.prefactor)
    return values, counter


@pytest.mark.parametrize("entry, m, n, d, p, a, b, tally, digest", FP_PINS)
def test_fp_outputs_match_the_recorded_pins(entry, m, n, d, p, a, b, tally, digest):
    F = prime_field(p)
    values, counter = _pinned_values(entry, m, n, d, F.element(a), F.element(b))
    joined = ",".join(str(v.payload) for v in values)
    assert hashlib.sha256(joined.encode()).hexdigest() == digest
    assert _tally(counter) == tally


@pytest.mark.parametrize("entry, m, n, d, a, b, tally, digest", Q_PINS)
def test_q_outputs_match_the_recorded_pins(entry, m, n, d, a, b, tally, digest):
    values, counter = _pinned_values(entry, m, n, d, *_roots(Q, a, b))
    joined = ",".join(f"{v.payload.numerator:x}/{v.payload.denominator:x}" for v in values)
    assert hashlib.sha256(joined.encode()).hexdigest() == digest
    assert _tally(counter) == tally


# Bezout cofactors recorded while they ran the quadratic pair-basis
# expansion, so that a linear route lands against fixed values: the sha256
# of the comma-joined f then g payloads, residues over F_p and hex
# "numerator/denominator" over Q.  Generic over F_1000003, the boundary
# prime 37 = m+n-d-1 and the vanishing band (F = G = 0 at p = 41, an empty
# join), the d = 0 gap over F_7, and Q with integer and rational roots.
# Values only: the op count of a new route is RECORDED_OPS' business.
COF_PINS = [
    (160, 120, 40, "fp:1000003", "123456", "-98765",
     "873a1f5f2a5cb3b2a4ce4c7e2ede3fbbb68fb5a4ca06fbcd8aeaa05e069e3aa9"),
    (133, 148, 50, "fp:1000003", "31", "41",
     "b10e77acd4a8943dfa92ac38285234c5bf989010d32ec338b9cbb2ffb9d52d70"),
    (30, 25, 17, "fp:37", "3", "-2",
     "8adad1fe4fe1bc8b9ba47a2aa997b13216e162150d62e96e3064ea030ff7eb43"),
    (30, 25, 10, "fp:41", "3", "-2",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, 4, 0, "fp:7", "3", "-2",
     "26925675505b28d17703185df5c609c406892188343ef9e132ff7f215379f210"),
    (96, 80, 30, "q", "3", "-2",
     "b37bbf65396ca1e32f8172a8f4fa9d2d525263729560e6f95c6f5ecce22c6cc7"),
    (40, 33, 17, "q", "1/2", "-1/3",
     "1cb0718596d351dce31cacf4ff1ba76e47ef27903b0396a5219a8659b1ebbe0b"),
]


@pytest.mark.parametrize("m, n, d, field, a, b, digest", COF_PINS)
def test_cofactors_match_the_recorded_pins(m, n, d, field, a, b, digest):
    descriptor = parse_field_spec(field)
    pair = cofactors(ProblemSpec(m, n, d, *_roots(descriptor, a, b)))
    values = [v.payload for v in pair.f.coeffs + pair.g.coeffs]
    if descriptor.modulus:
        joined = ",".join(map(str, values))
    else:
        joined = ",".join(f"{v.numerator:x}/{v.denominator:x}" for v in values)
    assert hashlib.sha256(joined.encode()).hexdigest() == digest


def _fieldvalue_recurrence(spec):
    """Reference: sres_fast's FieldValue loop, which ran the recurrence over
    F_p and over Q with rational roots before the integer kernel (for
    d >= 1; d = 0 is the leading coefficient alone).  It skips the s_{t+2}
    term after a zero."""
    F, m, n, d = spec.descriptor, spec.m, spec.n, spec.d
    with count_ops() as counter:
        out = [F.zero] * d + [leading_coefficient_sd(spec)]
        alpha_beta = spec.alpha * spec.beta if d else None
        above, above2 = out[d], F.zero
        for t in range(d - 1, -1, -1):
            acc = (F.element(n - t - 1) * spec.alpha + F.element(m - t - 1) * spec.beta) * above
            if not above2.is_zero():
                acc = acc + F.element(t + 2) * alpha_beta * above2
            acc = acc * F.element(t + 1)
            value = -(acc / inject_nonzero(F, (d - t) * (m + n - d - t - 1), "(d-t)(m+n-d-t-1)"))
            out[t] = value
            above2, above = above, value
    return tuple(out), counter


def _fieldvalue_bernstein(spec):
    """Reference: sres_bernstein with a FieldValue c_j chain, as it ran over
    F_p before the residue kernel."""
    F, m, n, d = spec.descriptor, spec.m, spec.n, spec.d
    with count_ops() as counter:
        prefactor = binary_pow(spec.alpha - spec.beta, (m - d) * (n - d))
        out = [F.one]
        if d:
            _credit_ratio_chain(d - 1, min(m - d - 1, n - d), d - 1)
            out = [factorial_ratio([range(d), range(m + n - 2 * d - 1, m + n - d - 1)],
                                   [range(m - d - 1, m - 1), range(n - d, n)], F)]
        for j in range(1, d + 1):
            numerator = F.element((d - j + 1) * (n - d + j - 1))
            out.append(out[-1] * numerator / inject_nonzero(F, j * (m - j), "j(m-j)"))
    return tuple(out), prefactor, counter


def _next_prime(k):
    while k < 2 or any(k % q == 0 for q in range(2, math.isqrt(k) + 1)):
        k += 1
    return k


_Q_ROOT = st.tuples(st.integers(-10**6, 10**6), st.sampled_from([1, 2, 3, 4, 6, 9, P61])).map(
    lambda t: f"{t[0]}/{t[1]}")


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 80), n=st.integers(1, 80), above=st.integers(0, 3),
       large=st.booleans(), roots=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
       rational=st.one_of(st.none(), st.tuples(_Q_ROOT, _Q_ROOT)))
@example(m=80, n=80, above=0, large=False, roots=(3, 10**6 - 2), rational=None)
@example(m=80, n=80, above=0, large=False, roots=(5, 5), rational=None)
@example(m=17, n=23, above=0, large=False, roots=(0, 0), rational=("2/3", "-5/4"))
@example(m=9, n=14, above=0, large=False, roots=(0, 0), rational=(f"-5/{P61}", "7/2"))
@example(m=20, n=20, above=0, large=False, roots=(0, 0), rational=("-4/6", "5"))
@example(m=12, n=19, above=0, large=False, roots=(0, 0), rational=("0", "1/7"))
@example(m=21, n=16, above=0, large=False, roots=(0, 0), rational=("1/2", "-3/2"))
@example(m=15, n=15, above=0, large=False, roots=(0, 0), rational=("-4/6", "-2/3"))
def test_fp_kernels_match_the_fieldvalue_routes(m, n, above, large, roots, rational):
    """For every d, the integer kernels return the FieldValue routes'
    coefficients and op counts, and psres_all returns psres_schedule's.
    Over F_p from the smallest generic prime p >= m + n - d upward (where
    residues vanish and the recurrence skips terms) and at p = 1000003;
    over Q with the rational roots `rational`, whose coefficients grow
    with mn, for m, n <= 30."""
    def roots_in(lowest):
        if rational is not None:
            return _roots(Q, *rational)
        p = 1000003 if large else _next_prime(lowest)
        for _ in range(above):
            p = _next_prime(p + 1)
        F = prime_field(p)
        return F.element(roots[0]), F.element(roots[1])

    if rational is not None:
        m, n = min(m, 30), min(n, 30)
    alpha, beta = roots_in(m + n)
    with count_ops() as fast:
        values = psres_all(m, n, alpha, beta)
    with count_ops() as reference:
        expected = list(psres_schedule(m, n, alpha, beta).values)
    assert (values, _tally(fast)) == (expected, _tally(reference)), (m, n, alpha)
    for d in range(min(m, n)):
        alpha, beta = roots_in(m + n - d)
        if alpha == beta:
            continue
        spec = ProblemSpec(m, n, d, alpha, beta)
        coeffs, counter = _fieldvalue_recurrence(spec)
        result = sres_fast(spec)
        assert (result.coeffs, _tally(result.op_count)) == (coeffs, _tally(counter)), (
            m, n, d, alpha)
        coeffs, prefactor, counter = _fieldvalue_bernstein(spec)
        result = sres_bernstein(spec)
        assert (result.coeffs, result.prefactor, _tally(result.op_count)) == (
            coeffs, prefactor, _tally(counter)), (m, n, d, alpha)


_RANGE = st.tuples(st.integers(0, 40), st.integers(0, 12)).map(lambda t: range(t[0], t[0] + t[1]))


def _factorial_quotient(numerator, denominator) -> Fraction:
    expected = Fraction(1)
    for r in numerator:
        expected *= math.prod(math.factorial(a) for a in r)
    for r in denominator:
        expected /= math.prod(math.factorial(a) for a in r)
    return expected


@settings(max_examples=200, deadline=None)
@given(numerator=st.lists(_RANGE, max_size=4), denominator=st.lists(_RANGE, max_size=4))
# largest range stop 121 = 11^2 and 961 = 31^2, and one past each, where
# the sieve bound isqrt(stop - 1) decides whether q^2 is crossed out
@example(numerator=[range(116, 121)], denominator=[range(3, 9)])
@example(numerator=[range(2, 7)], denominator=[range(118, 122)])
@example(numerator=[range(954, 961)], denominator=[range(940, 947)])
@example(numerator=[range(940, 946)], denominator=[range(957, 962), range(30, 33)])
def test_factorial_ratio_matches_math_factorial(numerator, denominator):
    expected = _factorial_quotient(numerator, denominator)
    assert factorial_ratio(numerator, denominator, Q).payload == expected


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 1000003, P61]


@settings(max_examples=200, deadline=None)
@given(numerator=st.lists(_RANGE, max_size=4), denominator=st.lists(_RANGE, max_size=4))
# largest range stop 12, 13, 19, 43 and 60: primes just below, at and just
# above it, where factorial_ratio changes route; 121 = 11^2 and 961 = 31^2,
# and one past each, where the sieve bound decides whether q^2 is crossed out
@example(numerator=[range(10, 12)], denominator=[range(3, 5)])
@example(numerator=[range(2, 4)], denominator=[range(11, 12)])
@example(numerator=[range(5, 5), range(12, 13)], denominator=[range(5, 7)])
@example(numerator=[range(0, 19)], denominator=[range(1, 18)])
@example(numerator=[range(30, 38)], denominator=[range(41, 43)])
@example(numerator=[range(48, 60)], denominator=[range(40, 52), range(7, 9)])
@example(numerator=[range(110, 121)], denominator=[range(105, 116)])
@example(numerator=[range(100, 112), range(5, 9)], denominator=[range(112, 122)])
@example(numerator=[range(950, 961)], denominator=[range(947, 958)])
@example(numerator=[range(940, 952)], denominator=[range(951, 962), range(28, 32)])
def test_factorial_ratio_over_fp_is_the_quotient_mod_p(numerator, denominator):
    """Primes at or above the largest range stop give the quotient mod p
    (prefix products of a! mod p); a prime inside the range gives zero when
    it divides the reduced numerator and CharacteristicError when it
    divides the reduced denominator (Legendre exponents)."""
    expected = _factorial_quotient(numerator, denominator)
    for p in _PRIMES:
        F = prime_field(p)
        if expected.denominator % p == 0:
            with pytest.raises(CharacteristicError):
                factorial_ratio(numerator, denominator, F)
            continue
        value = factorial_ratio(numerator, denominator, F)
        assert value.payload == expected.numerator * pow(expected.denominator, -1, p) % p
        assert value.is_zero() == (expected.numerator % p == 0)


def test_factorial_ratio_examples_and_errors():
    assert factorial_ratio([range(10, 11)], [range(3, 4), range(7, 8)], Q).payload == 120
    assert factorial_ratio([], [], Q).payload == 1
    assert factorial_ratio([range(3, 4)], [range(5, 6)], Q).payload == Fraction(1, 20)
    assert factorial_ratio([range(10, 11)], [range(3, 4)], prime_field(7)).is_zero()
    with pytest.raises(CharacteristicError):
        factorial_ratio([range(3, 4)], [range(5, 6)], prime_field(5))
    m = n = 300
    d = 150
    seed = factorial_ratio([range(d), range(m + n - 2 * d, m + n - d)],
                           [range(m - d, m), range(n - d, n)], Q).payload
    expected = Fraction(1)
    for i in range(1, d + 1):
        expected *= Fraction(math.factorial(i - 1) * math.factorial(m + n - d - i),
                             math.factorial(m - i) * math.factorial(n - i))
    assert seed == expected and seed.denominator == 1
    for bad in (range(0, 6, 2), range(-1, 3), [1, 2]):
        with pytest.raises(ValueError):
            factorial_ratio([bad], [], Q)


def _closed_form_product(d, term) -> int:
    """prod_{i=1}^{d} term(i) as an exact Fraction, reduced mod 2^61 - 1;
    term(i) gives the factorial arguments (numerator, denominator)."""
    product = Fraction(1)
    for i in range(1, d + 1):
        top, bottom = term(i)
        product *= Fraction(math.prod(map(math.factorial, top)),
                            math.prod(map(math.factorial, bottom)))
    return _mod_p(product)


@settings(max_examples=10, deadline=None)
@given(m=st.integers(1, 300), n=st.integers(1, 300), data=st.data())
@example(m=300, n=300, data=None)
def test_fp_seeds_match_the_closed_form_products(m, n, data):
    """With alpha = 1, beta = 0 the F_p seeds are visible: s_d is the
    product of the r_i, the pair-basis c_0 the product of the b_i, and the
    cofactor F the pair-basis expansion scaled by +-T, the product of the
    t_i.  Each is compared with the exact product of the paper's factorial
    ratios, reduced mod 2^61 - 1."""
    if m == 1 or n == 1:
        m, n = m + 1, n + 1
    ds = {1, min(m, n) - 1} if data is None else {data.draw(st.integers(1, min(m, n) - 1))}
    for d in ds:
        spec = ProblemSpec(m, n, d, F61.one, F61.zero)
        r = _closed_form_product(d, lambda i: ((i - 1, m + n - d - i), (m - i, n - i)))
        assert leading_coefficient_sd(spec).payload == r
        b = _closed_form_product(d, lambda i: ((i - 1, m + n - d - i - 1), (m - i - 1, n - i)))
        assert sres_bernstein(spec).coeffs[0].payload == b
        t = _closed_form_product(d, lambda i: ((i, m + n - d - i - 1), (m - i, n - i)))
        expansion = expand_pair_basis(pair_basis_coeffs(n - d - 1, -n, m, F61), F61.one, F61.zero)
        sign = -1 if (m + d) % 2 else 1
        assert cofactors(spec).f == expansion.scale(F61.element(sign * t))


_SMALL_ROOT = st.one_of(
    st.integers(-6, 6).map(str),
    st.tuples(st.integers(-9, 9), st.integers(2, 5)).map(lambda t: f"{t[0]}/{t[1]}"),
)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 16), n=st.integers(1, 16), a=_SMALL_ROOT, b=_SMALL_ROOT,
       data=st.data())
def test_q_routes_match_the_oracle(m, n, a, b, data):
    if m + n > 24:
        n = 24 - m
    alpha, beta = _roots(Q, a, b)
    f, g = power_of_linear(alpha, m), power_of_linear(beta, n)
    values = psres_all(m, n, alpha, beta)
    assert values == [psres_oracle(f, g, d) for d in range(min(m, n))]
    if alpha == beta:
        return
    d = data.draw(st.integers(0, min(m, n) - 1), label="d")
    spec = ProblemSpec(m, n, d, alpha, beta)
    expected = sres_oracle(f, g, d)
    assert DensePoly.of(sres_fast(spec)) == expected
    bern = sres_bernstein(spec)
    assert expand_pair_basis(bern.coeffs, alpha, beta).scale(bern.prefactor) == expected
    pair = cofactors(spec)
    assert pair.f * f + pair.g * g == expected


@settings(max_examples=8, deadline=None)
@given(m=st.integers(1, 200), n=st.integers(1, 200), a=_SMALL_ROOT, b=_SMALL_ROOT,
       data=st.data())
def test_q_routes_match_fp_mod_a_large_prime(m, n, a, b, data):
    """Up to m, n = 200, each Q result reduced mod 2^61 - 1 equals the F_p
    route's result on the reduced roots."""
    if Fraction(a) == Fraction(b):
        return
    d = data.draw(st.integers(0, min(m, n) - 1), label="d")
    q_spec = ProblemSpec(m, n, d, *_roots(Q, a, b))
    p_spec = ProblemSpec(m, n, d, _inject_p(a), _inject_p(b))

    def reduced(values):
        return [_mod_p(v.payload) for v in values]

    def residues(values):
        return [v.payload for v in values]

    assert reduced(sres_fast(q_spec).coeffs) == residues(sres_fast(p_spec).coeffs)
    q_bern, p_bern = sres_bernstein(q_spec), sres_bernstein(p_spec)
    assert reduced(q_bern.coeffs) == residues(p_bern.coeffs)
    assert _mod_p(q_bern.prefactor.payload) == p_bern.prefactor.payload
    q_pair, p_pair = cofactors(q_spec), cofactors(p_spec)
    assert reduced(q_pair.f.coeffs) == residues(p_pair.f.coeffs)
    assert reduced(q_pair.g.coeffs) == residues(p_pair.g.coeffs)
    assert reduced(psres_all(m, n, q_spec.alpha, q_spec.beta)) == residues(
        psres_all(m, n, p_spec.alpha, p_spec.beta))


def test_q_outputs_reduce_to_the_fp_route_in_f_1000003():
    """A seeded sample up to m, n = 96, roots a/q with a in [-9, 9] and q in
    {1, 2, 3}: every Q output, its int and Fraction payloads alike, reduced
    into F_1000003 equals the F_p route's output on the reduced roots."""
    p = 1000003
    fp = prime_field(p)
    rng = random.Random(1000003)

    def reduced(values):
        return [v.payload.numerator * pow(v.payload.denominator, -1, p) % p for v in values]

    def residues(values):
        return [v.payload for v in values]

    for _ in range(40):
        m, n = rng.randint(1, 96), rng.randint(1, 96)
        alpha, beta = (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in "ab")
        if alpha == beta:
            continue
        d = rng.randrange(min(m, n))
        q_spec = ProblemSpec(m, n, d, Q.element(alpha), Q.element(beta))
        p_spec = ProblemSpec(m, n, d, fp.element(alpha), fp.element(beta))
        where = (m, n, d, alpha, beta)
        assert reduced(sres_fast(q_spec).coeffs) == residues(sres_fast(p_spec).coeffs), where
        q_bern, p_bern = sres_bernstein(q_spec), sres_bernstein(p_spec)
        assert reduced([*q_bern.coeffs, q_bern.prefactor]) == residues(
            [*p_bern.coeffs, p_bern.prefactor]), where
        q_pair, p_pair = cofactors(q_spec), cofactors(p_spec)
        assert reduced(q_pair.f.coeffs + q_pair.g.coeffs) == residues(
            p_pair.f.coeffs + p_pair.g.coeffs), where
        assert reduced(psres_all(m, n, q_spec.alpha, q_spec.beta)) == residues(
            psres_all(m, n, p_spec.alpha, p_spec.beta)), where


# Past the oracle box: both orders, min(m, n) in {1, 2}, and m, n up to 300.
_RATIO_SHAPES = [(300, 300), (300, 299), (299, 300), (300, 37), (37, 300), (250, 123),
                 (1, 300), (300, 1), (2, 300), (300, 2), (1, 1), (2, 2), (2, 1), (3, 2)]


@pytest.mark.parametrize("a, b", [(3, -2), (-4, 7), (1, 0)])
def test_psres_closed_form_ratio_matches_fp_past_the_oracle_box(a, b):
    """psres_all over Q with an integer delta steps by the closed-form ratio
    u_i = C(m+n-2i, m-i) / C(m+n-i, i-1); the F_p route keeps its own
    a_d / b_d chain.  Reduced mod 2^61 - 1 they agree, and both credit
    psres_schedule's tally."""
    for m, n in _RATIO_SHAPES:
        with count_ops() as q_count:
            q_values = psres_all(m, n, *_roots(Q, a, b))
        with count_ops() as p_count:
            p_values = psres_all(m, n, *_roots(F61, a, b))
        with count_ops() as schedule:
            psres_schedule(m, n, *_roots(F61, a, b))
        assert [_mod_p(v.payload) for v in q_values] == [v.payload for v in p_values], (m, n)
        assert q_count == p_count == schedule, (m, n)


@pytest.mark.parametrize("a, b", [("1/2", "-1/3"), ("-7/9", "5/8"), ("5/6", 0)])
def test_psres_rational_delta_matches_the_schedule(a, b):
    """A non-integer delta runs the closed-form chain at delta = 1; values
    and tallies equal psres_schedule's, whose u chain is the closed form."""
    sizes = (1, 2, 3, 7, 13, 22, 31, 39, 40)
    alpha, beta = _roots(Q, a, b)
    for m in sizes:
        for n in sizes:
            with count_ops() as fast:
                values = psres_all(m, n, alpha, beta)
            with count_ops() as reference:
                schedule = psres_schedule(m, n, alpha, beta)
            assert (values, fast) == (list(schedule.values), reference), (m, n)
            assert [u.payload for u in schedule.u] == [
                Fraction(math.comb(m + n - 2 * i, m - i), math.comb(m + n - i, i - 1))
                for i in range(1, min(m, n))], (m, n)
