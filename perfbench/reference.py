"""A gauge of the machine's speed, read while a run measures.

On a shared host the processor's speed drifts: the same pure-Python loop
ran about 1.4 times slower in some stretches than in others, the stretches
lasting from milliseconds to minutes, and whole runs differed by up to 30%
in throughput.  A longer run does not average that away.

A gauge times a fixed task, which runs no linsubres code, before every
request and after the last one.  Each request's wall time is multiplied by
the task's nominal time over the mean of the two samples around it, so
that it reads as it would on a machine where the task takes its nominal
time.  A change to linsubres cannot move the task, so the scaled times
still move with the program's own cost.

The task must slow down with the request.  For in-process requests it is
`routine`, whose work is the kind the program's time goes to: a residue
class dispatching `*` and `+`, a modular inverse, products of
19,000-bit integers and Fraction normalisation, and a pass over
integers larger than a core's private caches, as the coefficients of
large requests over Q are.  Without that last pass the scaled throughput
of q-growth spread 9.5% (IQR over median) over ten seeds: its largest
requests are bound by memory traffic and gain less than interpreted code
when the machine speeds up.  A CLI request's time is mostly the start of
a new interpreter, on whichever core it lands, which `routine` in the
parent tracked poorly (scaled spreads up to 11%); there the task is
starting `python -c pass` (the caller supplies it), and scaled spreads
stayed under 2% over ten seeds.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import Callable

# Typical times of the two tasks on the shared 2-core Xeon the bounds were
# set on, so that scaled times there read close to wall times.
NOMINAL_MS = 2.7
NOMINAL_SPAWN_MS = 55.0

_P = 1000003
_BIG = 3 ** 12000
_STREAM_BASE = 7 ** 20000
_STREAM = [_STREAM_BASE + k for k in range(400)]  # 2.8 MB of 56,000-bit integers


class _Residue:
    __slots__ = ("x",)

    def __init__(self, x: int):
        self.x = x

    def __mul__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.x * other.x % _P)

    def __add__(self, other: "_Residue") -> "_Residue":
        return _Residue((self.x + other.x) % _P)


def routine() -> tuple:
    """The fixed work the gauge times; about NOMINAL_MS on that machine."""
    a, b, acc = _Residue(3), _Residue(5), _Residue(1)
    for _ in range(500):
        acc = acc * a + b
    inverse = pow(acc.x or 1, -1, _P)
    big = 0
    for k in range(4):
        big ^= _BIG * (_BIG + k)
    q = Fraction(1, 3)
    for k in range(2, 16):
        q = q * Fraction(k + 1, k) + Fraction(1, k * k)
    total = 0
    for x in _STREAM:
        total += x
    return inverse, big & 1, q, total & 1


class Gauge:
    """Samples of a task's time, one before each timed call and one after
    the last."""

    def __init__(self, task: Callable[[], object] = routine, nominal_ms: float = NOMINAL_MS):
        self.task = task
        self.nominal_ms = nominal_ms
        self.samples_ns = []

    def sample(self) -> None:
        start = time.perf_counter_ns()
        self.task()
        self.samples_ns.append(time.perf_counter_ns() - start)

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ns) / 1e6

    def scaled(self, times: list) -> list:
        """`times[i]`, measured between samples i and i + 1, at the speed
        at which the task takes its nominal time."""
        s = self.samples_ns
        if len(s) != len(times) + 1:
            raise ValueError(f"{len(times)} times need {len(times) + 1} samples, not {len(s)}")
        return [t * 2e6 * self.nominal_ms / (s[i] + s[i + 1]) for i, t in enumerate(times)]
