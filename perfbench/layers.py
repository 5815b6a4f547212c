"""Per-layer measurements for the traced run.

Each phase is timed by calling that layer's public function on the
request's own inputs, inside a span, after the entry-point call; derived
self times are differences between those calls.  Layers a workload's entry
points never call report 0 on that workload.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from checks import expected_case
from library import ls, spec_of
from tracing import Tracer

ENTRY_SPANS = {
    "sres_fast": "fastsubres.sres_fast",
    "sres_bernstein": "fastsubres.sres_bernstein",
    "psres_all": "psres.psres_all",
    "cofactors": "fastsubres.cofactors",
}

def _seeds(req) -> tuple:
    """(falling_product arguments, binomial arguments) seeding the entry
    point's ratio chain, or None where it has no chain."""
    m, n, d = req.m, req.n, req.d
    if req.kind == "psres_all":
        return None, (m - 1, n - 1)
    if d == 0:
        return None
    if req.kind == "sres_fast":
        return (d - 1, d - 1), (m - d, n - d)
    if req.kind == "sres_bernstein":
        return (d - 1, d - 1), (m - d - 1, n - d)
    return (d, d), (m - d, n - d - 1)


def time_phases(req, tracer: Tracer) -> dict:
    """Call each phase of the request's entry point on its inputs; returns
    {span name: ms}.  Boundary and vanishing requests run no chain."""
    if req.kind != "psres_all" and expected_case(req.m, req.n, req.d, req.modulus) != "generic":
        return {}
    out = {}
    rid = req.rid

    def timed(name, call, *args):
        with tracer.span(name, rid) as span:
            result = call(*args)
        out[name] = out.get(name, 0.0) + span.ms
        return result

    descriptor = ls.parse_field_spec(req.field)
    alpha, beta = descriptor.from_str(req.alpha), descriptor.from_str(req.beta)
    delta = alpha - beta
    m, n, d = req.m, req.n, req.d
    if req.kind == "psres_all":
        exponent = m * n
    elif req.kind == "cofactors":
        exponent = (m - d - 1) * (n - d - 1)
    else:
        exponent = (m - d) * (n - d)
    timed("field.binary_pow", ls.binary_pow, delta, exponent)
    seeds = _seeds(req)
    if seeds is not None:
        falling, binomial = seeds
        with tracer.span("combinat.seed", rid) as span:
            if falling is not None:
                timed("combinat.falling_product", ls.falling_product, *falling, descriptor)
            timed("combinat.binomial", ls.binomial, *binomial, descriptor)
        out["combinat.seed"] = span.ms
    if req.kind == "sres_fast":
        timed("fastsubres.leading_coefficient_sd", ls.leading_coefficient_sd, spec_of(req))
    elif req.kind == "cofactors":
        f_coeffs = timed("jacobi.pair_basis_coeffs", ls.pair_basis_coeffs, n - d - 1, -n, m, descriptor)
        g_coeffs = timed("jacobi.pair_basis_coeffs", ls.pair_basis_coeffs, m - d - 1, n, -m, descriptor)
        timed("jacobi.expand_pair_basis", ls.expand_pair_basis, f_coeffs, alpha, beta)
        timed("jacobi.expand_pair_basis", ls.expand_pair_basis, g_coeffs, alpha, beta)
    return out


class OperandSample:
    """A seeded reservoir of operand pairs drawn from the workload's own
    outputs, for timing single field operations."""

    SIZE = 48
    REPEAT = 8

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pairs = []
        self.seen = 0

    def offer(self, req, out: dict) -> None:
        values = [v for key in ("coeffs", "values", "f", "g") for v in out.get(key) or ()]
        values = [v for v in values if v != 0]
        if len(values) < 2:
            return
        self.seen += 1
        slot = len(self.pairs) if len(self.pairs) < self.SIZE else self.rng.randrange(self.seen)
        if slot < self.SIZE:
            x, y = self.rng.sample(values, 2)
            descriptor = ls.parse_field_spec(req.field)
            pair = (descriptor.element(x), descriptor.element(y))
            if slot == len(self.pairs):
                self.pairs.append(pair)
            else:
                self.pairs[slot] = pair

    def op_ns(self) -> dict:
        """Median time of one mul, div and add over the sampled pairs."""
        times = {"mul": [], "div": [], "add": []}
        ops = {"mul": lambda x, y: x * y, "div": lambda x, y: x / y, "add": lambda x, y: x + y}
        for x, y in self.pairs:
            for name, op in ops.items():
                start = time.perf_counter_ns()
                for _ in range(self.REPEAT):
                    op(x, y)
                times[name].append((time.perf_counter_ns() - start) / self.REPEAT)
        return {name: statistics.median(v) if v else 0.0 for name, v in times.items()}


def payload_bits(out: dict) -> int:
    """Largest numerator-plus-denominator bit length in one output."""
    values = [v for key in ("coeffs", "values", "f", "g") for v in out.get(key) or ()]
    if out.get("prefactor") is not None:
        values.append(out["prefactor"])
    return max((v.numerator.bit_length() + v.denominator.bit_length()
                if isinstance(v, Fraction) else v.bit_length() for v in values), default=0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
