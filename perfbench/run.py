"""linsubres benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fp-linear --seed 1 --seconds 12 --trace 0

Load is a closed loop from this one process with one request in flight:
the next request is issued when the previous one has returned.  Each
request's inputs are generated, and its output checked, outside the timed
region.  The run issues whole blocks of requests (see workloads.py) until
the timed calls add up to --seconds and at least MIN_REQUESTS requests
were made, so that the 90th percentile has ten samples beyond it.  The
`cli` workload spawns one `python -m linsubres.cli` process per request
and times it from spawn to parsed JSON.  Reported times are wall times
scaled by the machine's speed around each request, as reference.py
gauges it.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same request
prefix twice, untraced then traced, times every layer's public functions
on each request's inputs, writes the spans under .bench_build/perfbench/
and prints the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import reference
import workloads

MIN_REQUESTS = 110
SETUP_RUNS = 15
PROBE_RUNS = 5
CHILD_TIMEOUT_S = 120


def declared_units(trace: bool) -> dict:
    """{metric: unit} as BENCHMARK.json lists them for this kind of run."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class Outcome:
    """One request's result: its timed latency, its normalised output (None
    when it failed), and the CLI exit code, or for an in-process call the
    code the CLI maps its exception to (3 for CharacteristicError)."""

    latency_ns: int
    output: Optional[dict] = None
    error: Optional[str] = None
    exit_code: int = 0
    output_bytes: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    busy_ns: int = 0
    latencies_ms: list = field(default_factory=list)
    oracle_checks: int = 0
    characteristic_errors: int = 0
    exit_codes: dict = field(default_factory=dict)
    output_bytes: list = field(default_factory=list)
    payload_bits_max: int = 0
    errors: list = field(default_factory=list)
    gauge: reference.Gauge = field(default_factory=reference.Gauge)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def latencies(self, scaled: bool) -> list:
        """Request times in ms: wall times, or scaled by the gauge."""
        return self.gauge.scaled(self.latencies_ms) if scaled else self.latencies_ms

    def throughput_rps(self, scaled: bool = True) -> float:
        """Successful requests per second of request time."""
        total_ms = sum(self.latencies(scaled))
        return self.succeeded / (total_ms / 1e3) if total_ms else 0.0

    def latency_deciles_ms(self, scaled: bool = True) -> list:
        return statistics.quantiles(self.latencies(scaled), n=10)


class Harness:
    """Runs requests of one workload and checks every output."""

    def __init__(self, workload: str, seed: int):
        import checks
        import layers
        import library

        self.checks, self.layers, self.library = checks, layers, library
        self.ls = library.ls
        self.workload = workload
        self.seed = seed
        self.check_rng = random.Random(f"check/{workload}/{seed}")
        self.env = dict(os.environ, PYTHONPATH=str(library.SRC))

    # -- child processes ---------------------------------------------------

    def spawn(self, argv: list) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable] + argv, capture_output=True, env=self.env,
                              cwd=str(self.library.ROOT), timeout=CHILD_TIMEOUT_S)

    def child_seconds(self, code: str) -> float:
        """Run `code` in a fresh interpreter; it prints a float."""
        done = self.spawn(["-c", code])
        if done.returncode != 0:
            raise RuntimeError(f"child failed: {done.stderr.decode(errors='replace')}")
        return float(done.stdout)

    def gauge(self) -> reference.Gauge:
        """In-process requests are gauged by reference.routine, CLI
        requests by starting a bare interpreter."""
        if self.workload == "cli":
            return reference.Gauge(lambda: self.spawn(["-c", "pass"]),
                                   reference.NOMINAL_SPAWN_MS)
        return reference.Gauge()

    def wall_ms(self, argv: list) -> float:
        start = time.perf_counter_ns()
        self.spawn(argv)
        return (time.perf_counter_ns() - start) / 1e6

    def setup_s(self) -> float:
        """Median over fresh workers of the first import plus field set-up,
        each scaled by the gauge samples around it; the CLI workload's
        worker imports linsubres.cli."""
        module = "linsubres.cli" if self.workload == "cli" else "linsubres"
        code = ("import time; t = time.perf_counter(); import " + module + "; "
                "from linsubres import prime_field, rationals; rationals(); "
                f"prime_field({workloads.P_LINEAR}); print(time.perf_counter() - t)")
        self.child_seconds(code)  # untimed: fills the bytecode cache
        gauge, seconds = self.gauge(), []
        for _ in range(SETUP_RUNS):
            gauge.sample()
            seconds.append(self.child_seconds(code))
        gauge.sample()
        return statistics.median(gauge.scaled(seconds))

    # -- one request ---------------------------------------------------------

    def in_process(self, req, tracer=None, phases=None) -> Outcome:
        call, args = self.library.prepare(req)
        counter = None
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                result = call(*args)
            else:
                with tracer.span(self.layers.ENTRY_SPANS[req.kind], req.rid):
                    with self.ls.count_ops() as counter:
                        result = call(*args)
        except Exception as exc:  # counted as a failed request
            outcome = Outcome(time.perf_counter_ns() - start, error=f"{type(exc).__name__}: {exc}")
            if isinstance(exc, self.ls.errors.CharacteristicError):
                outcome.exit_code = 3
            return outcome
        latency = time.perf_counter_ns() - start
        if tracer is not None:
            phases.append(dict(self.layers.time_phases(req, tracer), kind=req.kind,
                               entry_ms=latency / 1e6, ops=counter.snapshot(),
                               low=min(req.m, req.n)))
        return Outcome(latency, self.library.normalise(req.kind, result))

    def cli(self, req, tracer=None, phases=None) -> Outcome:
        argv = ["-m", "linsubres.cli"] + workloads.cli_argv(req)
        span = tracer.span("cli.process", req.rid) if tracer else contextlib.nullcontext()
        start = time.perf_counter_ns()
        try:
            with span:
                done = self.spawn(argv)
                output = None
                if done.returncode == 0:
                    output = self.library.normalise_cli(req, json.loads(done.stdout))
        except (subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            return Outcome(time.perf_counter_ns() - start, error=f"{type(exc).__name__}: {exc}",
                           exit_code=-1)
        latency = time.perf_counter_ns() - start
        outcome = Outcome(latency, output, exit_code=done.returncode,
                          output_bytes=len(done.stdout))
        if done.returncode != 0:
            outcome.error = f"exit {done.returncode}: {done.stderr.decode(errors='replace')[-300:]}"
        elif tracer is not None:
            with tracer.span("cli.compute", req.rid) as compute:
                with self.ls.count_ops() as counter:
                    computed = self.library.cli_in_process(req)
            with tracer.span("cli.serialize", req.rid) as serialize:
                self.library.serialise(req, computed)
            phases.append({"kind": req.kind, "process_ms": latency / 1e6,
                           "compute_ms": compute.ms, "serialize_ms": serialize.ms,
                           "ops": counter.snapshot()})
        return outcome

    # -- the closed loop ---------------------------------------------------

    def run(self, stream, seconds: float, tracer=None, phases=None, operands=None,
            count: Optional[int] = None) -> tuple:
        """Issue whole blocks of requests until the timed calls add up to
        `seconds` and at least MIN_REQUESTS were made, or exactly `count`
        requests.  The tally's gauge is sampled before each request and after
        the last, outside their timed calls.
        Returns (tally, requests issued)."""
        execute = self.cli if self.workload == "cli" else self.in_process
        tally, issued = Tally(gauge=self.gauge()), []
        for req in stream:
            if count is None:
                if (tally.busy_ns >= seconds * 1e9 and tally.attempted >= MIN_REQUESTS
                        and tally.attempted % workloads.BLOCKS[self.workload] == 0):
                    break
            elif len(issued) == count:
                break
            issued.append(req)
            tally.gauge.sample()
            outcome = execute(req, tracer, phases)
            self.record(tally, req, outcome, operands)
        tally.gauge.sample()
        return tally, issued

    def record(self, tally: Tally, req, outcome: Outcome, operands=None) -> None:
        tally.attempted += 1
        tally.busy_ns += outcome.latency_ns
        tally.latencies_ms.append(outcome.latency_ns / 1e6)
        tally.exit_codes[outcome.exit_code] = tally.exit_codes.get(outcome.exit_code, 0) + 1
        if outcome.output_bytes:
            tally.output_bytes.append(outcome.output_bytes)
        if outcome.output is None:
            tally.failed += 1
            if outcome.exit_code == 3:
                tally.characteristic_errors += 1
            tally.errors.append({"request": req.__dict__, "error": outcome.error})
            return
        try:
            ok, used_oracle = self.checks.check(req, outcome.output, self.check_rng)
        except Exception as exc:  # a check that cannot complete is a failed check
            ok, used_oracle = False, False
            outcome.error = f"check raised {type(exc).__name__}: {exc}"
        tally.oracle_checks += used_oracle
        tally.payload_bits_max = max(tally.payload_bits_max, self.layers.payload_bits(outcome.output))
        if operands is not None:
            operands.offer(req, outcome.output)
        if not ok:
            tally.failed += 1
            tally.wrong += 1
            tally.errors.append({"request": req.__dict__,
                                 "error": outcome.error or "output failed its check"})

    def warm_up(self) -> None:
        """Untimed, unchecked: imports, the prime_field cache, first calls."""
        stream = workloads.requests(self.workload, -1 - self.seed)
        execute = self.cli if self.workload == "cli" else self.in_process
        for _ in range(3):
            execute(next(stream))

    # -- reports -------------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple:
        setup = self.setup_s()
        self.warm_up()
        tally, _ = self.run(workloads.requests(self.workload, self.seed), seconds)
        usage = resource.RUSAGE_CHILDREN if self.workload == "cli" else resource.RUSAGE_SELF
        wall = tally.latency_deciles_ms(scaled=False)
        print(f"wall, unscaled: throughput_rps = {tally.throughput_rps(scaled=False):.6g}, "
              f"latency_p50_ms = {wall[4]:.6g}, latency_p90_ms = {wall[8]:.6g}; reference "
              f"task {tally.gauge.mean_ms():.4g} ms (nominal {tally.gauge.nominal_ms} ms) over "
              f"{len(tally.gauge.samples_ns)} samples")
        deciles = tally.latency_deciles_ms()
        metrics = {
            "setup_s": setup,
            "throughput_rps": tally.throughput_rps(),
            "latency_p50_ms": deciles[4],
            "latency_p90_ms": deciles[8],
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }
        return tally, metrics

    def per_layer(self, seconds: float) -> tuple:
        import tracing

        layers = self.layers
        interpreter = statistics.median(self.wall_ms(["-c", "pass"]) for _ in range(PROBE_RUNS))
        imported = statistics.median(
            self.wall_ms(["-c", "import linsubres.cli"]) for _ in range(PROBE_RUNS))
        self.warm_up()
        stream = workloads.requests(self.workload, self.seed)
        plain, issued = self.run(stream, seconds / 2)
        tracer, phases = tracing.Tracer(), []
        operands = layers.OperandSample(random.Random(f"operands/{self.seed}"))
        traced, _ = self.run(iter(issued), 0, tracer, phases, operands, count=len(issued))
        op_ns = operands.op_ns()
        mean = layers.mean

        def avg(key, kinds=None):
            return mean(p[key] for p in phases
                        if key in p and (kinds is None or p["kind"] in kinds))

        def ops(attr):
            return mean(getattr(p["ops"], attr) for p in phases)

        sres = [p for p in phases if p["kind"] == "sres_fast"
                and "fastsubres.leading_coefficient_sd" in p]
        cof = [p for p in phases if p["kind"] == "cofactors" and "jacobi.expand_pair_basis" in p]
        psres = [p for p in phases if p["kind"] == "psres_all"]
        is_cli = self.workload == "cli"
        metrics = {
            "field.mul_ns": op_ns["mul"],
            "field.div_ns": op_ns["div"],
            "field.add_ns": op_ns["add"],
            "field.adds_per_request": ops("adds"),
            "field.muls_per_request": ops("muls"),
            "field.divs_per_request": ops("divs"),
            "field.negs_per_request": ops("negs"),
            "field_ops_per_request": mean(p["ops"].total() for p in phases),
            "field.payload_bits_max": max(plain.payload_bits_max, traced.payload_bits_max),
            "field.binary_pow_ms": avg("field.binary_pow"),
            "combinat.seed_ms": avg("combinat.seed"),
            "fastsubres.sres_fast_ms": avg("entry_ms", ("sres_fast",)),
            "fastsubres.leading_coefficient_ms": avg("fastsubres.leading_coefficient_sd"),
            "fastsubres.sres_bernstein_ms": avg("entry_ms", ("sres_bernstein",)),
            "fastsubres.cofactors_ms": avg("entry_ms", ("cofactors",)),
            "fastsubres.characteristic_errors":
                plain.characteristic_errors + traced.characteristic_errors,
            "fastsubres.ratio_chain_ms": mean(
                p["fastsubres.leading_coefficient_sd"] - p["field.binary_pow"]
                - p.get("combinat.seed", 0.0) for p in sres),
            "fastsubres.recurrence_ms": mean(
                p["entry_ms"] - p["fastsubres.leading_coefficient_sd"] for p in sres),
            "fastsubres.cofactor_chain_ms": mean(
                p["entry_ms"] - p["jacobi.pair_basis_coeffs"] - p["jacobi.expand_pair_basis"]
                - p["field.binary_pow"] for p in cof),
            "psres.psres_all_ms": mean(p["entry_ms"] for p in psres),
            "psres.ops_per_value": mean(p["ops"].total() / p["low"] for p in psres),
            "jacobi.pair_basis_coeffs_ms": avg("jacobi.pair_basis_coeffs"),
            "jacobi.expand_pair_basis_ms": avg("jacobi.expand_pair_basis"),
            "poly.oracle_checks": plain.oracle_checks + traced.oracle_checks,
            "cli.interpreter_ms": interpreter,
            "cli.import_ms": imported - interpreter,
            "cli.compute_ms": avg("compute_ms"),
            "cli.serialize_ms": avg("serialize_ms"),
            "cli.residual_ms": (avg("process_ms") - imported - avg("compute_ms")
                                - avg("serialize_ms")) if is_cli else 0.0,
            "cli.output_bytes": mean(traced.output_bytes),
            "cli.exit_2": sum(t.exit_codes.get(2, 0) for t in (plain, traced)),
            "cli.exit_3": sum(t.exit_codes.get(3, 0) for t in (plain, traced)) if is_cli else 0,
            "trace.overhead_share": 1 - traced.throughput_rps() / plain.throughput_rps(),
            "machine.reference_ms": plain.gauge.mean_ms(),
        }
        tally = Tally(attempted=plain.attempted + traced.attempted,
                      failed=plain.failed + traced.failed, wrong=plain.wrong + traced.wrong,
                      errors=plain.errors + traced.errors)
        metrics["failed_share"] = tally.failed / tally.attempted
        summary = {"workload": self.workload, "seed": self.seed, "requests": len(issued),
                   "metrics": metrics}
        path = self.library.ROOT / ".bench_build" / "perfbench" / \
            f"trace-{self.workload}-seed{self.seed}.json"
        tracer.write(path, summary)
        print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(self.library.ROOT)}")
        return tally, metrics

    # -- standing defects and environment ----------------------------------

    def standing_defects(self) -> dict:
        """Known defects, reproduced on every run and counted, never routed
        around in the program.  True means the defect is still present."""
        import linsubres.cli

        ls = self.ls
        found = {}
        big = self.spawn(["-m", "linsubres.cli", "compute", "--m=256", "--n=256", "--d=128",
                          "--alpha=1", "--beta=2"])
        found["q_output_over_4300_digits_exits_2"] = (
            big.returncode == 2 and b"4300" in big.stderr)
        negative = self.spawn(["-m", "linsubres.cli", "compute", "--m", "4", "--n", "3",
                               "--d", "1", "--alpha", "-5/2", "--beta", "1"])
        found["argparse_rejects_alpha_space_negative"] = (
            negative.returncode == 2 and b"expected one argument" in negative.stderr)
        field = ls.prime_field(7)  # d = 0 with max(m, n) <= p < m + n - 1
        try:
            ls.cofactors(ls.ProblemSpec(5, 4, 0, field.element(1), field.element(2)))
            found["cofactors_d0_gap_characteristic_error"] = False
        except ls.errors.CharacteristicError:
            found["cofactors_d0_gap_characteristic_error"] = True
        (row,) = linsubres.cli.run_bench([8], ls.prime_field(10007), 0, ("fast",))
        fixed = ls.sres_fast(ls.ProblemSpec(8, 8, 4, ls.prime_field(10007).element(1),
                                            ls.prime_field(10007).element(2))).op_count
        found["bench_fixes_delta_minus_one"] = (row.adds, row.muls, row.divs) == (
            fixed.adds, fixed.muls, fixed.divs)
        return found


def environment(library) -> dict:
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    digest = hashlib.sha256()
    for path in sorted((library.SRC / "linsubres").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (library.ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(library.ROOT),
                                capture_output=True, text=True, timeout=10).stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness = Harness(args.workload, args.seed)
    except (ImportError, RuntimeError) as exc:
        print(f"error: cannot load linsubres: {exc}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(harness.library)))
    defects = harness.standing_defects()
    print("standing defects: " + json.dumps(defects))
    if args.trace:
        tally, metrics = harness.per_layer(args.seconds)
        metrics["defects.reproduced"] = sum(defects.values())
    else:
        tally, metrics = harness.end_to_end(args.seconds)
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for error in tally.errors[:5]:
        print("failed: " + json.dumps(error))
    print(f"{args.workload}: {tally.attempted} requests, {tally.failed} failed, "
          f"{tally.wrong} wrong")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
