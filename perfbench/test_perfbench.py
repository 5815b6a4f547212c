"""Tests of the benchmark harness itself (not of linsubres).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import io
import itertools
import json
import random
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import library
import reference
import run
import workloads
from library import ls

HERE = Path(__file__).resolve().parent


def first(workload, seed, count):
    return list(itertools.islice(workloads.requests(workload, seed), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_request_stream(workload):
    count = 2 * workloads.BLOCKS[workload] + 5
    assert first(workload, 7, count) == first(workload, 7, count)
    assert first(workload, 7, count) != first(workload, 8, count)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_has_the_same_shapes(workload):
    block = workloads.BLOCKS[workload]
    reqs = first(workload, 3, 2 * block)
    shapes = [sorted((r.shape, r.kind, r.m, r.n, r.d) for r in part)
              for part in (reqs[:block], reqs[block:])]
    assert shapes[0] == shapes[1]
    assert sorted(r.shape for r in reqs[:block]) == list(range(block))


def test_no_request_falls_in_a_known_defect():
    """Workload requests avoid the standing defects, which are reproduced
    separately: the d = 0 cofactor gap and prime fields below max(m, n)."""
    for workload in workloads.WORKLOADS:
        for req in first(workload, 11, workloads.BLOCKS[workload] * 2):
            p = req.modulus
            assert p == 0 or p >= max(req.m, req.n)
            if req.kind == "cofactors" and req.d == 0 and p:
                assert p >= req.m + req.n - 1


def test_cli_q_outputs_stay_below_the_int_str_limit():
    """The largest Q requests the cli workload makes print fewer than 4300
    digits per integer, so the workload itself never hits that defect."""
    q = ls.rationals()
    worst = [(workloads.CLI_Q_INT_MAX, q.element(9), q.element(-9)),
             (workloads.CLI_Q_RAT_MAX, q.from_str("-9/8"), q.from_str("9/7"))]
    for size, alpha, beta in worst:
        values = list(ls.psres_all(size, size, alpha, beta))
        for d in (0, size // 2, size - 1):
            values += ls.sres_fast(ls.ProblemSpec(size, size, d, alpha, beta)).coeffs
        digits = max(len(str(abs(part))) for v in values
                     for part in (v.payload.numerator, v.payload.denominator))
        assert digits < 3000


def _output(req):
    call, args = library.prepare(req)
    return library.normalise(req.kind, call(*args))


LARGE = workloads.Request(0, "sres_fast", "q", 40, 31, 12, "3", "-4")


@pytest.mark.parametrize("req", [
    LARGE,
    replace(LARGE, field="fp:1000003", alpha="12345", beta="678"),
    replace(LARGE, m=9, n=7, d=3),  # small: checked against the oracle
])
def test_checker_rejects_a_planted_wrong_coefficient(req):
    rng = random.Random(0)
    out = _output(req)
    assert checks.check(req, out, rng)[0]
    for index in (0, req.d // 2, req.d):
        planted = dict(out, coeffs=list(out["coeffs"]))
        planted["coeffs"][index] += 1
        assert not checks.check(req, planted, rng)[0]


@pytest.mark.parametrize("req", [
    replace(LARGE, kind="cofactors"),
    replace(LARGE, kind="cofactors", field="fp:1000003", alpha="12345", beta="678"),
    replace(LARGE, kind="cofactors", m=8, n=6, d=2),
])
def test_checker_rejects_a_planted_wrong_cofactor(req):
    rng = random.Random(0)
    out = _output(req)
    assert checks.check(req, out, rng)[0]
    for key in ("f", "g"):
        planted = dict(out, **{key: list(out[key])})
        planted[key][1] += 1
        assert not checks.check(req, planted, rng)[0]


def test_checker_accepts_every_branch():
    """Boundary and vanishing results, pair-basis outputs and principal
    subresultant vectors all pass their checks."""
    rng = random.Random(0)
    cases = [
        replace(LARGE, m=40, n=37, d=15, field="fp:61", alpha="5", beta="9"),   # m+n-d-1
        replace(LARGE, m=40, n=37, d=12, field="fp:53", alpha="5", beta="9"),   # vanishing
        replace(LARGE, kind="sres_bernstein"),
        replace(LARGE, kind="psres_all", d=None),
        replace(LARGE, kind="psres_all", d=None, m=9, n=8),
    ]
    for req in cases:
        ok, _ = checks.check(req, _output(req), rng)
        assert ok, req


def test_leading_closed_form_matches_the_determinant():
    q = ls.rationals()
    for m, n in ((5, 4), (7, 7), (9, 3)):
        f, g = ls.power_of_linear(q.element(2), m), ls.power_of_linear(q.element(-3), n)
        for d in range(min(m, n)):
            expected = checks.residue(ls.psres_oracle(f, g, d).payload, checks.MERSENNE_61)
            assert checks.leading_closed_form(m, n, d, 5, checks.MERSENNE_61) == expected


def test_a_failing_request_is_counted_not_dropped():
    harness = run.Harness("q-growth", 1)
    good = replace(LARGE, rid=0)
    bad = replace(LARGE, rid=1, kind="sres_bernstein", field="fp:53", alpha="5", beta="9",
                  m=40, n=37)  # pair basis in the vanishing band: CharacteristicError
    tally, issued = harness.run(iter([good, bad, good]), 0, count=3)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 1, 0)
    assert tally.characteristic_errors == 1
    assert len(tally.latencies_ms) == 3 and len(issued) == 3


def test_gauge_scales_each_time_by_the_samples_around_it():
    gauge = reference.Gauge(lambda: None, nominal_ms=2.0)
    gauge.samples_ns = [2_000_000, 6_000_000, 2_000_000]
    assert gauge.scaled([8.0, 4.0]) == [4.0, 2.0]
    assert gauge.mean_ms() == pytest.approx(10 / 3)
    with pytest.raises(ValueError):
        gauge.scaled([8.0])


def test_every_request_is_gauged_and_scaled():
    harness = run.Harness("q-growth", 1)
    reqs = [replace(LARGE, rid=i) for i in range(3)]
    tally, _ = harness.run(iter(reqs), 0, count=3)
    assert len(tally.gauge.samples_ns) == 4
    assert tally.throughput_rps(scaled=False) == pytest.approx(3 / (tally.busy_ns / 1e9))
    scaled = tally.gauge.scaled(tally.latencies_ms)
    assert tally.throughput_rps() == pytest.approx(3 / (sum(scaled) / 1e3))
    assert tally.latency_deciles_ms()[4] == pytest.approx(statistics.quantiles(scaled, n=10)[4])


def _main(monkeypatch, *args):
    monkeypatch.setattr(workloads, "BLOCKS", dict.fromkeys(workloads.BLOCKS, 4))
    monkeypatch.setattr(run, "MIN_REQUESTS", 4)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "PROBE_RUNS", 1)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert run.main(list(args)) == 0
    return stdout.getvalue().splitlines()


@pytest.mark.parametrize("workload,trace", [("cofactors", "1"), ("q-growth", "0"),
                                            ("cli", "0")])
def test_every_declared_metric_is_printed_with_its_unit(monkeypatch, workload, trace):
    lines = _main(monkeypatch, "--workload", workload, "--seed", "2", "--seconds", "0",
                  "--trace", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 4
    declared = run.declared_units(trace == "1")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
