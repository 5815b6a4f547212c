"""CLI contract: JSON payloads, CSV schema, exit codes."""

import csv
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from linsubres import check
from linsubres.check import CSV_HEADER, run_bench
from linsubres.cli import main
from linsubres.fastsubres import ProblemSpec, leading_coefficient_sd, sres_fast
from linsubres.field import prime_field, rationals
from linsubres.poly import DensePoly, power_of_linear

SRC = Path(__file__).resolve().parent.parent / "src"


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_compute_generic(capsys):
    payload = run_json(
        capsys,
        ["compute", "--m", "2", "--n", "2", "--d", "1", "--alpha", "0", "--beta", "1"],
    )
    ops = payload.pop("ops")
    assert payload == {
        "m": 2, "n": 2, "d": 1, "alpha": "0", "beta": "1", "field": "q",
        "case": "generic", "basis": "monomial", "coeffs": ["1", "-2"],
    }
    assert set(ops) == {"add", "mul", "div", "neg"}


def test_compute_boundary_with_cofactors(capsys):
    payload = run_json(
        capsys,
        [
            "compute", "--m", "3", "--n", "3", "--d", "2",
            "--alpha", "2", "--beta", "1", "--field", "fp:3", "--cofactors",
        ],
    )
    assert payload["case"] == "boundary"
    assert payload["coeffs"] == ["1"]
    assert payload["cofactors"]["f"] == {"field": "fp:3", "coeffs": ["2"]}
    assert payload["cofactors"]["g"] == {"field": "fp:3", "coeffs": ["1"]}


def test_compute_vanishing(capsys):
    payload = run_json(
        capsys,
        [
            "compute", "--m", "5", "--n", "4", "--d", "1",
            "--alpha", "2", "--beta", "1", "--field", "fp:5",
        ],
    )
    assert payload["case"] == "vanishing"
    assert payload["coeffs"] == ["0", "0"]


def test_compute_bernstein(capsys):
    payload = run_json(
        capsys,
        [
            "compute", "--m", "4", "--n", "3", "--d", "2",
            "--alpha", "2", "--beta", "5", "--basis", "bernstein",
        ],
    )
    assert payload["basis"] == "bernstein"
    assert payload["prefactor"] == "9"
    assert payload["coeffs"] == ["3", "2", "1"]


def test_compute_rational_values(capsys):
    payload = run_json(
        capsys,
        ["compute", "--m", "1", "--n", "1", "--d", "0",
         "--alpha", "1/2", "--beta=-1/3"],
    )
    assert payload["coeffs"] == ["5/6"]


def test_psres_payload(capsys):
    payload = run_json(
        capsys, ["psres", "--m", "3", "--n", "3", "--alpha", "1", "--beta", "0"]
    )
    assert payload["psres"] == ["1", "6", "3"]
    assert set(payload["ops"]) == {"add", "mul", "div", "neg"}


def test_psres_degenerate_inputs(capsys):
    # alpha = beta is a valid request here: every entry is zero
    payload = run_json(
        capsys, ["psres", "--m", "2", "--n", "2", "--alpha", "1", "--beta", "1"]
    )
    assert payload["psres"] == ["0", "0"]
    payload = run_json(
        capsys, ["psres", "--m", "1", "--n", "5", "--alpha", "2", "--beta", "0"]
    )
    assert payload["psres"] == ["32"]


def test_exit_code_usage(capsys):
    # coincident roots
    assert main(["compute", "--m", "2", "--n", "2", "--d", "1",
                 "--alpha", "3", "--beta", "3"]) == 2
    assert "error:" in capsys.readouterr().err
    # composite modulus
    assert main(["compute", "--m", "2", "--n", "2", "--d", "1",
                 "--alpha", "0", "--beta", "1", "--field", "fp:4"]) == 2
    # index out of range
    assert main(["compute", "--m", "2", "--n", "3", "--d", "2",
                 "--alpha", "0", "--beta", "1"]) == 2
    # unreadable value
    assert main(["psres", "--m", "2", "--n", "2", "--alpha", "x", "--beta", "1"]) == 2
    # bad prime list
    assert main(["verify", "--primes", "4"]) == 2
    assert main(["verify", "--primes", "11,x"]) == 2
    # a degree box that holds no case
    assert main(["verify", "--max-degree", "0"]) == 2
    assert main(["verify", "--max-degree", "-1"]) == 2
    capsys.readouterr()


def test_exit_code_unsupported(capsys):
    assert main(["compute", "--m", "4", "--n", "4", "--d", "1",
                 "--alpha", "1", "--beta", "2", "--field", "fp:3"]) == 3
    err = capsys.readouterr().err
    assert "characteristic" in err
    assert main(["psres", "--m", "4", "--n", "4",
                 "--alpha", "1", "--beta", "2", "--field", "fp:5"]) == 3
    capsys.readouterr()


def test_compute_cofactors_in_the_d0_gap(capsys):
    # d = 0 with max(m, n) <= p < m + n - 1 has cofactors like every other case
    payload = run_json(capsys, ["compute", "--m", "5", "--n", "4", "--d", "0",
                                "--alpha", "1", "--beta", "2", "--field", "fp:7",
                                "--cofactors"])
    f_cof, g_cof = (payload["cofactors"][key]["coeffs"] for key in ("f", "g"))
    assert f_cof == ["1", "5", "1"] and g_cof == ["1", "2", "6", "6"]
    field = prime_field(7)
    alpha, beta = field.element(1), field.element(2)
    combo = (DensePoly.from_integers(field, map(int, f_cof)) * power_of_linear(alpha, 5)
             + DensePoly.from_integers(field, map(int, g_cof)) * power_of_linear(beta, 4))
    assert combo == DensePoly.of(sres_fast(ProblemSpec(5, 4, 0, alpha, beta)))


def test_missing_arguments_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--m", "2"])
    assert excinfo.value.code == 2


def test_verify_small_run(capsys):
    code = main(["verify", "--max-degree", "2", "--primes", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    for name in ("oracle", "jacobi", "pade", "bernstein"):
        assert any(line.startswith(f"{name}: PASS") for line in lines)
    assert lines[-1].startswith("PASS ")


def test_verify_single_suite(capsys):
    code = main(["verify", "--max-degree", "2", "--suite", "pade"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("pade: PASS")


def test_verify_skip_rules():
    """Over F_7, verify draws no (m, n) with 7 < max(m, n), checks psres
    only where 7 >= m + n, and the pair basis only at generic d."""
    F7 = prime_field(7)
    cases = check._cases([F7], 8, random.Random(0), 1)
    assert [(m, n) for m, n, _, _ in cases] == [(m, n) for m in range(1, 8) for n in range(1, 8)]
    one, two = F7.element(1), F7.element(2)
    assert list(check._check_psres(4, 4, one, two)) == []
    assert [ok for ok, _ in check._check_psres(4, 3, one, two)] == [True]
    # at (4, 7), d = 1 and 2 lie in the vanishing band and d = 3 is the boundary prime
    records = list(check._check_bernstein(4, 7, one, two))
    assert [(ok, detail["d"]) for ok, detail in records] == [(True, 0)]


def test_verify_failure_prints_counterexample(monkeypatch, capsys):
    def bad_suite(max_degree, primes, rng):
        yield True, {}
        yield False, {"why": "forced"}

    monkeypatch.setitem(check._SUITES, "oracle", bad_suite)
    code = main(["verify", "--suite", "oracle"])
    out = capsys.readouterr().out
    assert code == 4
    lines = out.strip().splitlines()
    assert lines[0] == "oracle: FAIL 1/2 cases"
    assert lines[1] == "FAIL 1/2 cases"
    assert lines[2] == "first counterexample:"
    assert json.loads(lines[3]) == {"suite": "oracle", "why": "forced"}


def bench_csv(capsys):
    """The data rows of the CSV a bench command printed, as {column: cell}."""
    table = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert table[0] == CSV_HEADER
    return [dict(zip(CSV_HEADER, line)) for line in table[1:]]


def test_bench_rows_and_schema(monkeypatch, capsys):
    rows = run_bench([4, 8], prime_field(10007), oracle_cutoff=8)
    assert [(r.m, r.algorithm) for r in rows] == [
        (4, "fast"), (4, "psres_all"), (4, "oracle"),
        (8, "fast"), (8, "psres_all"), (8, "oracle"),
    ]
    by_key = {(r.m, r.algorithm): r for r in rows}
    assert by_key[(8, "fast")].muls < by_key[(8, "oracle")].muls
    assert all(r.d == r.m // 2 and r.field == "fp:10007" for r in rows)
    assert all(type(value) is int for r in rows for value in r[:3] + r[5:])
    monkeypatch.setattr(check, "run_bench", lambda *args: rows)
    assert main(["bench", "--sizes", "4,8", "--oracle-cutoff", "8"]) == 0
    assert [list(line.values()) for line in bench_csv(capsys)] == [
        [str(value) for value in row] for row in rows]


def test_bench_cutoff_skips_oracle():
    rows = run_bench([4, 8], prime_field(10007), oracle_cutoff=4)
    assert [(r.m, r.algorithm) for r in rows] == [
        (4, "fast"), (4, "psres_all"), (4, "oracle"),
        (8, "fast"), (8, "psres_all"),
    ]


def test_bench_csv_output(capsys, tmp_path):
    assert main(["bench", "--sizes", "4", "--oracle-cutoff", "0"]) == 0
    reader = csv.reader(io.StringIO(capsys.readouterr().out))
    table = list(reader)
    assert table[0] == CSV_HEADER
    assert len(table) == 3  # header + fast + psres_all
    assert table[1][4] == "fast"

    target = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "4", "--oracle-cutoff", "4",
                 "--csv", str(target)]) == 0
    capsys.readouterr()
    with open(target, newline="") as handle:
        table = list(csv.reader(handle))
    assert table[0] == CSV_HEADER
    assert {row[4] for row in table[1:]} == {"fast", "psres_all", "oracle"}


def test_bench_rejects_bad_sizes(capsys):
    assert main(["bench", "--sizes", "0"]) == 2
    assert main(["bench", "--sizes", ""]) == 2
    capsys.readouterr()


def test_bench_algorithm_selection(capsys):
    assert main(["bench", "--sizes", "64,128", "--algorithms", "fast"]) == 0
    rows = bench_csv(capsys)  # one row per size
    assert [(int(r["m"]), r["algorithm"]) for r in rows] == [(64, "fast"), (128, "fast")]
    assert int(rows[1]["muls"]) <= 2.5 * int(rows[0]["muls"]) + 200

    assert main(["bench", "--sizes", "8", "--field", "fp:101",
                 "--algorithms", "fast,oracle"]) == 0
    rows = bench_csv(capsys)
    assert [r["algorithm"] for r in rows] == ["fast", "oracle"]
    fast, oracle = ([int(r[column]) for column in ("adds", "muls", "divs")] for r in rows)
    assert sum(fast) < sum(oracle)

    assert main(["bench", "--sizes", "16", "--field", "fp:101",
                 "--algorithms", "psres_all"]) == 0
    table = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(table) == 2


def test_bench_roots(capsys):
    """--alpha and --beta reach every row: at alpha = 1, beta = -1 zero
    coefficients let the recurrence skip terms, so the `fast` counts differ
    from the default roots' and equal sres_fast's at those roots."""
    argv = ["bench", "--sizes", "12", "--field", "fp:10007", "--algorithms", "fast"]
    F = prime_field(10007)
    counts = []
    for alpha, beta, flags in ((1, 2, []), (1, -1, ["--alpha", "1", "--beta", "-1"])):
        assert main(argv + flags) == 0
        (row,) = bench_csv(capsys)
        expected = sres_fast(ProblemSpec(12, 12, 6, F.element(alpha), F.element(beta))).op_count
        assert (int(row["adds"]), int(row["muls"]), int(row["divs"])) == (
            expected.adds, expected.muls, expected.divs)
        counts.append((row["adds"], row["muls"]))
    assert counts[0] != counts[1]
    assert main(argv + ["--alpha", "3", "--beta", "3"]) == 2
    assert "distinct roots" in capsys.readouterr().err


def test_bench_bad_csv_path_fails_before_any_work(monkeypatch, capsys, tmp_path):
    def no_work(*args):
        raise AssertionError("run_bench ran before the CSV target was opened")

    monkeypatch.setattr(check, "run_bench", no_work)
    target = tmp_path / "no_such_dir" / "bench.csv"
    assert main(["bench", "--sizes", "4", "--csv", str(target)]) == 2
    assert "no_such_dir" in capsys.readouterr().err


def test_bench_rejects_bad_algorithms(capsys):
    assert main(["bench", "--sizes", "4", "--algorithms", "slow"]) == 2
    assert "bad algorithm list" in capsys.readouterr().err


def test_run_verify_checks_its_arguments_before_printing(capsys):
    bad = [
        (0, [11], "all", "max-degree"),
        (-1, [11], "pade", "max-degree"),
        (2, [11], "nope", "unknown suite 'nope'"),
        (2, [4], "pade", "not prime"),
        (2, [11, 2**64], "oracle", ">= 2\\*\\*64"),
    ]
    for max_degree, primes, suite, message in bad:
        with pytest.raises(ValueError, match=message):
            check.run_verify(max_degree, primes, 0, suite)
    assert capsys.readouterr().out == ""


def test_run_bench_refuses_a_bad_algorithm_list(monkeypatch):
    def no_work(*args):
        raise AssertionError("run_bench timed a call before checking its algorithms")

    for name in ("sres_fast", "psres_all", "sres_oracle"):
        monkeypatch.setattr(check, name, no_work)
    for algorithms in ((), ("slow",), ["fast", "slow"], "fast"):
        with pytest.raises(ValueError, match="bad algorithm list"):
            run_bench([4], prime_field(10007), 0, algorithms)


def test_console_script_installed():
    path = shutil.which("linsubres")
    assert path, "console script linsubres not on PATH"
    proc = subprocess.run(
        [path, "compute", "--m", "2", "--n", "2", "--d", "1",
         "--alpha", "0", "--beta", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coeffs"] == ["1", "-2"]


def test_q_output_past_the_int_str_limit(capsys):
    """Coefficients over 4300 digits serialise under the cap, which the
    command leaves as it was."""
    cap = sys.get_int_max_str_digits()
    argv = ["compute", "--m=256", "--n=256", "--d=128", "--alpha=1", "--beta=2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == cap
    Q = rationals()
    top = leading_coefficient_sd(ProblemSpec(256, 256, 128, Q.element(1), Q.element(2)))
    sys.set_int_max_str_digits(0)
    try:
        expected = str(top.payload)
    finally:
        sys.set_int_max_str_digits(cap)
    assert len(expected) > 4300
    assert json.loads(out)["coeffs"][-1] == expected


def test_input_past_the_int_str_limit_is_a_usage_error(capsys):
    assert main(["compute", "--m=4", "--n=3", "--d=1", "--alpha=" + "7" * 5000,
                 "--beta=2"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and "5000 characters" in err
    assert len(err) < 200


def test_exponent_form_is_held_to_the_int_str_limit(capsys):
    """Fraction builds 10^e of "1e<e>" by arithmetic; the value is held to
    the digit cap as a plain decimal is, on both sides of the boundary, and
    a huge exponent is refused before it is built."""
    cap = sys.get_int_max_str_digits()
    head = ["psres", "--m=2", "--n=2", "--beta=3"]
    for alpha, expected in [("3", "3"), ("-5/2", "-5/2"), ("2.5", "5/2"), ("1e5", "100000"),
                            (f"1e{cap - 1}", "1" + "0" * (cap - 1)),
                            (f"1e-{cap - 1}", "1/1" + "0" * (cap - 1))]:
        payload = run_json(capsys, head + [f"--alpha={alpha}"])
        assert payload["alpha"] == expected
    for alpha in (f"1e{cap}", f"1e-{cap}", f"-2.5e{cap + 1}", "1." + "0" * (cap - 1) + "1",
                  "1e1000000", "1e-1000000"):
        assert main(head + [f"--alpha={alpha}"]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err and f"{cap}-digit input limit" in err and len(err) < 200
    sys.set_int_max_str_digits(0)
    try:
        payload = run_json(capsys, head + [f"--alpha=1e{cap}"])
    finally:
        sys.set_int_max_str_digits(cap)
    assert payload["alpha"] == "1" + "0" * cap


def test_rational_roots_over_a_prime_field(capsys):
    payload = run_json(capsys, ["compute", "--m=4", "--n=3", "--d=2", "--alpha=1/2",
                                "--beta=-5/2", "--field=fp:101"])
    F = prime_field(101)
    spec = ProblemSpec(4, 3, 2, F.element(1) / F.element(2), F.element(-5) / F.element(2))
    assert payload["alpha"] == str(spec.alpha) == "51"
    assert payload["coeffs"][-1] == str(leading_coefficient_sd(spec))
    assert main(["compute", "--m=4", "--n=3", "--d=2", "--alpha=1/101", "--beta=2",
                 "--field=fp:101"]) == 2


def test_prime_fields_read_the_rational_forms(capsys):
    """--alpha=1.5 over F_p is --alpha=3/2, and the exponent form is held
    to the digit cap over F_p as over Q."""
    head = ["compute", "--m=4", "--n=3", "--d=2", "--beta=2", "--field=fp:101"]
    assert run_json(capsys, head + ["--alpha=1.5"]) == run_json(capsys, head + ["--alpha=3/2"])
    cap = sys.get_int_max_str_digits()
    assert main(head + [f"--alpha=1e{cap}"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and f"{cap}-digit input limit" in err


def test_python_dash_m_linsubres():
    proc = subprocess.run(
        [sys.executable, "-m", "linsubres", "compute", "--m", "2", "--n", "2", "--d", "1",
         "--alpha", "0", "--beta", "1"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["coeffs"] == ["1", "-2"]


@pytest.mark.parametrize("head", [
    ["compute", "--m", "4", "--n", "3", "--d", "1"],
    ["compute", "--m", "4", "--n", "3", "--d", "2", "--cofactors", "--field", "fp:101"],
    ["psres", "--m", "4", "--n", "3"],
])
def test_negative_values_after_a_space(capsys, head):
    """`--alpha -5/2` parses as `--alpha=-5/2`, for --beta and psres too."""
    outputs = []
    for tail in (["--alpha", "-5/2", "--beta", "-7"], ["--alpha=-5/2", "--beta=-7"],
                 ["--beta", "-7", "--alpha", "-5/2"]):
        assert main(head + tail) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["alpha"] in ("-5/2", str(prime_field(101).from_str("-5/2")))


SWEEP_SHA256 = "e1a910fde07d3266073726a1d82685b677c57cd36775718831abc9009f838ae7"


def sweep_argv():
    """A fixed sweep of requests: compute on both bases and with
    --cofactors, and psres, over Q with integer and rational roots and over
    F_p in the generic, boundary and vanishing cases (and below max(m, n),
    which exits 3), d = 0 included."""
    roots = [("q", "1", "2"), ("q", "3", "-2"), ("q", "-7/9", "5/8"),
             ("fp:7", "1", "3"), ("fp:41", "2", "-5"), ("fp:1000003", "5", "-123456")]
    sizes = [(m, n) for m in range(1, 9) for n in range(1, 9)] + [(40, 33), (33, 40)]
    for field, alpha, beta in roots:
        common = [f"--alpha={alpha}", f"--beta={beta}", f"--field={field}"]
        for m, n in sizes:
            head = [f"--m={m}", f"--n={n}"]
            yield ["psres", *head, *common]
            for d in range(min(m, n)):
                for extra in ([], ["--basis=bernstein"], ["--cofactors"]):
                    yield ["compute", *head, f"--d={d}", *common, *extra]


def test_cli_sweep_is_byte_identical(capsys):
    """Every request of the sweep prints the same bytes and exits with the
    same code as when SWEEP_SHA256 was recorded: refactors of the kernels
    must not move an output."""
    digest, codes = hashlib.sha256(), set()
    for argv in sweep_argv():
        code = main(argv)
        out = capsys.readouterr().out
        codes.add(code)
        digest.update(f"{' '.join(argv)}\0{code}\0{out}\0".encode())
    assert codes == {0, 3}
    assert digest.hexdigest() == SWEEP_SHA256
