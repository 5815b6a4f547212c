"""Package layout: the request path loads only what it runs, the package
namespace is lazy, and the records on the request path are plain
namedtuples."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import linsubres
from linsubres import check, cli
from linsubres.errors import PreconditionError
from linsubres.fastsubres import ProblemSpec, sres_fast
from linsubres.field import rationals
from linsubres.jacobi import JacobiParams
from linsubres.poly import DensePoly

SRC = Path(__file__).resolve().parent.parent / "src"
ROOTS = ["--m=8", "--n=6", "--alpha=1", "--beta=2", "--field=fp:1000003"]
COMPUTE = ["-m", "linsubres.cli", "compute", "--d=3", *ROOTS]
NOT_FOR_COMPUTE = {"linsubres.check", "linsubres.jacobi", "linsubres.psres",
                   "dataclasses", "inspect", "csv", "json"}
# fractions imports decimal (and _decimal) and numbers; no module needs __future__
RATIONAL_STACK = {"fractions", "decimal", "numbers", "__future__"}


def imported(args) -> set:
    """The modules `python -X importtime <args>` imports, with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:") and not line.endswith("imported package")}


@pytest.fixture(scope="module")
def loaded():
    """Modules a request imports beyond those of a bare interpreter."""
    bare = imported(["-c", "pass"])
    return lambda args: imported(args) - bare


def test_compute_loads_no_check_code(loaded):
    for basis in ("monomial", "bernstein"):
        modules = loaded(COMPUTE + [f"--basis={basis}"])
        assert {name for name in modules if name.split(".")[0] == "linsubres"} == {
            "linsubres", "linsubres.errors", "linsubres.field", "linsubres.fastsubres"}
        assert not modules & NOT_FOR_COMPUTE


def test_cofactors_adds_only_poly(loaded):
    assert loaded(COMPUTE + ["--cofactors"]) - loaded(COMPUTE) == {"linsubres.poly"}


def test_psres_adds_only_psres(loaded):
    psres = ["-m", "linsubres.cli", "psres", *ROOTS]
    assert loaded(psres) - loaded(COMPUTE) == {"linsubres.psres"}


def test_fp_requests_load_no_fractions(loaded):
    """No F_p request with integer roots builds a Fraction."""
    psres = ["-m", "linsubres.cli", "psres", *ROOTS]
    for args in (COMPUTE, COMPUTE + ["--basis=bernstein"], COMPUTE + ["--cofactors"], psres):
        assert not loaded(args) & RATIONAL_STACK, args


@pytest.mark.parametrize("field", ["--field=fp:1000003", "--field=q"])
def test_requests_load_no_argparse(loaded, field):
    """The CLI reads its options without argparse, and so without gettext
    and locale, which argparse's first parser loads; and compute and psres
    write their JSON with cli.json_text, so no request loads json (whose
    import loads json.decoder, json.scanner, json.encoder and _json)."""
    for command in (["compute", "--d=3"], ["compute", "--d=3", "--basis=bernstein"],
                    ["compute", "--d=3", "--cofactors"], ["psres"]):
        args = ["-m", "linsubres.cli", *command, *ROOTS, field]
        assert not loaded(args) & {"argparse", "gettext", "locale", "json"}, args


def test_q_integer_requests_load_no_fractions(loaded):
    """Over Q with integer roots every value is an integer, held as an int,
    so no request builds a Fraction."""
    q = [arg for arg in ROOTS if not arg.startswith("--field=")] + ["--field=q"]
    compute = ["-m", "linsubres.cli", "compute", "--d=3", *q]
    psres = ["-m", "linsubres.cli", "psres", *q]
    for args in (compute, compute + ["--basis=bernstein"], compute + ["--cofactors"], psres):
        assert not loaded(args) & RATIONAL_STACK, args


def test_q_compute_still_loads_fractions(loaded):
    """A rational root is a Fraction, so the guard above is not vacuous."""
    modules = loaded([arg for arg in COMPUTE if not arg.startswith("--field=")]
                     + ["--field=q", "--alpha=1/2"])
    assert "fractions" in modules and "__future__" not in modules


def test_no_module_imports_future(loaded):
    assert "__future__" not in loaded(["-c", "import linsubres"])
    future = [path.name for path in sorted((SRC / "linsubres").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ImportFrom) and node.module == "__future__"]
    assert not future, future


@pytest.mark.parametrize("command", [["verify", "--max-degree", "1"], ["bench", "--sizes", "4"]])
def test_check_commands_load_no_dataclasses(loaded, command):
    modules = loaded(["-m", "linsubres.cli", *command])
    assert "linsubres.check" in modules
    assert not modules & {"dataclasses", "inspect"}


def test_import_linsubres_loads_no_submodule(loaded):
    modules = loaded(["-c", "import linsubres"])
    assert "linsubres" in modules
    assert not [name for name in modules if name.startswith("linsubres.")]


def package_imports():
    """(module file, enclosing function or None, imported linsubres module)
    for every import statement in the package."""
    for path in sorted((SRC / "linsubres").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    scopes.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [f"linsubres.{node.module or alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                if name and name.split(".")[0] == "linsubres":
                    yield path.name, scopes.get(node), name


def test_only_the_cli_imports_inside_a_function():
    local = [(file, func, name) for file, func, name in package_imports() if func]
    assert local and all(file == "cli.py" for file, _, _ in local), local


def test_no_module_sets_the_int_str_cap():
    """The int-to-str digit cap guards parsing; no module lifts or moves it."""
    calls = [path.name for path in sorted((SRC / "linsubres").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and "set_int_max_str_digits"
             in {getattr(node.func, "attr", None), getattr(node.func, "id", None)}]
    assert not calls, calls


def test_only_check_imports_jacobi():
    assert {file for file, _, name in package_imports()
            if name == "linsubres.jacobi"} == {"check.py"}


@pytest.mark.parametrize("name", linsubres.__all__)
def test_every_exported_name_is_its_defining_object(name):
    value = getattr(linsubres, name)
    if name == "__version__":
        assert isinstance(value, str)
    elif isinstance(value, ModuleType):
        assert value is sys.modules[f"linsubres.{name}"]
    else:
        assert value.__module__.startswith("linsubres.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_public_names_are_pinned():
    assert sorted(linsubres.__all__) == [
        "Basis", "CharCase", "CofactorPair", "DensePoly", "FieldDescriptor", "FieldValue",
        "JacobiParams", "OpCounter", "ProblemSpec", "SubresResult", "__version__",
        "binary_pow", "binomial", "classify", "cofactors", "count_ops", "errors",
        "expand_pair_basis", "factorial_ratio", "falling_product", "hyp2f1_poly",
        "jacobi_hypergeometric", "jacobi_rodrigues", "leading_coefficient_sd",
        "pair_basis_coeffs", "parse_field_spec", "pochhammer", "poly_to_json",
        "power_of_linear", "prime_field", "psres_all", "psres_oracle", "psres_schedule",
        "rationals", "result_to_json", "shifted_jacobi", "sres_bernstein", "sres_fast",
        "sres_oracle", "verify_pade_identity"]


def test_namespace_lists_and_rejects_names():
    assert set(linsubres.__all__) <= set(dir(linsubres))
    with pytest.raises(AttributeError):
        linsubres.no_such_name
    namespace = {}
    exec("from linsubres import *", namespace)
    assert set(linsubres.__all__) <= set(namespace)


def test_cli_serves_run_bench_from_check():
    assert cli.run_bench is check.run_bench
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_records_keep_their_dataclass_behaviour():
    q = rationals()
    spec = ProblemSpec(4, 3, 2, q.element(2), q.element(5))
    same = ProblemSpec(m=4, n=3, d=2, alpha=q.element(2), beta=q.element(5))
    assert spec == same and hash(spec) == hash(same)
    assert repr(spec) == "ProblemSpec(m=4, n=3, d=2, alpha=<2 in q>, beta=<5 in q>)"
    with pytest.raises(AttributeError):
        spec.m = 5
    with pytest.raises(PreconditionError, match=r"need 0 <= d < min\(m, n\) = 3, got d=3"):
        ProblemSpec(4, 3, 3, q.element(2), q.element(5))
    with pytest.raises(PreconditionError, match="degree must be a nonnegative int"):
        JacobiParams(-1, 0, 0)
    result = sres_fast(spec)
    assert result.prefactor is None
    assert DensePoly.of(result).coeffs == result.coeffs
