"""The benchmark's one door into linsubres.

Imports the package from the checkout's own `src/`, never from an
installed copy, turns requests into library arguments, runs one request
in-process, and normalises every output (in-process objects and CLI JSON
alike) into exact payloads: Fractions over Q, residues over F_p.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_linsubres():
    """Import linsubres from ROOT/src, or raise RuntimeError."""
    if not (SRC / "linsubres" / "__init__.py").is_file():
        raise RuntimeError(f"no linsubres sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import linsubres

    if Path(linsubres.__file__).resolve().parent != SRC / "linsubres":
        raise RuntimeError(f"linsubres imported from {linsubres.__file__}, not {SRC}")
    return linsubres


ls = import_linsubres()


def spec_of(req) -> "ls.ProblemSpec":
    """ProblemSpec of a request with an index d."""
    descriptor = ls.parse_field_spec(req.field)
    return ls.ProblemSpec(req.m, req.n, req.d, descriptor.from_str(req.alpha),
                          descriptor.from_str(req.beta))


def roots_of(req) -> tuple:
    descriptor = ls.parse_field_spec(req.field)
    return descriptor.from_str(req.alpha), descriptor.from_str(req.beta)


def prepare(req):
    """(entry point, its arguments) for an in-process request; built before
    the clock starts so that only the library call is timed."""
    if req.kind == "psres_all":
        return ls.psres_all, (req.m, req.n) + roots_of(req)
    return getattr(ls, req.kind), (spec_of(req),)


def _payloads(values) -> list:
    return [v.payload for v in values]


def normalise(kind: str, output) -> dict:
    """Exact payloads of an in-process output."""
    if kind == "psres_all":
        return {"values": _payloads(output)}
    if kind == "cofactors":
        return {"case": output.case.value, "f": _payloads(output.f.coeffs),
                "g": _payloads(output.g.coeffs)}
    prefactor = None if output.prefactor is None else output.prefactor.payload
    return {"case": output.case.value, "coeffs": _payloads(output.coeffs),
            "prefactor": prefactor}


def _parse(text: str, modulus: int):
    if modulus:
        return int(text) % modulus
    return Fraction(text)


def normalise_cli(req, obj: dict) -> dict:
    """Exact payloads of one CLI JSON document."""
    p = req.modulus
    if req.kind == "psres":
        return {"values": [_parse(s, p) for s in obj["psres"]]}
    prefactor = obj.get("prefactor")
    out = {"case": obj["case"], "coeffs": [_parse(s, p) for s in obj["coeffs"]],
           "prefactor": None if prefactor is None else _parse(prefactor, p)}
    if "cofactors" in obj:
        for key in ("f", "g"):
            out[key] = [_parse(s, p) for s in obj["cofactors"][key]["coeffs"]]
    return out


def serialise(req, output) -> str:
    """The JSON text the CLI would print for this request's output."""
    if req.kind == "psres":
        values, ops = output
        alpha, beta = roots_of(req)
        payload = {"m": req.m, "n": req.n, "alpha": str(alpha), "beta": str(beta),
                   "field": req.field, "psres": [str(v) for v in values],
                   "ops": ops.as_dict()}
        return json.dumps(payload)
    result, pair = output
    payload = ls.result_to_json(result)
    if pair is not None:
        payload["cofactors"] = {"f": ls.poly_to_json(pair.f), "g": ls.poly_to_json(pair.g)}
    return json.dumps(payload)


def cli_in_process(req):
    """The computation one CLI request performs, without the process:
    returns what `serialise` takes."""
    if req.kind == "psres":
        with ls.count_ops() as counter:
            values = ls.psres_all(req.m, req.n, *roots_of(req))
        return values, counter
    spec = spec_of(req)
    result = ls.sres_bernstein(spec) if req.kind == "bernstein" else ls.sres_fast(spec)
    pair = ls.cofactors(spec) if req.kind == "cofactors" else None
    return result, pair
