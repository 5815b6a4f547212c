"""Command line interface.

Subcommands: compute (one subresultant, optional cofactors), psres (all
principal subresultants), verify (self-check sweeps against the
determinant oracle and the Jacobi identities), bench (operation counts
and wall times in CSV).  Only compute and psres are on the request path,
and each imports only what it runs: compute imports linsubres.poly only
under --cofactors, psres imports linsubres.psres, and verify and bench
import linsubres.check.

Exit codes: 0 success, 2 usage or invalid values, 3 unsupported
characteristic case, 4 verification failure.
"""

import argparse
import json
import sys
from contextlib import nullcontext

from .errors import CharacteristicError, LinsubresError
from .field import count_ops, parse_field_spec
from .fastsubres import ProblemSpec, result_to_json, sres_bernstein, sres_fast

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY_FAILED = 4


def _parse_int_list(text: str, what: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad {what} list {text!r}") from exc
    if not values:
        raise ValueError(f"empty {what} list")
    return values


def _roots(args):
    """(field, alpha, beta) of the --field, --alpha and --beta options."""
    descriptor = parse_field_spec(args.field)
    return descriptor, descriptor.from_str(args.alpha), descriptor.from_str(args.beta)


def cmd_compute(args) -> int:
    _, alpha, beta = _roots(args)
    spec = ProblemSpec(args.m, args.n, args.d, alpha, beta)
    if args.basis == "bernstein":
        result = sres_bernstein(spec)
    else:
        result = sres_fast(spec)
    payload = result_to_json(result)
    if args.cofactors:
        from .poly import cofactors, poly_to_json

        pair = cofactors(spec)
        payload["cofactors"] = {"f": poly_to_json(pair.f), "g": poly_to_json(pair.g)}
    print(json.dumps(payload))
    return EXIT_OK


def cmd_psres(args) -> int:
    from .psres import psres_all

    descriptor, alpha, beta = _roots(args)
    with count_ops() as counter:
        values = psres_all(args.m, args.n, alpha, beta)
    payload = {
        "m": args.m,
        "n": args.n,
        "alpha": str(alpha),
        "beta": str(beta),
        "field": descriptor.spec_string(),
        "psres": [str(v) for v in values],
        "ops": counter.as_dict(),
    }
    print(json.dumps(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .check import run_verify

    primes = _parse_int_list(args.primes, "prime")
    if run_verify(args.max_degree, primes, args.seed, args.suite):
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def cmd_bench(args) -> int:
    import csv

    from .check import CSV_HEADER, _check_algorithms, run_bench

    sizes = _parse_int_list(args.sizes, "size")
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be >= 1")
    algorithms = [part.strip() for part in args.algorithms.split(",") if part.strip()]
    _check_algorithms(algorithms)  # before the CSV target is opened and truncated
    descriptor, alpha, beta = _roots(args)
    if alpha == beta:
        raise ValueError(f"bench needs distinct roots, have alpha = beta = {alpha}")
    # open the target first, so a bad path fails before any work is done
    with open(args.csv, "w", newline="") if args.csv else nullcontext(sys.stdout) as handle:
        rows = run_bench(sizes, descriptor, args.oracle_cutoff, algorithms, alpha, beta)
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linsubres",
        description="Exact subresultants of (x-alpha)^m and (x-beta)^n "
        "in linear arithmetic complexity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="one subresultant, optionally with Bezout cofactors"
    )
    compute.add_argument("--m", type=int, required=True, help="exponent of x - alpha")
    compute.add_argument("--n", type=int, required=True, help="exponent of x - beta")
    compute.add_argument("--d", type=int, required=True, help="subresultant index")
    compute.add_argument("--alpha", required=True, help="root of f (e.g. 3 or -5/2)")
    compute.add_argument("--beta", required=True, help="root of g")
    compute.add_argument("--field", default="q", help="q or fp:<prime> (default q)")
    compute.add_argument(
        "--basis", choices=["monomial", "bernstein"], default="monomial",
        help="coefficient basis of the output",
    )
    compute.add_argument(
        "--cofactors", action="store_true", help="also emit the Bezout cofactors"
    )
    compute.set_defaults(func=cmd_compute)

    psres = sub.add_parser("psres", help="all principal subresultants at once")
    psres.add_argument("--m", type=int, required=True)
    psres.add_argument("--n", type=int, required=True)
    psres.add_argument("--alpha", required=True)
    psres.add_argument("--beta", required=True)
    psres.add_argument("--field", default="q")
    psres.set_defaults(func=cmd_psres)

    verify = sub.add_parser(
        "verify", help="self-check sweeps against the determinant oracle"
    )
    verify.add_argument("--max-degree", type=int, default=6)
    verify.add_argument(
        "--suite", choices=["oracle", "jacobi", "pade", "bernstein", "all"],
        default="all",
    )
    verify.add_argument("--primes", default="11,13,101",
                        help="comma-separated prime moduli")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="operation counts and wall times (CSV)")
    bench.add_argument("--sizes", default="16,32,64,128,256,512,1024",
                       help="comma-separated values of m = n")
    bench.add_argument("--field", default="fp:10007")
    bench.add_argument("--algorithms", default="fast,psres_all,oracle",
                       help="comma-separated subset of fast, psres_all, oracle")
    bench.add_argument("--alpha", default="1", help="root of f (default 1)")
    bench.add_argument("--beta", default="2", help="root of g (default 2)")
    bench.add_argument("--csv", help="write rows to this file instead of stdout")
    bench.add_argument("--oracle-cutoff", type=int, default=64,
                       help="run the determinant oracle only up to this size")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # read `--alpha -5/2` as `--alpha=-5/2`, and `--alpha -.5e1` too:
    # argparse takes -5/2 and -.5e1 for options
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        value = argv[i]
        if argv[i - 1] in ("--alpha", "--beta") and value[:1] == "-" and (
                value[1:2].isdigit() or value[1:2] == "."):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={value}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CharacteristicError as exc:
        # Includes UnsupportedCase: a well-formed request outside the
        # supported characteristic hypotheses.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (LinsubresError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def __getattr__(name):
    # run_bench lives in .check; served here for callers of cli.run_bench
    if name == "run_bench":
        from .check import run_bench

        return run_bench
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
