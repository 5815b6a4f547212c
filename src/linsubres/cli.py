"""Command line interface.

Subcommands: compute (one subresultant, optional cofactors), psres (all
principal subresultants), verify (self-check sweeps against the
determinant oracle and the Jacobi identities), bench (operation counts
and wall times in CSV).  Only compute and psres are on the request path,
and each imports only what it runs: compute imports linsubres.poly only
under --cofactors, psres imports linsubres.psres, and verify and bench
import linsubres.check.

One table, COMMANDS, declares each subcommand's handler, help and
options, and one reader, parse_argv, reads the command line by it and
writes the -h text from it.  argparse is not used: its import and first
parser (which loads gettext and locale) cost a request more than the
arithmetic of the sizes it usually asks for.

compute and psres print their document through json_text, which writes
what json.dumps writes for the shapes they print.  json is not imported
on the request path: its import compiles the decoder's and encoder's
regexes and loads _json, for one call on a flat document.

Exit codes: 0 success, 2 usage or invalid values, 3 unsupported
characteristic case, 4 verification failure.  A usage error found while
reading the options raises SystemExit(2) after printing a usage line.
"""

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


def _roots(field: str, alpha: str, beta: str):
    """(field, alpha, beta) of the --field, --alpha and --beta values."""
    descriptor = parse_field_spec(field)
    return descriptor, descriptor.from_str(alpha), descriptor.from_str(beta)


def json_text(document) -> str:
    """json.dumps(document) for the documents compute and psres print:
    dicts with str keys, lists, ints and strs that JSON writes as they
    are (printable ASCII without '"' or '\\', as every decimal value, field
    spec and enum value is).  Any other value, bool and a str that would
    need escaping included, is a TypeError: only a defect in the program
    can hand the writer one, so it is not reported as a usage error."""
    kind = type(document)
    if kind is int:
        return str(document)
    if kind is str:
        if (document.isascii() and document.isprintable()
                and '"' not in document and "\\" not in document):
            return f'"{document}"'
        raise TypeError(f"the JSON writer does not escape strings, got {document[:40]!r}")
    if kind is list:
        return f"[{', '.join(map(json_text, document))}]"
    if kind is dict:
        for key in document:
            if type(key) is not str:
                raise TypeError(f"a JSON key must be a str, got {type(key).__name__}")
        return "{" + ", ".join(f"{json_text(key)}: {json_text(value)}"
                               for key, value in document.items()) + "}"
    raise TypeError(f"the JSON writer takes no {kind.__name__}")


def cmd_compute(m, n, d, alpha, beta, field, basis, cofactors) -> int:
    _, alpha, beta = _roots(field, alpha, beta)
    spec = ProblemSpec(m, n, d, alpha, beta)
    if basis == "bernstein":
        result = sres_bernstein(spec)
    else:
        result = sres_fast(spec)
    payload = result_to_json(result)
    if cofactors:
        from . import poly

        pair = poly.cofactors(spec)
        payload["cofactors"] = {"f": poly.poly_to_json(pair.f), "g": poly.poly_to_json(pair.g)}
    print(json_text(payload))
    return EXIT_OK


def cmd_psres(m, n, alpha, beta, field) -> int:
    from .psres import psres_all

    descriptor, alpha, beta = _roots(field, alpha, beta)
    with count_ops() as counter:
        values = psres_all(m, n, alpha, beta)
    payload = {
        "m": m,
        "n": n,
        "alpha": str(alpha),
        "beta": str(beta),
        "field": descriptor.spec_string(),
        "psres": [str(v) for v in values],
        "ops": counter.as_dict(),
    }
    print(json_text(payload))
    return EXIT_OK


def cmd_verify(max_degree, suite, primes, seed) -> int:
    from .check import run_verify

    if run_verify(max_degree, _parse_int_list(primes, "prime"), seed, suite):
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def cmd_bench(sizes, field, algorithms, alpha, beta, csv, oracle_cutoff) -> int:
    from csv import writer

    from .check import CSV_HEADER, _check_algorithms, run_bench

    sizes = _parse_int_list(sizes, "size")
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be >= 1")
    algorithms = [part.strip() for part in algorithms.split(",") if part.strip()]
    _check_algorithms(algorithms)  # before the CSV target is opened and truncated
    descriptor, alpha, beta = _roots(field, alpha, beta)
    if alpha == beta:
        raise ValueError(f"bench needs distinct roots, have alpha = beta = {alpha}")
    # open the target first, so a bad path fails before any work is done
    with open(csv, "w", newline="") if csv else nullcontext(sys.stdout) as handle:
        rows = run_bench(sizes, descriptor, oracle_cutoff, algorithms, alpha, beta)
        table = writer(handle)
        table.writerow(CSV_HEADER)
        table.writerows(rows)
    return EXIT_OK


REQUIRED = ...  # the default of an option that must be given

# {command: (handler, help, {option: (kind, default or REQUIRED, help)})},
# where a kind is int, str, a tuple of choices, or bool for a flag
COMMANDS = {
    "compute": (cmd_compute, "one subresultant, optionally with Bezout cofactors", {
        "m": (int, REQUIRED, "exponent of x - alpha"),
        "n": (int, REQUIRED, "exponent of x - beta"),
        "d": (int, REQUIRED, "subresultant index"),
        "alpha": (str, REQUIRED, "root of f (e.g. 3 or -5/2)"),
        "beta": (str, REQUIRED, "root of g"),
        "field": (str, "q", "q or fp:<prime>"),
        "basis": (("monomial", "bernstein"), "monomial", "coefficient basis of the output"),
        "cofactors": (bool, False, "also emit the Bezout cofactors"),
    }),
    "psres": (cmd_psres, "all principal subresultants at once", {
        "m": (int, REQUIRED, "exponent of x - alpha"),
        "n": (int, REQUIRED, "exponent of x - beta"),
        "alpha": (str, REQUIRED, "root of f"),
        "beta": (str, REQUIRED, "root of g"),
        "field": (str, "q", "q or fp:<prime>"),
    }),
    "verify": (cmd_verify, "self-check sweeps against the determinant oracle", {
        "max-degree": (int, 6, "largest m and n of a case"),
        "suite": (("oracle", "jacobi", "pade", "bernstein", "all"), "all", "sweep to run"),
        "primes": (str, "11,13,101", "comma-separated prime moduli"),
        "seed": (int, 0, "seed of the random draws"),
    }),
    "bench": (cmd_bench, "operation counts and wall times (CSV)", {
        "sizes": (str, "16,32,64,128,256,512,1024", "comma-separated values of m = n"),
        "field": (str, "fp:10007", "q or fp:<prime>"),
        "algorithms": (str, "fast,psres_all,oracle",
                       "comma-separated subset of fast, psres_all, oracle"),
        "alpha": (str, "1", "root of f"),
        "beta": (str, "2", "root of g"),
        "csv": (str, None, "write rows to this file instead of stdout"),
        "oracle-cutoff": (int, 64, "run the determinant oracle only up to this size"),
    }),
}


def _option(name: str, kind) -> str:
    """An option as usage and help show it: --name and what its value is."""
    if kind is bool:
        return f"--{name}"
    if kind is int or kind is str:
        return f"--{name} {name.upper().replace('-', '_')}"
    return f"--{name} {{{','.join(kind)}}}"


def _usage(command) -> str:
    if command is None:
        return f"usage: linsubres {{{','.join(COMMANDS)}}} ..."
    words = [_option(name, kind) if default is REQUIRED else f"[{_option(name, kind)}]"
             for name, (kind, default, _) in COMMANDS[command][2].items()]
    return " ".join(["usage: linsubres", command, "[-h]", *words])


def _help(command) -> str:
    """What -h prints: the usage, then every option of the command, or of
    every command at the top level, with its help and default."""
    blocks = [_usage(command), "Exact subresultants of (x-alpha)^m and (x-beta)^n "
              "in linear arithmetic complexity."]
    for name in COMMANDS if command is None else [command]:
        _, text, options = COMMANDS[name]
        lines = [f"{name}: {text}"]
        for option, (kind, default, note) in options.items():
            if default is REQUIRED:
                note += " (required)"
            elif default is not None:
                note += f" (default: {default})"
            lines.append(f"  {_option(option, kind):<30}  {note}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _usage_error(command, message: str):
    prog = "linsubres" if command is None else f"linsubres {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def parse_argv(argv) -> tuple:
    """(handler, keyword arguments) of a command line, read by COMMANDS.
    An option is --name=value or --name value, where the value is the
    next token unless it starts with "--" or is -h; a unique prefix of a
    name stands for it, and the last of repeated options wins.  -h or
    --help prints the help and exits 0; a usage error prints the usage
    and the error to stderr and exits 2."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(_help(None))
        raise SystemExit(EXIT_OK)
    if command not in COMMANDS:
        choose = f"choose from {', '.join(COMMANDS)}"
        _usage_error(None, f"unknown command {command!r}; {choose}" if argv else
                     f"a command is required; {choose}")
    handler, _, options = COMMANDS[command]
    values = {name: spec[1] for name, spec in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(EXIT_OK)
        word, has_value, value = token[2:].partition("=")
        names = [word] if word in options else [name for name in options
                                                 if name.startswith(word)]
        if not token.startswith("--") or not word or not names:
            _usage_error(command, f"unrecognized argument {token!r}")
        if len(names) > 1:
            _usage_error(command, f"ambiguous option --{word} could match --"
                         + ", --".join(names))
        name = names[0]
        kind = options[name][0]
        if kind is bool:
            if has_value:
                _usage_error(command, f"--{name} takes no value")
            values[name] = True
            continue
        if not has_value:
            value = next(tokens, "--")  # at the end, as if an option followed
            if value.startswith("--") or value == "-h":
                _usage_error(command, f"--{name} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"--{name}: invalid int value {value!r}")
        elif kind is not str and value not in kind:
            _usage_error(command, f"--{name}: invalid choice {value!r} "
                         f"(choose from {', '.join(kind)})")
        values[name] = value
    missing = [f"--{name}" for name, value in values.items() if value is REQUIRED]
    if missing:
        _usage_error(command, f"the following options are required: {', '.join(missing)}")
    return handler, {name.replace("-", "_"): value for name, value in values.items()}


def main(argv=None) -> int:
    handler, kwargs = parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        return handler(**kwargs)
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
