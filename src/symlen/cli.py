"""Command line surface.

Subcommands build schemes from expressions or raw tables, print invariant
profiles, compute exact symbol lengths with witnesses, evaluate the bound
family, run certified Pfister decompositions, and run the full
verification report.  All stdout payloads are deterministic for a fixed
configuration; timings and progress go to stderr.

Exit codes: 0 success (or --help), 1 invalid input or a usage error,
2 a resource cap was exceeded, 3 a verification failed.  Usage errors
include an abbreviated option name (--cap for --cap-tensor), a --max-d
below 0, and --scheme given together with --unsafe-table, each from a flag
or the config file.  A --max-d above the scheme dimension cap exits 2
before any check runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from functools import partial

from .bounds import make_bound_report
from .builders import build, expr_label, parse_scheme_expr
from .checks import render_report, run_verification
from .decompose import build_basis_chain, make_sum, run_decomposition
from .errors import ParseError, SymlenError, TooLarge, VerificationFailure
from .f2space import mask_to_str
from .milnor import DEFAULT_SL_CAP, DEFAULT_TENSOR_CAP, kn_space
from .scheme import SCHEME_DIM_CAP, Scheme

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2
EXIT_VERIFY = 3


class InvalidConfig(SymlenError):
    """Command line or config file options are unusable."""


# ---------------------------------------------------------------------------
# options


def int_at_least(low: int, text: str) -> int:
    """argparse type, with low bound by partial: an integer no smaller than low."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < low:
        raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
    return value


SCHEME_COMMANDS = ("build", "invariants", "sl", "bounds", "decompose")
ALL_COMMANDS = SCHEME_COMMANDS + ("verify-paper",)

# every option once: its flags, the subcommands that read it, and its
# argparse keywords; a subcommand accepts only the options it reads
OPTIONS = [
    (("--scheme",), SCHEME_COMMANDS,
     dict(help="scheme expression, e.g. laurent(F2)")),
    (("--unsafe-table",), SCHEME_COMMANDS,
     dict(metavar="FILE", help="raw scheme table (JSON); axioms are re-validated")),
    (("--format",), SCHEME_COMMANDS,
     dict(choices=("json", "csv", "table"), default="table",
          help="output format (default table)")),
    (("--n",), ("sl", "bounds", "decompose"),
     dict(type=partial(int_at_least, 2), default=2, help="Pfister degree (default 2)")),
    (("--cap-bfs",), ("sl", "bounds"),
     dict(type=partial(int_at_least, 1), default=DEFAULT_SL_CAP,
          help="largest order 2^dim of k_n searched for symbol lengths")),
    (("--cap-tensor",), ("sl", "bounds", "decompose"),
     dict(type=partial(int_at_least, 1), default=DEFAULT_TENSOR_CAP,
          help="bound on the d^n tensor coordinates of k_n and on n")),
    (("--form",), ("decompose",),
     dict(help="entries 'c1,c2;c1,c2' as coordinate bitstrings over the "
               "chain basis (rightmost bit first)")),
    (("--no-merge",), ("decompose",),
     dict(action="store_true", help="skip the linkage merge after rewriting")),
    (("--max-d",), ("verify-paper",),
     dict(type=partial(int_at_least, 0), default=4,
          help="library dimension limit, at most %d (default 4)" % SCHEME_DIM_CAP)),
    (("--seed",), ("verify-paper",),
     dict(type=int, default=2024, help="seed for sampled checks (default 2024)")),
    (("--config",), ALL_COMMANDS,
     dict(metavar="FILE", help="key=value option file; flags win")),
    (("-v", "--verbose"), ALL_COMMANDS, dict(action="count", default=0)),
]

# a config file may set any option that takes a value, except --config
CONFIG_KEYS = {flags[-1][2:] for flags, _, kwargs in OPTIONS
               if "action" not in kwargs and flags != ("--config",)}


def read_config_file(path: str) -> dict:
    """Plain key=value lines; blank lines and # comments are skipped.  A
    key names an option that takes a value, with - or _; others are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InvalidConfig("%s: %s" % (path, exc))
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidConfig(
                "%s:%d: expected key=value, got %r" % (path, lineno, line)
            )
        name = key.strip()
        key = name.replace("_", "-")
        if key not in CONFIG_KEYS:
            raise InvalidConfig(
                "%s:%d: unknown config key %r" % (path, lineno, name)
            )
        out[key] = value.strip()
    return out


# ---------------------------------------------------------------------------
# scheme loading


def load_table_file(path: str) -> tuple[str, Scheme]:
    """(name, scheme) of a raw table in a JSON file: {name?, d, minus_one,
    rows}, named table:PATH when it has no name.

    Rows may be integers or nonempty strings of 0s and 1s (rightmost bit =
    class 0); the Scheme constructor validates the table axioms.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, a UnicodeDecodeError, an int past Python's
            # digit limit for str -> int conversion, or too deep a nesting
            raise ParseError("table file %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ParseError("table file %s: expected a JSON object" % path)
    for key in ("d", "minus_one", "rows"):
        if key not in data:
            raise ParseError("table file %s: missing key %r" % (path, key))
    # type() is int, not isinstance(): a JSON true or false is a bool
    d = data["d"]
    if type(d) is not int or d < 0:
        raise ParseError("table file %s: d must be a nonnegative integer" % path)
    if type(data["minus_one"]) is not int:
        raise ParseError("table file %s: minus_one must be an integer" % path)
    if not isinstance(data["rows"], list):
        raise ParseError("table file %s: rows must be a list" % path)
    rows = []
    for i, row in enumerate(data["rows"]):
        if isinstance(row, str):
            # only 0 and 1: int(row, 2) alone also takes "0b1", "1_1", " 1"
            if not row or set(row) - {"0", "1"}:
                raise ParseError("table file %s: row %d is not binary" % (path, i))
            rows.append(int(row, 2))
        elif type(row) is int:
            rows.append(row)
        else:
            raise ParseError("table file %s: row %d has unusable type" % (path, i))
    name = data.get("name", "table:%s" % path)
    if not isinstance(name, str):
        raise ParseError("table file %s: name must be a string" % path)
    return name, Scheme(d, data["minus_one"], rows)


def load_scheme(args: argparse.Namespace) -> tuple[str, Scheme]:
    """(name, scheme) of the request: the canonical label of --scheme, or
    the table file's name; every payload names its answer by it."""
    if args.unsafe_table is not None:
        if args.scheme is not None:
            raise InvalidConfig("--scheme and --unsafe-table exclude each other")
        return load_table_file(args.unsafe_table)
    if not args.scheme:
        raise InvalidConfig("no scheme given; use --scheme or --unsafe-table")
    expr = parse_scheme_expr(args.scheme)
    return expr_label(expr), build(expr)


def parse_form_text(text: str, scheme: Scheme) -> list[tuple[int, ...]]:
    """Entries separated by ';', slots by ','; slots are coordinate
    bitstrings over the chain basis with the rightmost bit first; on a
    scheme of dimension 0 a slot has no coordinates and is empty."""
    chain = build_basis_chain(scheme)
    width = len(chain.basis)
    entries = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        slots = []
        for token in part.split(","):
            token = token.strip()
            if set(token) - {"0", "1"}:
                raise ParseError("slot %r is not a bitstring" % token)
            if len(token) != width:
                raise ParseError(
                    "slot %r has %d coordinates, the chain basis has %d"
                    % (token, len(token), width)
                )
            coords = int(token or "0", 2)
            value = 0
            for i in range(width):
                if (coords >> i) & 1:
                    value ^= chain.basis[i]
            slots.append(value)
        entries.append(tuple(slots))
    return entries


# ---------------------------------------------------------------------------
# output rendering


def flatten(data, prefix="") -> list:
    if isinstance(data, dict):
        items = []
        for key in sorted(data):
            items.extend(flatten(data[key], "%s%s." % (prefix, key)))
        return items
    if isinstance(data, (list, tuple)):
        items = []
        for i, value in enumerate(data):
            items.extend(flatten(value, "%s%d." % (prefix, i)))
        return items or [(prefix[:-1], "[]")]
    return [(prefix[:-1], data)]


def render(data: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    pairs = flatten(data)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in pairs:
            writer.writerow([key, value])
        return buf.getvalue()
    width = max((len(k) for k, _ in pairs), default=0)
    lines = ["%-*s  %s" % (width, k, v) for k, v in pairs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args: argparse.Namespace) -> tuple[dict, int]:
    """Validate a scheme and print its table."""
    name, scheme = load_scheme(args)
    payload = {
        "scheme": name,
        "d": scheme.d,
        "size": scheme.size,
        "minus_one": scheme.eps,
        "validated": True,
        "table": [mask_to_str(row, scheme.size) for row in scheme.rows],
    }
    return payload, EXIT_OK


def cmd_invariants(args: argparse.Namespace) -> tuple[dict, int]:
    """Print the invariant profile of a scheme."""
    name, scheme = load_scheme(args)
    prof = scheme.invariants()
    payload = {
        "scheme": name,
        "d": prof.d,
        "is_real": prof.is_real,
        "level_exponent": prof.level_exponent,
        "level": prof.level,
        "pythagoras": prof.pythagoras,
        "stabilization": prof.stabilization,
        "q": list(prof.q),
        "s_seq": list(prof.s_seq),
        "d_seq": list(prof.d_seq),
        "chain": list(prof.chain),
    }
    return payload, EXIT_OK


def cmd_sl(args: argparse.Namespace) -> tuple[dict, int]:
    """Exact symbol length with witness."""
    name, scheme = load_scheme(args)
    algebra = kn_space(scheme, args.n, args.cap_tensor)
    best, witness = algebra.max_symbol_length(args.cap_bfs)
    payload = {
        "scheme": name,
        "n": args.n,
        "dim_kn": algebra.dim,
        "sl": best,
        "witness": {"coords": witness.coords, "dim": witness.dim},
        "anisotropic_classes": len(algebra.classes()),
    }
    return payload, EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> tuple[dict, int]:
    """Evaluate every length bound with tightness."""
    name, scheme = load_scheme(args)
    algebra = kn_space(scheme, args.n, args.cap_tensor)
    exact, _ = algebra.max_symbol_length(args.cap_bfs)
    report = make_bound_report(scheme, args.n, exact)
    report.check_dominance()
    payload = report.as_dict()
    payload["scheme"] = name
    payload["dominance"] = "pass"
    return payload, EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> tuple[dict, int]:
    """Rewrite a Pfister sum and emit the certificate."""
    name, scheme = load_scheme(args)
    if not args.form:
        raise InvalidConfig("decompose needs --form")
    psum = make_sum(scheme, args.n, parse_form_text(args.form, scheme))
    _, cert = run_decomposition(scheme, psum, merge=not args.no_merge,
                                tensor_cap=args.cap_tensor)
    payload = cert.as_dict()
    payload["scheme"] = name
    code = EXIT_OK if cert.passed else EXIT_VERIFY
    return payload, code


def cmd_verify_paper(args: argparse.Namespace) -> tuple[dict, int]:
    """Run the complete verification report."""
    progress = None
    if args.verbose:
        def progress(entry, seconds):
            print("check %2d %-28s %-4s %8.2fs"
                  % (entry["id"], entry["name"],
                     "ok" if entry["passed"] else "FAIL", seconds),
                  file=sys.stderr)
    report = run_verification(args.max_d, args.seed, progress)
    code = EXIT_OK if report["all_passed"] else EXIT_VERIFY
    return report, code


COMMANDS = {
    "build": cmd_build,
    "invariants": cmd_invariants,
    "sl": cmd_sl,
    "bounds": cmd_bounds,
    "decompose": cmd_decompose,
    "verify-paper": cmd_verify_paper,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlen",
        allow_abbrev=False,
        description="Symbol lengths and Pfister decompositions over finite "
                    "quadratic form schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__, allow_abbrev=False)
        for flags, commands, kwargs in OPTIONS:
            if name in commands:
                p.add_argument(*flags, **kwargs)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Explicit flags win over the config file, which wins over defaults:
    the file's values go in as --key=value ahead of the flags and the same
    parser reads them again.  Keys the subcommand does not read are skipped,
    so one file serves several subcommands."""
    parser = make_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        read = {flags[-1] for flags, commands, _ in OPTIONS
                if args.command in commands}
        tokens = ["--%s=%s" % item for item in read_config_file(args.config).items()
                  if "--" + item[0] in read]
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    return args


def main(argv=None) -> int:
    t0 = time.time()
    try:
        args = parse_args(argv)
        payload, code = COMMANDS[args.command](args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is
        # invalid input here: 2 means a cap was exceeded
        return EXIT_INVALID if exc.code else EXIT_OK
    except TooLarge as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except VerificationFailure as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except (SymlenError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    if args.command == "verify-paper":
        sys.stdout.write(render_report(payload))
    else:
        sys.stdout.write(render(payload, args.format))
    if args.verbose:
        print("elapsed %.2fs" % (time.time() - t0), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
