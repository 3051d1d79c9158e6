"""Command line surface.

Subcommands build schemes from expressions or raw tables, print invariant
profiles, compute exact symbol lengths with witnesses, evaluate the bound
family, run certified Pfister decompositions, and run the full
verification report.  All stdout payloads are deterministic for a fixed
configuration; timings and progress go to stderr.

Exit codes: 0 success, 1 invalid input, 2 a resource cap was exceeded,
3 a verification failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass

from .bounds import make_bound_report
from .builders import build_from_text
from .checks import render_report, run_verification
from .decompose import (
    build_basis_chain,
    make_sum,
    run_decomposition,
)
from .errors import (
    DimensionCapExceeded,
    EnumerationTooLarge,
    ParseError,
    SymlenError,
    VerificationFailure,
)
from .f2space import mask_to_str
from .milnor import DEFAULT_SL_CAP, DEFAULT_TENSOR_CAP, kn_space
from .scheme import (
    DEFAULT_CLASS_CAP,
    Scheme,
    SquareClassGroup,
    ValueSetTable,
    pfister_classes,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2
EXIT_VERIFY = 3

DEFAULTS = {
    "n": 2,
    "format": "table",
    "seed": 2024,
    "cap_enum": DEFAULT_CLASS_CAP,
    "cap_bfs": DEFAULT_SL_CAP,
    "cap_tensor": DEFAULT_TENSOR_CAP,
    "max_d": 4,
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved options for one command invocation."""

    scheme_text: str | None
    table_path: str | None
    n: int
    fmt: str
    seed: int
    cap_enum: int
    cap_bfs: int
    cap_tensor: int
    max_d: int
    verbosity: int
    form_text: str | None = None
    merge: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise InvalidConfig("degree n must be at least 2, got %d" % self.n)
        for label, cap in (("cap-enum", self.cap_enum),
                           ("cap-bfs", self.cap_bfs),
                           ("cap-tensor", self.cap_tensor)):
            if cap <= 0:
                raise InvalidConfig("%s must be positive, got %d" % (label, cap))
        if self.fmt not in ("json", "csv", "table"):
            raise InvalidConfig("unknown format %r" % self.fmt)


class InvalidConfig(SymlenError):
    """Command line or config file options are unusable."""


# ---------------------------------------------------------------------------
# configuration plumbing


_INT_KEYS = ("n", "seed", "cap_enum", "cap_bfs", "cap_tensor", "max_d")
_STR_KEYS = ("scheme", "unsafe_table", "format", "form")


def read_config_file(path: str) -> dict:
    """Plain key=value lines; blank lines and # comments are skipped.  A
    key is an option name, with - or _; any other key is refused."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise InvalidConfig(
                    "%s:%d: expected key=value, got %r" % (path, lineno, line)
                )
            name = key.strip()
            key = name.replace("-", "_")
            if key not in _INT_KEYS + _STR_KEYS:
                raise InvalidConfig(
                    "%s:%d: unknown config key %r" % (path, lineno, name)
                )
            out[key] = value.strip()
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Explicit flags win over the config file, which wins over defaults."""
    file_values = read_config_file(args.config) if args.config else {}
    merged = dict(DEFAULTS)
    for key, value in file_values.items():
        if key in _INT_KEYS:
            try:
                merged[key] = int(value)
            except ValueError:
                raise InvalidConfig("config key %s needs an integer, got %r"
                                    % (key, value))
        else:
            merged[key] = value
    for key in _INT_KEYS + _STR_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return RunConfig(
        scheme_text=merged.get("scheme"),
        table_path=merged.get("unsafe_table"),
        n=int(merged["n"]),
        fmt=str(merged["format"]),
        seed=int(merged["seed"]),
        cap_enum=int(merged["cap_enum"]),
        cap_bfs=int(merged["cap_bfs"]),
        cap_tensor=int(merged["cap_tensor"]),
        max_d=int(merged["max_d"]),
        verbosity=getattr(args, "verbose", 0),
        form_text=merged.get("form"),
        merge=not getattr(args, "no_merge", False),
    )


# ---------------------------------------------------------------------------
# scheme loading


def load_table_file(path: str) -> Scheme:
    """Raw scheme table from a JSON file: {name?, d, minus_one, rows}.

    Rows may be integers or binary strings (rightmost bit = class 0); the
    Scheme constructor validates the table axioms.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError("table file %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ParseError("table file %s: expected a JSON object" % path)
    for key in ("d", "minus_one", "rows"):
        if key not in data:
            raise ParseError("table file %s: missing key %r" % (path, key))
    d = data["d"]
    if not isinstance(d, int) or d < 0:
        raise ParseError("table file %s: d must be a nonnegative integer" % path)
    if not isinstance(data["minus_one"], int):
        raise ParseError("table file %s: minus_one must be an integer" % path)
    if not isinstance(data["rows"], list):
        raise ParseError("table file %s: rows must be a list" % path)
    rows = []
    for i, row in enumerate(data["rows"]):
        if isinstance(row, str):
            try:
                rows.append(int(row, 2))
            except ValueError:
                raise ParseError("table file %s: row %d is not binary" % (path, i))
        elif isinstance(row, int):
            rows.append(row)
        else:
            raise ParseError("table file %s: row %d has unusable type" % (path, i))
    name = data.get("name", "table:%s" % path)
    return Scheme(SquareClassGroup(d, data["minus_one"]),
                  ValueSetTable(tuple(rows)), name)


def load_scheme(cfg: RunConfig) -> Scheme:
    if cfg.table_path is not None:
        return load_table_file(cfg.table_path)
    if not cfg.scheme_text:
        raise InvalidConfig("no scheme given; use --scheme or --unsafe-table")
    return build_from_text(cfg.scheme_text)


def parse_form_text(text: str, scheme: Scheme) -> list[tuple[int, ...]]:
    """Entries separated by ';', slots by ','; slots are coordinate
    bitstrings over the chain basis with the rightmost bit first."""
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
            if not token or set(token) - {"0", "1"}:
                raise ParseError("slot %r is not a bitstring" % token)
            if len(token) != width:
                raise ParseError(
                    "slot %r has %d coordinates, the chain basis has %d"
                    % (token, len(token), width)
                )
            coords = int(token, 2)
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


def cmd_build(cfg: RunConfig) -> tuple[dict, int]:
    scheme = load_scheme(cfg)
    payload = {
        "scheme": scheme.name,
        "d": scheme.d,
        "size": scheme.size,
        "minus_one": scheme.eps,
        "validated": True,
        "table": [mask_to_str(row, scheme.size) for row in scheme.values.rows],
    }
    return payload, EXIT_OK


def cmd_invariants(cfg: RunConfig) -> tuple[dict, int]:
    scheme = load_scheme(cfg)
    prof = scheme.invariants()
    payload = {
        "scheme": scheme.name,
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


def cmd_sl(cfg: RunConfig) -> tuple[dict, int]:
    scheme = load_scheme(cfg)
    algebra = kn_space(scheme, cfg.n, cfg.cap_tensor)
    best, witness = algebra.max_symbol_length(cfg.cap_bfs)
    try:
        classes = len(pfister_classes(scheme, cfg.n, cfg.cap_enum, cfg.cap_tensor))
    except EnumerationTooLarge:
        classes = None
    payload = {
        "scheme": scheme.name,
        "n": cfg.n,
        "dim_kn": algebra.dim,
        "sl": best,
        "witness": {"coords": witness.coords, "dim": witness.dim},
        "anisotropic_classes": classes,
    }
    return payload, EXIT_OK


def cmd_bounds(cfg: RunConfig) -> tuple[dict, int]:
    scheme = load_scheme(cfg)
    algebra = kn_space(scheme, cfg.n, cfg.cap_tensor)
    exact, _ = algebra.max_symbol_length(cfg.cap_bfs)
    report = make_bound_report(scheme, cfg.n, exact)
    report.check_dominance()
    payload = report.as_dict()
    payload["dominance"] = "pass"
    return payload, EXIT_OK


def cmd_decompose(cfg: RunConfig) -> tuple[dict, int]:
    scheme = load_scheme(cfg)
    if not cfg.form_text:
        raise InvalidConfig("decompose needs --form")
    entries = parse_form_text(cfg.form_text, scheme)
    if entries and len(entries[0]) != cfg.n:
        raise InvalidConfig(
            "entries have %d slots but n is %d" % (len(entries[0]), cfg.n)
        )
    psum = make_sum(scheme, cfg.n, entries)
    final, cert = run_decomposition(scheme, psum, merge=cfg.merge,
                                    tensor_cap=cfg.cap_tensor)
    payload = cert.as_dict()
    code = EXIT_OK if cert.passed else EXIT_VERIFY
    return payload, code


def cmd_verify_paper(cfg: RunConfig) -> tuple[dict, int]:
    progress = None
    if cfg.verbosity:
        def progress(entry, seconds):
            print("check %2d %-28s %-4s %8.2fs"
                  % (entry["id"], entry["name"],
                     "ok" if entry["passed"] else "FAIL", seconds),
                  file=sys.stderr)
    report = run_verification(cfg.max_d, cfg.seed, progress)
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
        description="Symbol lengths and Pfister decompositions over finite "
                    "quadratic form schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("build", "validate a scheme and print its table"),
        ("invariants", "print the invariant profile of a scheme"),
        ("sl", "exact symbol length with witness"),
        ("bounds", "evaluate every length bound with tightness"),
        ("decompose", "rewrite a Pfister sum and emit the certificate"),
        ("verify-paper", "run the complete verification report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scheme", help="scheme expression, e.g. laurent(F2)")
        p.add_argument("--unsafe-table", metavar="FILE",
                       help="raw scheme table (JSON); axioms are re-validated")
        p.add_argument("--n", type=int, help="Pfister degree (default 2)")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       help="output format (default table)")
        p.add_argument("--seed", type=int, help="seed for sampled checks")
        p.add_argument("--cap-enum", type=int, dest="cap_enum",
                       help="enumeration size cap")
        p.add_argument("--cap-bfs", type=int, dest="cap_bfs",
                       help="largest order 2^dim of k_n searched for "
                            "symbol lengths")
        p.add_argument("--cap-tensor", type=int, dest="cap_tensor",
                       help="tensor space dimension cap")
        p.add_argument("--max-d", type=int, dest="max_d",
                       help="library dimension limit for verify-paper")
        p.add_argument("--config", metavar="FILE",
                       help="key=value option file; flags win")
        p.add_argument("-v", "--verbose", action="count", default=0)
        if name == "decompose":
            p.add_argument("--form", help="entries 'c1,c2;c1,c2' as coordinate "
                                          "bitstrings over the chain basis "
                                          "(rightmost bit first)")
            p.add_argument("--no-merge", action="store_true",
                           help="skip the linkage merge after rewriting")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        cfg = resolve_config(args)
        payload, code = COMMANDS[args.command](cfg)
    except (EnumerationTooLarge, DimensionCapExceeded) as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except VerificationFailure as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except SymlenError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    if args.command == "verify-paper":
        sys.stdout.write(render_report(payload))
    else:
        sys.stdout.write(render(payload, cfg.fmt))
    if cfg.verbosity:
        print("elapsed %.2fs" % (time.time() - t0), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
