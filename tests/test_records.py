"""The package's records are immutable values, and importing it stays cheap.

The records are typing.NamedTuple classes: importing the CLI, and so every
module of the package, pulls in neither dataclasses nor inspect, and each
record refuses assignment, compares and hashes by value, and never
collides with another kind of key in builders._CACHE.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from symlen import builders
from symlen.bounds import (
    BoundReport,
    BoundRow,
    ProfileBounds,
    RationalPolynomial,
    make_bound_report,
    profile_bounds,
)
from symlen.builders import (
    BaseExpr,
    LaurentExpr,
    ProductExpr,
    build_from_text,
    parse_scheme_expr,
)
from symlen.decompose import (
    BasisChain,
    DecompositionCertificate,
    PfisterSum,
    build_basis_chain,
    make_sum,
    run_decomposition,
)
from symlen.errors import DegreeMismatch
from symlen.milnor import SymbolVector, sl_field
from symlen.scheme import InvariantProfile, Scheme

SRC = Path(__file__).resolve().parents[1] / "src"
RECORDS = (BoundReport, BoundRow, ProfileBounds, RationalPolynomial,
           BaseExpr, LaurentExpr, ProductExpr, BasisChain,
           DecompositionCertificate, PfisterSum, SymbolVector,
           InvariantProfile)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # modules the interpreter's site start-up loads (a .pth file may import
    # inspect) do not count against the package
    code = ("import sys; before = set(sys.modules); import symlen.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('symlen'))); "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    package, unwanted = out.stdout.splitlines()
    assert package == str(["symlen", "symlen.bounds", "symlen.builders",
                           "symlen.checks", "symlen.cli", "symlen.decompose",
                           "symlen.errors", "symlen.f2space", "symlen.milnor",
                           "symlen.scheme"])
    assert unwanted == "[]"


def records_of(scheme: Scheme) -> list:
    """One record of each kind, computed from the scheme's own memos."""
    sl, witness = sl_field(scheme, 2)
    profile = scheme.invariants()
    report = make_bound_report(scheme, 2, sl)
    psum = make_sum(scheme, 2, [(1, 2), (2, 3)])
    _, cert = run_decomposition(scheme, psum)
    expr = parse_scheme_expr("product(laurent(RC),QC)")
    return [report, report.rows[0], profile_bounds(profile, 2),
            RationalPolynomial.make([1, 2]), expr.left.child, expr.left, expr,
            build_basis_chain(scheme), cert, psum, witness, profile]


def test_records_refuse_assignment():
    records = records_of(build_from_text("laurent(F2)"))
    assert [type(r) for r in records] == list(RECORDS)
    for record in records:
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_equal_records_hash_equal():
    s = build_from_text("laurent(F2)")
    for a, b in zip(records_of(s), records_of(Scheme(s.d, s.eps, s.rows))):
        assert a == b and hash(a) == hash(b)


def test_cache_keys_of_one_scheme_stay_distinct(monkeypatch):
    monkeypatch.setattr(builders, "_CACHE", {})
    label = "laurent(F2)"
    s = build_from_text(label)
    bounds = profile_bounds(s.invariants(), 2)
    assert builders._CACHE == {label: s, (s.d, s.eps, s.rows): s,
                               (s.invariants(), 2): bounds}


def test_symbol_vector_refusals_and_order():
    for coords, dim in ((4, 2), (-1, 3), (0, -1)):
        with pytest.raises(DegreeMismatch, match="coordinate mask %d does not "
                           "fit dimension %d" % (coords, dim)):
            SymbolVector(coords, dim)
    assert SymbolVector(1, 1) < SymbolVector(1, 2) < SymbolVector(2, 2)
