"""Tests for scheme constructors, the expression language, and the family.

The dyadic base table is cross-checked against an independent oracle that
never mentions the symbol formula: a class b is a value of <1,a> over the
dyadic field iff some primitive integer pair (x, y) makes x^2 + A y^2 land
in the square class of b, where A is the integer representative of a.  All
arithmetic in the oracle is exact integer arithmetic plus the elementary
square-class test (valuation parity and odd part mod 8), so a bug in the
symbol code cannot hide in the oracle.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from oracle_utils import _dyadic_rep, generate_dyadic_table
from symlen import builders, cli
from symlen import scheme as scheme_module
from symlen.bounds import make_bound_report
from symlen.builders import (
    BaseExpr,
    LaurentExpr,
    ProductExpr,
    build,
    build_from_text,
    expr_dim,
    expr_label,
    laurent_table,
    parse_scheme_expr,
    product_table,
    standard_expressions,
    standard_library,
)
from symlen.decompose import build_basis_chain, make_sum, run_decomposition
from symlen.errors import ParseError, TooLarge
from symlen.milnor import sl_field
from symlen.scheme import Scheme, pfister_classes, validate_scheme


def test_base_tables_exact():
    assert build(BaseExpr("QC")).rows == (1,)
    assert build(BaseExpr("RC")).rows == (0b01, 0b11)
    assert build(BaseExpr("F1")).rows == (0b11, 0b11)
    assert build(BaseExpr("F2")).rows == (0b11, 0b11)
    assert build(BaseExpr("F1")).eps == 0
    assert build(BaseExpr("F2")).eps == 1


def test_base_invariants():
    rc = build(BaseExpr("RC"))
    assert rc.invariants().is_real
    f1 = build(BaseExpr("F1"))
    assert f1.invariants().level == 1 and f1.invariants().pythagoras == 2
    f2 = build(BaseExpr("F2"))
    assert f2.invariants().level == 2 and f2.invariants().pythagoras == 2


def test_build_caches():
    a = build(parse_scheme_expr("laurent(F2)"))
    b = build(parse_scheme_expr("Laurent( f2 )"))
    assert a is b
    # one scheme per table, whichever label asks first
    assert build(parse_scheme_expr("F1")) is build(parse_scheme_expr("laurent(QC)"))


def test_dyadic_literal_table_matches_generator():
    generated = generate_dyadic_table()
    assert builders._BASE_TABLES["Q2"] == (
        generated["dim"], generated["minus_one"], tuple(generated["rows"]))


def _two_adic_class(t: int) -> int:
    """Square class mask of a nonzero integer in the dyadic field."""
    v = 0
    while t % 2 == 0:
        t //= 2
        v += 1
    unit_bits = {1: 0, 7: 1, 5: 4, 3: 5}[t % 8]
    return ((v & 1) << 1) | unit_bits


def test_dyadic_against_primitive_search_oracle():
    q2 = build(BaseExpr("Q2"))
    assert q2.d == 3 and q2.eps == 1
    for a in range(8):
        big_a = _dyadic_rep(a)
        reachable = 0
        for x in range(256):
            for y in range(256):
                if x % 2 == 0 and y % 2 == 0:
                    continue
                t = x * x + big_a * y * y
                if t:
                    reachable |= 1 << _two_adic_class(t)
        assert reachable == q2.rows[a], "row %d" % a


def test_dyadic_invariants():
    q2 = build(BaseExpr("Q2"))
    prof = q2.invariants()
    assert prof.level == 4 and prof.pythagoras == 4
    assert prof.q == (4, 2)
    assert prof.s_seq == (2, 2, 1)
    assert prof.d_seq == (2, 0, 0)


def test_laurent_tables():
    lqc = build(parse_scheme_expr("laurent(QC)"))
    assert lqc.rows == (3, 3) and lqc.eps == 0
    q3 = build(parse_scheme_expr("laurent(F2)"))
    assert q3.rows == (3, 15, 5, 9) and q3.eps == 1
    rigid2 = build(parse_scheme_expr("laurent(laurent(QC))"))
    assert rigid2.rows == (15, 3, 5, 9)


def test_laurent_preserves_level_and_realness():
    for text in ("QC", "RC", "F1", "F2", "laurent(QC)", "laurent(RC)"):
        base = build(parse_scheme_expr(text))
        ext = Scheme(*laurent_table((base.d, base.eps, base.rows)))
        bp, ep = base.invariants(), ext.invariants()
        assert bp.is_real == ep.is_real
        assert bp.level_exponent == ep.level_exponent
        assert ext.d == base.d + 1


def test_rigid_towers():
    expr = BaseExpr("QC")
    for k in range(1, 5):
        expr = LaurentExpr(expr)
        s = build(expr)
        assert s.d == k
        for a in range(1, s.size):
            if a == s.eps:
                continue
            assert s.rows[a].bit_count() == 2
            assert s.rows[a] == 1 | (1 << a)


def test_product_tables():
    rc2 = build_from_text("product(RC,RC)")
    prof = rc2.invariants()
    assert rc2.d == 2 and prof.is_real
    assert all(s == 2 for s in prof.s_seq)
    mixed = build_from_text("product(RC,F1)")
    assert mixed.invariants().is_real
    f2 = build(BaseExpr("F2"))
    qc = build(BaseExpr("QC"))
    same = Scheme(*product_table((qc.d, qc.eps, qc.rows), (f2.d, f2.eps, f2.rows)))
    assert same.rows == f2.rows and same.eps == f2.eps


def test_parser():
    e = parse_scheme_expr("laurent(laurent(QC))")
    assert e == LaurentExpr(LaurentExpr(BaseExpr("QC")))
    e = parse_scheme_expr("product(RC, laurent(F2))")
    assert e == ProductExpr(BaseExpr("RC"), LaurentExpr(BaseExpr("F2")))
    e = parse_scheme_expr("  PRODUCT ( rc , f2 )  ")
    assert e == ProductExpr(BaseExpr("RC"), BaseExpr("F2"))
    assert expr_label(e) == "product(RC,F2)"
    assert expr_dim(e) == 2


def test_parser_errors():
    with pytest.raises(ParseError) as exc:
        parse_scheme_expr("laurent(")
    assert exc.value.position == 8
    with pytest.raises(ParseError):
        parse_scheme_expr("laurent(QC)extra")
    with pytest.raises(ParseError):
        parse_scheme_expr("frobenius(QC)")
    with pytest.raises(ParseError):
        parse_scheme_expr("")
    with pytest.raises(ParseError):
        parse_scheme_expr("product(RC RC)")


def test_dimension_cap():
    with pytest.raises(TooLarge):
        build_from_text("product(Q2,product(Q2,RC))")


def test_standard_family_counts():
    exprs = standard_expressions(4)
    by_dim = {}
    for e in exprs:
        by_dim.setdefault(expr_dim(e), []).append(e)
    assert [len(by_dim.get(d, [])) for d in range(5)] == [1, 4, 14, 71, 460]
    labels = [expr_label(e) for e in exprs]
    assert len(set(labels)) == len(labels)
    keyed = [(expr_dim(e), expr_label(e)) for e in exprs]
    assert keyed == sorted(keyed)


def test_standard_family_valid_small():
    for _, s in standard_library(2):
        assert s._validated
        prof = s.invariants()
        sigma = prof.level_exponent
        for m, sm in enumerate(prof.s_seq):
            if prof.is_real:
                assert sm == 2
            else:
                assert sm == (2 if m < sigma else 1)
        if not prof.is_real:
            for k in range(1, sigma + 1):
                assert prof.q_m(k) >= 1 << (sigma + 1 - k)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cold_build(expr):
    """The scheme of expr built in an empty cache: a tree of laurent and
    product nodes has no other node with the root's table, so the root is
    constructed and validated."""
    cache = builders._CACHE
    builders._CACHE = {}
    try:
        return build(expr)
    finally:
        builders._CACHE = cache


def cli_json(capsys, argv):
    assert cli.main(argv + ["--format", "json"]) == 0, argv
    return json.loads(capsys.readouterr().out)


def test_twin_matches_cold_build(monkeypatch, capsys):
    # a twin is a label whose table was already built: build gives it that
    # table's scheme, with its validation and memos.  In library order each
    # table's first label is queried before its twins, so the twins read
    # warm memos; each must answer as a cold Scheme does, and the CLI must
    # name each answer by the twin's own label
    monkeypatch.setattr(builders, "_CACHE", {})
    parser = cli.make_parser()  # one parser for the 3,058 calls
    monkeypatch.setattr(cli, "make_parser", lambda: parser)
    rng = random.Random(25)
    twins = []
    for expr in standard_expressions(4):
        label = expr_label(expr)
        cold = cold_build(expr)
        key = (cold.d, cold.eps, cold.rows)
        twin = key in builders._CACHE
        s = build(expr)
        assert s is builders._CACHE[key]
        if twin:
            twins.append(label)
        for n in (2, 3):
            sl = sl_field(s, n)
            assert sl == sl_field(cold, n), (label, n)
            report = make_bound_report(s, n, sl[0]).as_dict()
            assert report == make_bound_report(cold, n, sl[0]).as_dict(), (label, n)
            assert (list(pfister_classes(s, n).items())
                    == list(pfister_classes(cold, n).items())), (label, n)
            if twin:
                argv = ["--scheme", label, "--n", str(n)]
                data = cli_json(capsys, ["sl"] + argv)
                assert (data["scheme"], data["sl"], data["witness"]["coords"]) == (
                    label, sl[0], sl[1].coords)
                assert cli_json(capsys, ["bounds"] + argv) == dict(
                    report, scheme=label, dominance="pass")
        n = rng.choice((2, 3))
        entries = [[rng.randrange(s.size) for _ in range(n)]
                   for _ in range(rng.randint(1, 6))]
        warm_out, warm_cert = run_decomposition(s, make_sum(s, n, entries))
        cold_out, cold_cert = run_decomposition(cold, make_sum(cold, n, entries))
        assert warm_out == cold_out, label
        assert warm_cert.as_dict() == cold_cert.as_dict(), label
        if twin:
            coords = build_basis_chain(s).coordinates
            form = ";".join(",".join(format(coords[a], "0%db" % s.d) for a in e)
                            for e in entries)
            argv = ["decompose", "--scheme", label, "--n", str(n), "--form", form]
            assert cli_json(capsys, argv) == dict(warm_cert.as_dict(), scheme=label)
    assert len(twins) == 550 - 272
    # the caps refuse on a warm twin as on a cold scheme: the same exit
    # code, stdout and stderr from `symlen sl`, and a payload that names
    # the twin
    refused = dict.fromkeys(["--cap-bfs", "--cap-tensor"], 0)
    for label in twins:
        warm = builders._CACHE[label]
        for cap in (["--cap-bfs", "2"], ["--cap-tensor", "8"]):
            argv = ["sl", "--scheme", label, "--n", "3", "--format", "json"] + cap
            outcomes = []
            for s in (warm, Scheme(warm.d, warm.eps, warm.rows)):
                monkeypatch.setattr(cli, "load_scheme",
                                    lambda cfg, named=(label, s): named)
                outcomes.append(run_cli(capsys, argv))
            assert outcomes[0] == outcomes[1], (label, cap)
            code, out, _ = outcomes[0]
            if code == 0:
                assert json.loads(out)["scheme"] == label
            refused[cap[0]] += code == 2
    assert refused["--cap-bfs"] > 0 and refused["--cap-tensor"] > 0


def test_each_table_validated_once(monkeypatch):
    calls = []

    def counted(scheme):
        calls.append((scheme.d, scheme.eps, scheme.rows))
        return validate_scheme(scheme)

    monkeypatch.setattr(builders, "_CACHE", {})
    monkeypatch.setattr(scheme_module, "validate_scheme", counted)
    library = standard_library(4)
    tables = {(s.d, s.eps, s.rows) for _, s in library}
    assert (len(library), len(tables), len(calls)) == (550, 272, 272)
    assert set(calls) == tables
    for _, s in library:
        first = builders._CACHE[(s.d, s.eps, s.rows)]
        assert s is first and s._validated


# library-sl at n = 2 on two labels of one table, whose k_2 has dimension
# 1, under the benchmark's tracer in a child process, as a traced benchmark
# process runs its ops
TRACED_TWINS = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import ops, tracer
    with open("%s/reference/library-sl.json" % sys.argv[1]) as fh:
        reference = json.load(fh)["ops"]
    labels = ["laurent(F1)", "laurent(laurent(QC))"]
    trace = tracer.Tracer()
    trace.install([ops])
    schemes = ops.build_schemes(labels)
    results = []
    for i, label in enumerate(labels):
        op = next(op for op in reference
                  if (op["scheme"], op["n"]) == (label, 2))
        trace.op = i
        raw = ops.run_op("library-sl", schemes[label], op)
        results.append([ops.summarize("library-sl", raw) == op["expect"],
                        ops.oracle_problems("library-sl", schemes[label], op, raw)])
    trace.active = False
    print(json.dumps({"results": results, "layers": trace.layer_totals(),
                      "counts": dict(trace.counts)}))
""")


def test_tracer_searches_a_shared_table_once():
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    src = str(Path(builders.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", TRACED_TWINS, str(bench)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["results"] == [[True, []], [True, []]]
    # the second label reads the search of the first
    assert result["layers"]["milnor.pure_symbols"]["calls"] == 1
    assert result["counts"]["milnor.generators"] == 1


def test_only_the_requested_label_is_validated(monkeypatch):
    # the four inner laurent nodes and RC are tables, not schemes
    calls = []

    def counted(scheme):
        calls.append((scheme.d, scheme.eps, scheme.rows))
        return validate_scheme(scheme)

    monkeypatch.setattr(builders, "_CACHE", {})
    monkeypatch.setattr(scheme_module, "validate_scheme", counted)
    label = "laurent(laurent(laurent(laurent(laurent(RC)))))"
    s = build_from_text(label)
    assert calls == [(s.d, s.eps, s.rows)]
    assert builders._CACHE == {label: s, (s.d, s.eps, s.rows): s}
    rc = build_from_text("laurent(RC)")
    assert calls == [(s.d, s.eps, s.rows), (rc.d, rc.eps, rc.rows)]
    assert len(builders._CACHE) == 4
