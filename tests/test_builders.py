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

import pytest

from oracle_utils import _dyadic_rep, generate_dyadic_table
from symlen.builders import (
    BaseExpr,
    LaurentExpr,
    ProductExpr,
    build,
    build_from_text,
    expr_dim,
    expr_label,
    laurent_extend,
    parse_scheme_expr,
    product,
    standard_expressions,
    standard_library,
    DATA_DIR,
)
from symlen.errors import DimensionCapExceeded, ParseError
from symlen.scheme import validate_scheme


def test_base_tables_exact():
    assert build(BaseExpr("QC")).values.rows == (1,)
    assert build(BaseExpr("RC")).values.rows == (0b01, 0b11)
    assert build(BaseExpr("F1")).values.rows == (0b11, 0b11)
    assert build(BaseExpr("F2")).values.rows == (0b11, 0b11)
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


def test_dyadic_frozen_file_matches_generator():
    with open(DATA_DIR / "dyadic_table.json") as fh:
        frozen = json.load(fh)
    assert generate_dyadic_table() == frozen


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
        assert reachable == q2.values.rows[a], "row %d" % a


def test_dyadic_invariants():
    q2 = build(BaseExpr("Q2"))
    prof = q2.invariants()
    assert prof.level == 4 and prof.pythagoras == 4
    assert prof.q == (4, 2)
    assert prof.s_seq == (2, 2, 1)
    assert prof.d_seq == (2, 0, 0)


def test_laurent_tables():
    lqc = build(parse_scheme_expr("laurent(QC)"))
    assert lqc.values.rows == (3, 3) and lqc.eps == 0
    q3 = build(parse_scheme_expr("laurent(F2)"))
    assert q3.values.rows == (3, 15, 5, 9) and q3.eps == 1
    rigid2 = build(parse_scheme_expr("laurent(laurent(QC))"))
    assert rigid2.values.rows == (15, 3, 5, 9)


def test_laurent_preserves_level_and_realness():
    for text in ("QC", "RC", "F1", "F2", "laurent(QC)", "laurent(RC)"):
        base = build(parse_scheme_expr(text))
        ext = laurent_extend(base)
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
            assert s.values.rows[a].bit_count() == 2
            assert s.values.rows[a] == 1 | (1 << a)


def test_product_tables():
    rc2 = build_from_text("product(RC,RC)")
    prof = rc2.invariants()
    assert rc2.d == 2 and prof.is_real
    assert all(s == 2 for s in prof.s_seq)
    mixed = build_from_text("product(RC,F1)")
    assert mixed.invariants().is_real
    f2 = build(BaseExpr("F2"))
    same = product(build(BaseExpr("QC")), f2)
    assert same.values.rows == f2.values.rows and same.eps == f2.eps


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
    with pytest.raises(DimensionCapExceeded):
        build_from_text("product(Q2,product(Q2,RC))")
    with pytest.raises(DimensionCapExceeded):
        build_from_text("laurent(RC)", max_d=1)


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
    for s in standard_library(2):
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
