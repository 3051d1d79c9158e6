"""Constructors for validated schemes of elementary type.

Five base schemes are provided: QC (one square class), RC (two classes,
binary form <1,1> definite), F1 and F2 (two classes with universal binary
forms; -1 a square for F1, a nonsquare for F2), and Q2 (the eight-class
dyadic local scheme, loaded from a frozen table).  Larger schemes come from
two combinators: laurent(S) adjoins a uniformizer coordinate with the usual
two-residue-form value sets, product(S1, S2) takes the direct product of the
class groups with componentwise value sets.

A small expression language (see parse_scheme_expr) names these
constructions; build() caches schemes by canonical label and by table.
Many labels name one table (the d <= 4 library has 550 labels on 272
tables); a label whose table is cached is that scheme renamed, sharing its
validation and TableCore, so each distinct table is validated, and its k_n
built, once per cache.  A Scheme constructed directly starts cold.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DimensionCapExceeded, ParseError
from .f2space import iter_bits
from .scheme import (
    SCHEME_DIM_CAP,
    Scheme,
    SquareClassGroup,
    ValueSetTable,
)

BASE_KINDS = ("QC", "RC", "F1", "F2", "Q2")
DATA_DIR = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class BaseExpr:
    kind: str


@dataclass(frozen=True)
class LaurentExpr:
    child: object


@dataclass(frozen=True)
class ProductExpr:
    left: object
    right: object


def expr_dim(expr) -> int:
    if isinstance(expr, BaseExpr):
        return {"QC": 0, "RC": 1, "F1": 1, "F2": 1, "Q2": 3}[expr.kind]
    if isinstance(expr, LaurentExpr):
        return expr_dim(expr.child) + 1
    if isinstance(expr, ProductExpr):
        return expr_dim(expr.left) + expr_dim(expr.right)
    raise TypeError("not a scheme expression: %r" % (expr,))


def expr_label(expr) -> str:
    if isinstance(expr, BaseExpr):
        return expr.kind
    if isinstance(expr, LaurentExpr):
        return "laurent(%s)" % expr_label(expr.child)
    if isinstance(expr, ProductExpr):
        return "product(%s,%s)" % (expr_label(expr.left), expr_label(expr.right))
    raise TypeError("not a scheme expression: %r" % (expr,))


# ---------------------------------------------------------------------------
# base tables


def _qc_table():
    return SquareClassGroup(0, 0), ValueSetTable((1,))


def _rc_table():
    # classes {1, -1}; <1,1> is definite, <1,-1> universal
    return SquareClassGroup(1, 1), ValueSetTable((0b01, 0b11))


def _f1_table():
    # two classes, -1 a square, every binary form universal
    return SquareClassGroup(1, 0), ValueSetTable((0b11, 0b11))


def _f2_table():
    # two classes, -1 the nonsquare, every binary form universal
    return SquareClassGroup(1, 1), ValueSetTable((0b11, 0b11))


def _q2_table():
    # the 2-adic Hilbert symbol gives the rows; the tests regenerate them
    with open(DATA_DIR / "dyadic_table.json") as fh:
        data = json.load(fh)
    return (
        SquareClassGroup(data["dim"], data["minus_one"]),
        ValueSetTable(tuple(data["rows"])),
    )


_BASE_TABLES = {
    "QC": _qc_table,
    "RC": _rc_table,
    "F1": _f1_table,
    "F2": _f2_table,
    "Q2": _q2_table,
}


# ---------------------------------------------------------------------------
# combinators


def laurent_table(scheme: Scheme) -> tuple[SquareClassGroup, ValueSetTable]:
    """Table of laurent(scheme): a uniformizer coordinate adjoined as the
    new highest class bit.

    Value sets follow the two-residue-form rule: classes from the base keep
    their base value sets, except the class of -1 whose binary form stays
    universal; classes carrying the new coordinate have rigid two-element
    value sets.
    """
    d = scheme.d
    if d + 1 > SCHEME_DIM_CAP:
        raise DimensionCapExceeded("laurent extension would reach dimension %d" % (d + 1))
    size = scheme.size
    new_size = size * 2
    full = (1 << new_size) - 1
    eps = scheme.eps
    rows = []
    for a in range(new_size):
        if a == eps:
            rows.append(full)
        elif a < size:
            rows.append(scheme.values.rows[a])
        else:
            rows.append(1 | (1 << a))
    return SquareClassGroup(d + 1, eps), ValueSetTable(tuple(rows))


def product_table(s1: Scheme, s2: Scheme) -> tuple[SquareClassGroup, ValueSetTable]:
    """Table of the direct product: class pairs, componentwise value sets."""
    d = s1.d + s2.d
    if d > SCHEME_DIM_CAP:
        raise DimensionCapExceeded("product would reach dimension %d" % d)
    shift = 1 << s1.d
    eps = s1.eps | (s2.eps << s1.d)
    # D<1,a>: row a % shift of s1 in each slot y of row a >> s1.d of s2
    spread = [sum(1 << (y * shift) for y in iter_bits(row2)) for row2 in s2.values.rows]
    rows = [s1.values.rows[a & (shift - 1)] * spread[a >> s1.d] for a in range(1 << d)]
    return SquareClassGroup(d, eps), ValueSetTable(tuple(rows))


# ---------------------------------------------------------------------------
# building from expressions


# canonical label -> scheme, and (group, table) -> the first scheme built
# on that table; clearing it makes every later build cold
_CACHE: dict[str | tuple[SquareClassGroup, ValueSetTable], Scheme] = {}


def build(expr) -> Scheme:
    """Scheme for an expression; cached by canonical label.  A label whose
    table is cached is the cached scheme renamed (Scheme.renamed)."""
    label = expr_label(expr)
    hit = _CACHE.get(label)
    if hit is not None:
        return hit
    if expr_dim(expr) > SCHEME_DIM_CAP:
        raise DimensionCapExceeded(
            "expression %s has dimension %d, cap is %d"
            % (label, expr_dim(expr), SCHEME_DIM_CAP)
        )
    if isinstance(expr, BaseExpr):
        key = _BASE_TABLES[expr.kind]()
    elif isinstance(expr, LaurentExpr):
        key = laurent_table(build(expr.child))
    else:
        key = product_table(build(expr.left), build(expr.right))
    twin = _CACHE.get(key)
    if twin is None:
        out = _CACHE[key] = Scheme(*key, label)
    else:
        out = twin.renamed(label)
    _CACHE[label] = out
    return out


def parse_scheme_expr(text: str) -> object:
    """Parse the scheme expression grammar.

    expr := base | "laurent" "(" expr ")" | "product" "(" expr "," expr ")"
    with base one of QC, RC, F1, F2, Q2; case and whitespace insensitive.
    """
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            raise ParseError("expected %r at offset %d" % (ch, pos), position=pos)
        pos += 1

    def word():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        if start == pos:
            raise ParseError("expected a name at offset %d" % pos, position=pos)
        return text[start:pos], start

    def expr():
        w, start = word()
        up = w.upper()
        if up in BASE_KINDS:
            return BaseExpr(up)
        low = w.lower()
        if low == "laurent":
            expect("(")
            inner = expr()
            expect(")")
            return LaurentExpr(inner)
        if low == "product":
            expect("(")
            left = expr()
            expect(",")
            right = expr()
            expect(")")
            return ProductExpr(left, right)
        raise ParseError("unknown scheme name %r at offset %d" % (w, start), position=start)

    result = expr()
    skip_ws()
    if pos != len(text):
        raise ParseError("trailing input at offset %d" % pos, position=pos)
    return result


def build_from_text(text: str, max_d: int = SCHEME_DIM_CAP) -> Scheme:
    expr = parse_scheme_expr(text)
    d = expr_dim(expr)
    if d > max_d:
        raise DimensionCapExceeded("scheme dimension %d exceeds limit %d" % (d, max_d))
    return build(expr)


# ---------------------------------------------------------------------------
# the standard test family


def standard_expressions(max_d: int) -> list:
    """The canonical family of expressions of each dimension up to max_d.

    Dimension 0 holds QC alone; dimension 1 the three nontrivial bases plus
    laurent(QC); higher dimensions take laurent extensions of the previous
    layer, products of lower layers (QC factors excluded, operands ordered
    by dimension then label), and Q2 at dimension 3.  Sorted by (dimension,
    label).
    """
    layers: list[list] = [[BaseExpr("QC")]]
    for d in range(1, max_d + 1):
        layer = []
        if d == 1:
            layer.extend([BaseExpr("RC"), BaseExpr("F1"), BaseExpr("F2")])
        if d == 3:
            layer.append(BaseExpr("Q2"))
        layer.extend(LaurentExpr(e) for e in layers[d - 1])
        for i in range(1, d // 2 + 1):
            j = d - i
            left_pool = sorted(layers[i], key=expr_label)
            right_pool = sorted(layers[j], key=expr_label)
            if i == j:
                for a, b in itertools.combinations_with_replacement(left_pool, 2):
                    layer.append(ProductExpr(a, b))
            else:
                for a in left_pool:
                    for b in right_pool:
                        layer.append(ProductExpr(a, b))
        layers.append(layer)
    out = [e for layer in layers for e in layer]
    out.sort(key=lambda e: (expr_dim(e), expr_label(e)))
    return out


def standard_library(max_d: int) -> list[Scheme]:
    """Built schemes for the standard family, ordered by (dimension, label)."""
    return [build(e) for e in standard_expressions(max_d)]
