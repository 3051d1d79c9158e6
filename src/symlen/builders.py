"""Constructors for validated schemes of elementary type.

Five base schemes are provided: QC (one square class), RC (two classes,
binary form <1,1> definite), F1 and F2 (two classes with universal binary
forms; -1 a square for F1, a nonsquare for F2), and Q2 (the eight-class
dyadic local scheme), each a literal table.  Larger schemes come from
two combinators: laurent(S) adjoins a uniformizer coordinate with the usual
two-residue-form value sets, product(S1, S2) takes the direct product of the
class groups with componentwise value sets.

A small expression language (see parse_scheme_expr) names these
constructions; build() caches schemes by canonical label and by table.
A table is the triple (d, minus_one, rows) that Scheme takes, and the
combinators map triples to triples, so a sub-expression is a table, not
a Scheme: only the requested label is constructed and validated.  Many
labels name one table (the d <= 4 library has 550 labels on 272 tables),
and every label of a table gets the one Scheme of that table, so each
distinct table is validated, and its k_n built, once per cache.  A label
is the name of a request, not of a scheme: the CLI and the verify-paper
checks put it into their payloads.  A Scheme constructed directly starts
cold, except for its bound data: bounds.profile_bounds keeps that here
too, keyed by (profile, n), so it is shared by every scheme with an equal
profile.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParseError, TooLarge
from .f2space import iter_bits
from .scheme import SCHEME_DIM_CAP, Scheme

if TYPE_CHECKING:
    from .bounds import ProfileBounds
    from .scheme import InvariantProfile

# a table: (d, minus_one, rows), the arguments of Scheme
Table = tuple[int, int, tuple[int, ...]]
# laurent and product nest at most this deep: far inside the recursion limit
MAX_NESTING = 64


# ---------------------------------------------------------------------------
# expression AST


class BaseExpr(NamedTuple):
    kind: str


class LaurentExpr(NamedTuple):
    child: object


class ProductExpr(NamedTuple):
    left: object
    right: object


def expr_dim(expr) -> int:
    if isinstance(expr, BaseExpr):
        return _BASE_TABLES[expr.kind][0]
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


# (d, minus_one, rows) of each base kind
_BASE_TABLES: dict[str, Table] = {
    "QC": (0, 0, (1,)),
    # classes {1, -1}; <1,1> is definite, <1,-1> universal
    "RC": (1, 1, (0b01, 0b11)),
    # two classes, -1 a square, every binary form universal
    "F1": (1, 0, (0b11, 0b11)),
    # two classes, -1 the nonsquare, every binary form universal
    "F2": (1, 1, (0b11, 0b11)),
    # coordinates (-1, 2, 5); the 2-adic Hilbert symbol gives the rows, and
    # the tests regenerate them
    "Q2": (3, 1, (85, 255, 165, 15, 153, 51, 105, 195)),
}


# ---------------------------------------------------------------------------
# combinators


def laurent_table(table: Table) -> Table:
    """Table of laurent(S) from the table of S: a uniformizer coordinate
    adjoined as the new highest class bit.

    Value sets follow the two-residue-form rule: classes from the base keep
    their base value sets, except the class of -1 whose binary form stays
    universal; classes carrying the new coordinate have rigid two-element
    value sets.
    """
    d, eps, base = table
    size = 1 << d
    new_size = size * 2
    full = (1 << new_size) - 1
    rows = []
    for a in range(new_size):
        if a == eps:
            rows.append(full)
        elif a < size:
            rows.append(base[a])
        else:
            rows.append(1 | (1 << a))
    return d + 1, eps, tuple(rows)


def product_table(left: Table, right: Table) -> Table:
    """Table of the direct product of two tables: class pairs,
    componentwise value sets."""
    (d1, eps1, rows1), (d2, eps2, rows2) = left, right
    shift = 1 << d1
    # D<1,a>: row a % shift of the left table in each slot y of row
    # a >> d1 of the right one
    spread = [sum(1 << (y * shift) for y in iter_bits(row2)) for row2 in rows2]
    rows = [rows1[a & (shift - 1)] * spread[a >> d1] for a in range(1 << (d1 + d2))]
    return d1 + d2, eps1 | (eps2 << d1), tuple(rows)


# ---------------------------------------------------------------------------
# building from expressions


# canonical label -> the scheme of its table, the table -> that scheme,
# and (profile, n) -> the bound data of that profile in degree n
# (bounds.profile_bounds); a table is a triple and a bound key a pair, so
# the keys never collide.  Clearing it makes every later build and bound
# evaluation cold
_CACHE: dict[str | Table | tuple[InvariantProfile, int],
             Scheme | ProfileBounds] = {}


def build(expr) -> Scheme:
    """The scheme of an expression's table; cached by canonical label and
    by table.  On a label miss the table of expr is computed (_table), and
    a Scheme is constructed, and validated, only if no label built that
    table before; so build(F1) is build(laurent(QC))."""
    label = expr_label(expr)
    hit = _CACHE.get(label)
    if hit is not None:
        return hit
    if expr_dim(expr) > SCHEME_DIM_CAP:
        raise TooLarge(
            "expression %s has dimension %d, cap is %d"
            % (label, expr_dim(expr), SCHEME_DIM_CAP)
        )
    key = _table(expr)
    out = _CACHE.get(key)
    if out is None:
        out = _CACHE[key] = Scheme(*key)
    _CACHE[label] = out
    return out


def _table(expr) -> Table:
    """The table of expr: a cached label gives its scheme's, any other
    node is computed from its children's, with no Scheme constructed."""
    hit = _CACHE.get(expr_label(expr))
    if hit is not None:
        return hit.d, hit.eps, hit.rows
    if isinstance(expr, BaseExpr):
        return _BASE_TABLES[expr.kind]
    if isinstance(expr, LaurentExpr):
        return laurent_table(_table(expr.child))
    return product_table(_table(expr.left), _table(expr.right))


def parse_scheme_expr(text: str) -> object:
    """Parse the scheme expression grammar.

    expr := base | "laurent" "(" expr ")" | "product" "(" expr "," expr ")"
    with base one of QC, RC, F1, F2, Q2; case and whitespace insensitive.
    Nesting deeper than MAX_NESTING is refused with TooLarge.
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

    def expr(depth):
        if depth > MAX_NESTING:
            raise TooLarge("scheme expression nests deeper than %d" % MAX_NESTING)
        w, start = word()
        up = w.upper()
        if up in _BASE_TABLES:
            return BaseExpr(up)
        low = w.lower()
        if low == "laurent":
            expect("(")
            inner = expr(depth + 1)
            expect(")")
            return LaurentExpr(inner)
        if low == "product":
            expect("(")
            left = expr(depth + 1)
            expect(",")
            right = expr(depth + 1)
            expect(")")
            return ProductExpr(left, right)
        raise ParseError("unknown scheme name %r at offset %d" % (w, start), position=start)

    result = expr(0)
    skip_ws()
    if pos != len(text):
        raise ParseError("trailing input at offset %d" % pos, position=pos)
    return result


def build_from_text(text: str) -> Scheme:
    return build(parse_scheme_expr(text))


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


def standard_library(max_d: int) -> list[tuple[str, Scheme]]:
    """(label, built scheme) for the standard family, ordered by (dimension,
    label); the labels of one table share its scheme."""
    return [(expr_label(e), build(e)) for e in standard_expressions(max_d)]
