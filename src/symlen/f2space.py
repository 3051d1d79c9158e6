"""Exact linear algebra over the two-element field.

Vectors of F2^d are plain Python ints used as bitmasks: coordinate i (the
coefficient of the i-th standard vector) is bit i of the mask.  The printed
form of a vector is the usual binary string with the highest coordinate on
the left, so in ambient dimension 2 the string "01" denotes the standard
vector e0 (mask 1) and "10" denotes e1 (mask 2).

Subspaces are kept in reduced row echelon form with the pivot of each row at
its highest set bit and rows ordered by decreasing mask.  rref_ints touches
only the kept rows that an incoming row meets, so its cost follows those,
not the rank.  The counting helpers return exact big integers; the
enumerators back the subspace counting check of verify-paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DependentInput,
    EnumerationTooLarge,
    InvalidCase,
    NotProperSubspace,
)

DEFAULT_ENUM_CAP = 10 ** 6


def mask_to_str(mask: int, ambient_dim: int) -> str:
    """Binary string of a mask, highest coordinate first ("01" is e0)."""
    return format(mask, "0%db" % ambient_dim) if ambient_dim else ""


# ---------------------------------------------------------------------------
# raw integer-row helpers, shared with the tensor algebra module


def iter_bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rref_ints(rows) -> list[int]:
    """Reduced row echelon form of integer bitmask rows.

    Pivot of a row is its highest set bit.  Returns the canonical basis of
    the span, sorted by decreasing mask; the zero span gives [].  Rows that
    already are that basis are returned as they are, after one check: read
    from the last, each row must exceed the pivots below it and meet none
    of them.  Otherwise the kept rows stay fully reduced, so an incoming
    row is reduced in one pass by the rows at its pivot bits, and a new
    pivot is cleared from the rows an index of the non-pivot columns lists:
    no step scans the basis.
    """
    rows = list(rows)
    below = 0
    for row in reversed(rows):
        # also fails on a zero row, or a pivot at or below one of below's
        if row & below or row <= below:
            break
        below |= 1 << (row.bit_length() - 1)
    else:
        return rows
    basis: dict[int, int] = {}
    pivmask = 0
    # non-pivot column -> mask of the pivots whose rows have that bit
    holders: dict[int, int] = {}
    for row in rows:
        hit = row & pivmask  # the loop of iter_bits, inlined: hot
        while hit:
            low = hit & -hit
            row ^= basis[low.bit_length() - 1]
            hit ^= low
        if not row:
            continue
        p = row.bit_length() - 1
        bit = 1 << p
        cols = list(iter_bits(row ^ bit))
        for q in iter_bits(holders.pop(p, 0)):
            basis[q] ^= row
            for c in cols:
                holders[c] = holders.get(c, 0) ^ (1 << q)
        for c in cols:
            holders[c] = holders.get(c, 0) | bit
        basis[p] = row
        pivmask |= bit
    # distinct pivots: decreasing masks are decreasing pivots
    return sorted(basis.values(), reverse=True)


def rank_ints(rows) -> int:
    return len(rref_ints(rows))


def in_span(mask: int, basis: list[int]) -> bool:
    """Membership of a mask in the span of RREF rows."""
    r = mask
    for b in basis:
        if r and r.bit_length() == b.bit_length():
            r ^= b
    return r == 0


# ---------------------------------------------------------------------------
# subspace values


@dataclass(frozen=True)
class Subspace:
    """A subspace of F2^ambient_dim held by its canonical RREF basis.

    rows is a tuple of int masks in reduced row echelon form, decreasing.
    Two Subspace values are equal as sets of vectors iff they are equal as
    dataclass values.
    """

    rows: tuple[int, ...]
    ambient_dim: int

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return "{" + ", ".join(mask_to_str(r, self.ambient_dim) for r in self.rows) + "}"


def subspace_from_masks(masks, ambient_dim: int) -> Subspace:
    return Subspace(tuple(rref_ints(masks)), ambient_dim)


# ---------------------------------------------------------------------------
# counting


def gaussian_count(d: int, m: int) -> int:
    """Exact number of m-dimensional subspaces of F2^d.

    The product formula prod_{l<m} (2^d - 2^l) / (2^m - 2^l) over exact
    big integers.
    """
    if d < 0 or m < 0:
        raise InvalidCase("gaussian_count needs d >= 0, m >= 0")
    if m > d:
        return 0
    num = 1
    den = 1
    for l in range(m):
        num *= (1 << d) - (1 << l)
        den *= (1 << m) - (1 << l)
    assert num % den == 0
    return num // den


def count_upper_bound(d: int, m: int) -> int:
    """Upper bound 2^{m(d-m+1)} for the number of m-dim subspaces of F2^d."""
    if not 0 <= m <= d:
        raise InvalidCase("count_upper_bound needs 0 <= m <= d")
    return 1 << (m * (d - m + 1))


def superspace_count(d: int, m: int) -> int:
    """Number of (m+1)-dim subspaces containing a fixed m-dim one: 2^{d-m}-1."""
    if m >= d or m < 0:
        raise NotProperSubspace("superspaces need 0 <= m < d, got m=%d d=%d" % (m, d))
    return (1 << (d - m)) - 1


# ---------------------------------------------------------------------------
# enumeration


def enumerate_subspaces(d: int, m: int, cap: int = DEFAULT_ENUM_CAP) -> list[Subspace]:
    """All m-dimensional subspaces of F2^d, each exactly once.

    Iterates canonical RREF matrices by pivot-column pattern.  Pivot columns
    are chosen in the printed order (leftmost string position first), the free
    entries of the matrix are filled row by row from an ascending counter, so
    the output order is reproducible.
    """
    if d < 0 or m < 0:
        raise InvalidCase("enumerate_subspaces needs d >= 0, m >= 0")
    total = gaussian_count(d, m)
    if total > cap:
        raise EnumerationTooLarge(
            "would enumerate %d subspaces, cap is %d" % (total, cap)
        )
    out: list[Subspace] = []
    for pivots in itertools.combinations(range(d), m):
        pivot_set = set(pivots)
        # free printed columns per row: to the right of the pivot, not a pivot
        free_cells = []  # (row index, printed column), row-major
        for i, p in enumerate(pivots):
            for j in range(p + 1, d):
                if j not in pivot_set:
                    free_cells.append((i, j))
        nfree = len(free_cells)
        base_rows = [1 << (d - 1 - p) for p in pivots]
        for counter in range(1 << nfree):
            rows = list(base_rows)
            for t, (i, j) in enumerate(free_cells):
                if (counter >> (nfree - 1 - t)) & 1:
                    rows[i] |= 1 << (d - 1 - j)
            out.append(Subspace(tuple(rows), d))
    assert len(out) == total
    return out


def extend_basis(partial: list[int], ambient: int) -> list[int]:
    """Complete an independent list of masks to a full basis of F2^ambient.

    The input vectors come first, then standard vectors in ascending index
    order ("01" before "10" in ambient 2), skipping dependent ones.
    """
    reduced = rref_ints(partial)
    if len(reduced) != len(partial):
        raise DependentInput("partial basis of %d vectors has rank %d" % (len(partial), len(reduced)))
    full = list(partial)
    for e in (1 << i for i in range(ambient)):
        if not in_span(e, reduced):
            full.append(e)
            reduced = rref_ints(reduced + [e])
    assert len(full) == ambient
    return full


def enumerate_superspaces(w: Subspace) -> list[Subspace]:
    """All subspaces of dimension dim(w)+1 containing w, deterministic order."""
    d = w.ambient_dim
    m = w.dim
    if m >= d:
        raise NotProperSubspace("no proper superspaces: dim %d in ambient %d" % (m, d))
    added = extend_basis(list(w.rows), d)[m:]
    out = []
    for t in range(1, 1 << len(added)):
        v = 0
        for i in range(len(added)):
            if (t >> i) & 1:
                v ^= added[i]
        out.append(subspace_from_masks(list(w.rows) + [v], d))
    assert len(out) == superspace_count(d, m)
    return out
