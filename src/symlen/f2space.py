"""Exact linear algebra over the two-element field.

Vectors of F2^d are plain Python ints used as bitmasks: coordinate i (the
coefficient of the i-th standard vector) is bit i of the mask.  The printed
form of a vector is the usual binary string with the highest coordinate on
the left, so in ambient dimension 2 the string "01" denotes the standard
vector e0 (mask 1) and "10" denotes e1 (mask 2).

rref_ints reduces rows of any width (the k_n relations) to reduced row
echelon form, with the pivot of each row at its highest set bit and rows
ordered by decreasing mask.  It has one path for every input: each
incoming row is reduced by the echelon rows at the pivots it meets,
highest first, and the rows are fully reduced once, at the end.  A
subgroup of the square class group is held elsewhere as a class mask,
not as rows.

A set of vectors of F2^dim is also one int, bit x standing for the vector
x.  Its translate by a vector w, the index permutation x -> x ^ w, is
_swap_runs with the masks of clear_bit_masks: the value-set tables of
scheme and the Cayley-graph layers of milnor are translated that way.  The
counting helpers return exact big integers for the subspace counting check
of verify-paper.
"""

from __future__ import annotations

from .errors import InvalidCase


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


def clear_bit_masks(dim: int) -> list[int]:
    """keep[k] for k < dim: the x < 2^dim whose bit k is clear, as a set of
    2^dim bits; a set bit k of a translate swaps every aligned block of 2^k
    bits with its neighbour.  Built by doubling: int() of a 2^dim-character
    string took 4 ms per search at dim 16 (2-vCPU VM, CPython 3.11)."""
    masks = []
    for k in range(dim):
        mask, width = (1 << (1 << k)) - 1, 2 << k
        while width < 1 << dim:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return masks


def _swap_runs(mask: int, x: int, keep: list[int], unit: int) -> int:
    """For each set bit k of x, swap the runs of unit * 2^k bits marked by
    keep[k] with the runs just above them: the index permutation i -> i ^ x
    on runs of unit bits."""
    while x:
        low = x & -x
        k = low.bit_length() - 1
        shift = unit * low
        mask = ((mask & keep[k]) << shift) | ((mask >> shift) & keep[k])
        x ^= low
    return mask


def rref_ints(rows) -> list[int]:
    """Reduced row echelon form of integer bitmask rows.

    Pivot of a row is its highest set bit.  Returns the canonical basis of
    the span, sorted by decreasing mask; the zero span gives [].  Each
    incoming row is reduced from its highest pivot hit downward by an
    echelon basis, a row per pivot with no bit at a pivot above its own,
    and a nonzero remainder joins it at its highest bit.  One back
    substitution in increasing pivot order then clears the lower pivots
    from each row, by rows already fully reduced.
    """
    # pivot -> its row, echelon, then fully reduced in increasing pivot order
    pivot_rows: dict[int, int] = {}
    pivmask = 0
    for row in rows:
        # reducing by the row of pivot p leaves the bits above p as they are
        hit = row & pivmask
        while hit:
            row ^= pivot_rows[hit.bit_length() - 1]
            hit = row & pivmask
        if row:
            p = row.bit_length() - 1
            pivot_rows[p] = row
            pivmask |= 1 << p
    basis = []
    for p in sorted(pivot_rows):
        # the rows of the pivots below p are already fully reduced
        row = pivot_rows[p]
        hit = row & pivmask ^ (1 << p)  # the loop of iter_bits, inlined: hot
        while hit:
            low = hit & -hit
            row ^= pivot_rows[low.bit_length() - 1]
            hit ^= low
        pivot_rows[p] = row
        basis.append(row)
    basis.reverse()
    return basis


def rank_ints(rows) -> int:
    return len(rref_ints(rows))


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
