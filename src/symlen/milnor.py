"""Mod 2 Milnor k-groups of a scheme and exact symbol lengths.

For a scheme with square class group G = F2^d, the degree n group k_n is the
n-fold tensor power of G over F2 modulo the subspace generated by placing a
split 2-tensor in any adjacent pair of slots.  The split 2-tensors are the
span of a (x) b over all pairs with b in D<1, -a>, which is exactly the
condition that the 2-fold multiplicative form <<a, b>> is hyperbolic.

An n-fold multiplicative form <<a_1, ..., a_n>> maps to the class of
(-a_1) (x) ... (x) (-a_n).  With that normalization the degree 2 map kills
precisely the hyperbolic 2-folds, and chain equivalent slot tuples give the
same class, so the map factors through isometry (checked by the tests rather
than assumed).  The image of a multiplicative form is called a pure symbol.

The symbol length of an element is the least number of pure symbols summing
to it; the symbol length of the scheme in degree n is the maximum over the
whole group, computed by one breadth first search of the Cayley graph of
k_n with the nonzero pure symbols as generators.

The relations, the split 2-tensors (built once per scheme) shifted into
every adjacent slot pair, are reduced once per algebra; their fully reduced
rows give a tensor's class by XORing the rows at its pivot bits.  The head
table reads the d^n basis tensor images off the rows (a free column is its
own image, a pivot column's is its row less the pivot bit), then contracts
the first n - 1 slots one at a time over all 2^d vectors, one XOR per
entry; the last slot stays in the basis.  The image of a slot tuple is the
XOR of at most d entries, and the images of <<head, c>> for all classes c
expand from d entries.  Pure symbols walk the last slot of every head over
the nonzero vectors in Gray code order.  The table also keys the Pfister
classes of the scheme: an anisotropic n-fold Pfister form is determined up
to isometry by its image, and it is hyperbolic iff the image is 0 (the
Arason-Pfister Hauptsatz for fields; for schemes the tests check it
against a Witt decomposition search).  One scan of the sorted slot tuples,
head by head, maps each class to its least slot tuple.

The search holds each BFS layer as one 2^dim-bit int, bit x standing for
the element with coords x.  Translating a set by an element g swaps, for
every set bit b of g, the blocks of positions with bit b clear and set:
((S & M_b) << 2^b) | ((S >> 2^b) & M_b), where M_b marks the positions with
bit b clear.  The next layer is the union of the translates of the current
one by the generators, less everything reached.  The shifts are walked as a
binary trie, so shifts sharing their top bits share those swaps, and as the
sumset is symmetric the smaller of the layer and the generator set supplies
the shifts.

Tensors are int bitmasks over d^n coordinates; the flat index of the basis
tensor e_{i_0} (x) ... (x) e_{i_{n-1}} is sum_j i_j * d^j.  Elements of k_n
are SymbolVector values whose coordinates are indexed by the non-pivot
columns of the row reduced relation matrix, so representatives and
dimensions are deterministic.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

from .errors import DegreeMismatch, TooLarge, VerificationFailure
from .f2space import iter_bits, rref_ints
from .scheme import Scheme

DEFAULT_TENSOR_CAP = 1 << 16
DEFAULT_SL_CAP = 1 << 24
# the largest head table built: 1,572,864 entries at d = 6, n = 4 fit,
# d = 6 at n = 5 (100,663,296) does not
HEAD_TABLE_CAP = 1 << 23


@dataclass(frozen=True, order=True)
class SymbolVector:
    """An element of k_n in the free-column coordinates of its algebra."""

    coords: int
    dim: int

    def __post_init__(self):
        if self.coords < 0 or self.coords >> self.dim:
            raise DegreeMismatch(
                "coordinate mask %d does not fit dimension %d"
                % (self.coords, self.dim)
            )


def split_pair_basis(scheme: Scheme) -> list[int]:
    """RREF basis of the split 2-tensors a (x) b with b in D<1, -a>.

    a (x) b is the sum of the disjoint shifts a << d*j over the bits j of b.
    For each a the tensors span a (x) span(D<1, -a>), so a basis of each
    value set gives the same span on any table.  Built once per scheme.
    """
    if scheme._split_pairs is None:
        rows = []
        for a in range(1, scheme.size):
            for b in rref_ints(iter_bits(scheme.binary_unit(a ^ scheme.eps) & ~1)):
                rows.append(sum(a << (scheme.d * j) for j in iter_bits(b)))
        scheme._split_pairs = rref_ints(rows)
    return scheme._split_pairs


def _relation_rows(pair: list[int], d: int, n: int):
    """The split 2-tensors in every adjacent slot pair (pos, pos + 1) of
    the degree n tensors, times every basis tensor in the other slots."""
    for pos in range(n - 1):
        lo = d ** pos
        # bit i + d*j of a 2-tensor (e_i in slot pos, e_j in slot pos + 1)
        # lands at bit lo * (i + d*j)
        spread = [sum(1 << (lo * e) for e in iter_bits(r)) for r in pair]
        for high in range(d ** (n - pos - 2)):
            for low in range(lo):
                for row in spread:
                    yield row << (high * lo * d * d + low)


class SymbolAlgebra:
    """k_n of a scheme with a fixed coordinate choice.

    Relation rows are kept in RREF over the d^n tensor coordinates; the
    non-pivot columns, in increasing order, index the quotient coordinates.
    A degree whose head table would have more than HEAD_TABLE_CAP entries
    is refused before the relations are reduced.
    """

    def __init__(self, scheme: Scheme, n: int, tensor_cap: int = DEFAULT_TENSOR_CAP):
        if n < 1:
            raise DegreeMismatch("symbol degree must be at least 1, got %d" % n)
        self.scheme = scheme
        self.n = n
        d = scheme.d
        self.tensor_dim = d ** n
        if self.tensor_dim > tensor_cap:
            raise TooLarge(
                "tensor space needs %d coordinates, cap is %d"
                % (self.tensor_dim, tensor_cap)
            )
        heads = d * scheme.size ** (n - 1)
        if heads > HEAD_TABLE_CAP:
            raise TooLarge(
                "head table needs %d entries, cap is %d" % (heads, HEAD_TABLE_CAP)
            )
        # fully reduced rows by decreasing pivot: the row with pivot p is at
        # the number of pivots above p, its other bits are free columns
        self.relations = rref_ints(
            _relation_rows(split_pair_basis(scheme), d, n) if n >= 2 else ())
        self._pivots = sum(1 << (r.bit_length() - 1) for r in self.relations)
        self.free_cols = tuple(
            c for c in range(self.tensor_dim) if not (self._pivots >> c) & 1
        )
        self.dim = len(self.free_cols)
        self._heads: list[int] | None = None
        self._pures: tuple[int, ...] | None = None
        self._classes: dict[int, tuple[int, ...]] | None = None
        self._layers: list[int] | None = None

    def __repr__(self):
        return "SymbolAlgebra(%r, n=%d, dim=%d)" % (
            self.scheme.name, self.n, self.dim)

    def project(self, tensor_mask: int) -> SymbolVector:
        """Class of a raw tensor bitmask in the quotient coordinates."""
        red = tensor_mask
        pivots = self._pivots
        for p in iter_bits(tensor_mask & pivots):
            red ^= self.relations[(pivots >> p).bit_count() - 1]
        return SymbolVector(self._coords(red), self.dim)

    def _coords(self, reduced: int) -> int:
        """Quotient coords of a tensor bitmask supported on free columns."""
        coords = 0
        for c in iter_bits(reduced):
            coords |= 1 << bisect_left(self.free_cols, c)
        return coords

    def representative(self, x: SymbolVector) -> int:
        """Canonical tensor bitmask representing x (supported on free columns)."""
        mask = 0
        for j in iter_bits(x.coords):
            mask |= 1 << self.free_cols[j]
        return mask

    def head_table(self) -> list[int]:
        """Coords of the images of <<head, e_i>>, (2^d)^(n-1) * d entries.

        The first n - 1 slots run over all 2^d vectors and the last one over
        the basis vectors: the entry at i + d * sum((a_j ^ eps) << d*j) is
        the image of (a_0 ^ eps) (x) ... (x) (a_{n-2} ^ eps) (x) e_i.
        """
        if self._heads is None:
            d = self.scheme.d
            # a free column is its own image, a pivot column reduces to
            # its row less the pivot bit
            table = [0] * self.tensor_dim
            for j, c in enumerate(self.free_cols):
                table[c] = 1 << j
            for row in self.relations:
                p = row.bit_length() - 1
                table[p] = self._coords(row ^ (1 << p))
            if d:
                for _ in range(self.n - 1):
                    table = _contract_all(table, d)
            self._heads = table
        return self._heads

    def _head_start(self, head, degree: int) -> int:
        """Index of the entry for <<head, e_0>> in the head table, for a
        form of the given degree."""
        if degree != self.n:
            raise DegreeMismatch(
                "form has %d slots, algebra degree is %d" % (degree, self.n)
            )
        d = self.scheme.d
        eps = self.scheme.eps
        key = 0
        for j, a in enumerate(head):
            key |= (a ^ eps) << (d * j)
        return d * key

    def image_coords(self, slots) -> int:
        """Coords of the image of <<slots>>, the XOR of at most d entries."""
        start = self._head_start(slots[:-1], len(slots))
        table = self.head_table()
        coords = 0
        for i in iter_bits(slots[-1] ^ self.scheme.eps):
            coords ^= table[start + i]
        return coords

    def last_slot_images(self, head) -> list[int]:
        """Images of <<head, c>> for every class c, in class order."""
        start = self._head_start(head, len(head) + 1)
        # row[v]: the image with the vector v in the last slot
        row = [0]
        for entry in self.head_table()[start:start + self.scheme.d]:
            row += [x ^ entry for x in row]
        # the class c has the vector c ^ eps, and row is linear in v
        shift = row[self.scheme.eps]
        return [x ^ shift for x in row] if shift else row

    def pure_symbols(self) -> tuple[int, ...]:
        """Sorted coords of the distinct nonzero pure symbols.

        The last slot is walked over the nonzero vectors in Gray code order
        for every head at once, one XOR per head and step; heads with a
        zero vector only give 0.
        """
        if self._pures is None:
            seen: set[int] = set()
            if self.dim:
                d = self.scheme.d
                table = self.head_table()
                cols = [table[i::d] for i in range(d)]
                row = [0] * len(cols[0])
                for k in range(1, 1 << d):
                    # the Gray code vector of step k differs from the last
                    # in bit ctz(k)
                    col = cols[(k & -k).bit_length() - 1]
                    row = [a ^ c for a, c in zip(row, col)]
                    seen.update(row)
                seen.discard(0)
            self._pures = tuple(sorted(seen))
        return self._pures

    def classes(self) -> dict[int, tuple[int, ...]]:
        """Map of each nonzero image to its lexicographically least sorted
        slot tuple, in the order of those tuples.

        The sorted tuples are scanned head by head, the last slot through
        last_slot_images.  Sorted tuples with more leading 1 slots come
        first, so a class's least tuple also has its largest number of
        leading 1 slots.
        """
        if self._classes is None:
            size = self.scheme.size
            classes: dict[int, tuple[int, ...]] = {}
            for head in itertools.combinations_with_replacement(range(size), self.n - 1):
                row = self.last_slot_images(head)
                for c in range(head[-1] if head else 0, size):
                    image = row[c]
                    if image and image not in classes:
                        classes[image] = head + (c,)
            self._classes = classes
        return self._classes

    def _bfs_layers(self, cap: int) -> list[int]:
        """Layer k of the pure-symbol Cayley graph, as a bitset, at index k."""
        if self._layers is None:
            if (1 << self.dim) > cap:
                raise TooLarge(
                    "k_n has 2^%d elements, enumeration cap is %d"
                    % (self.dim, cap)
                )
            masks = _clear_bit_masks(self.dim)
            gens = self.pure_symbols()
            gen_set = sum(1 << g for g in gens)
            layers = [1]
            reached = 1
            while True:
                layer = layers[-1]
                if layer.bit_count() < len(gens):
                    # the sumset is symmetric: walk the smaller side
                    nxt = _union_of_translates(
                        gen_set, list(iter_bits(layer)), masks)
                else:
                    nxt = _union_of_translates(layer, gens, masks)
                nxt &= ~reached
                if not nxt:
                    break
                reached |= nxt
                layers.append(nxt)
            if reached != (1 << (1 << self.dim)) - 1:
                raise VerificationFailure(
                    "pure symbols span only %d of %d classes"
                    % (reached.bit_count(), 1 << self.dim)
                )
            self._layers = layers
        return self._layers

    def symbol_length(self, x: SymbolVector, cap: int = DEFAULT_SL_CAP) -> int:
        if x.dim != self.dim:
            raise DegreeMismatch(
                "element dimension %d does not match algebra dimension %d"
                % (x.dim, self.dim)
            )
        layers = self._bfs_layers(cap)
        return next(k for k, layer in enumerate(layers)
                    if (layer >> x.coords) & 1)

    def max_symbol_length(self, cap: int = DEFAULT_SL_CAP) -> tuple[int, SymbolVector]:
        """Largest symbol length over k_n and the least witness attaining it."""
        layers = self._bfs_layers(cap)
        last = layers[-1]
        witness = (last & -last).bit_length() - 1
        return len(layers) - 1, SymbolVector(witness, self.dim)


def _contract_all(table: list[int], d: int) -> list[int]:
    """Contract the lowest slot of a multilinear table over all 2^d vectors.

    table[i + d * r] is the value with the basis vector e_i in the lowest
    slot.  The result holds at r + R * v, for R = len(table) // d, the value
    with the vector v in that slot, so the next slot becomes the lowest one.
    """
    cols = [table[i::d] for i in range(d)]
    width = len(table) // d
    # allocated at its final size: a list grown by += keeps up to 1/8 spare
    out = [0] * (width << d)
    for v in range(1, 1 << d):
        # v is v & (v - 1) plus the basis vector of its lowest set bit
        start = (v & (v - 1)) * width
        col = cols[(v & -v).bit_length() - 1]
        out[v * width:(v + 1) * width] = [
            a ^ c for a, c in zip(out[start:start + width], col)]
    return out


def _clear_bit_masks(dim: int) -> list[int]:
    """M_b for b < dim: the set of x < 2^dim with bit b of x clear."""
    size = 1 << dim
    masks = []
    for b in range(dim):
        block = 1 << b
        mask = (1 << block) - 1
        width = 2 * block
        while width < size:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return masks


def _union_of_translates(bitset: int, shifts, masks: list[int]) -> int:
    """Union of the translates {s ^ x : s in bitset} over a sorted shift list.

    The shifts are walked as a binary trie from the top bit down, so the
    block swap for a bit is done once for every shift sharing the prefix.
    """
    def walk(s: int, lo: int, hi: int, b: int) -> int:
        if hi - lo == 1:
            for bit in iter_bits(shifts[lo] & ((1 << (b + 1)) - 1)):
                s = _swap(s, bit, masks)
            return s
        # shifts[lo:hi] agree above bit b; those with bit b set come last
        mid = bisect_left(shifts, ((shifts[lo] >> b) | 1) << b, lo, hi)
        out = walk(s, lo, mid, b - 1) if mid > lo else 0
        if hi > mid:
            out |= walk(_swap(s, b, masks), mid, hi, b - 1)
        return out

    if not shifts:
        return 0
    return walk(bitset, 0, len(shifts), len(masks) - 1)


def _swap(s: int, b: int, masks: list[int]) -> int:
    """Translate of the bitset s by the element with only bit b set."""
    block = 1 << b
    keep = masks[b]
    return ((s & keep) << block) | ((s >> block) & keep)


def kn_space(scheme: Scheme, n: int, tensor_cap: int = DEFAULT_TENSOR_CAP) -> SymbolAlgebra:
    """The degree n symbol algebra of a scheme, cached on the scheme.

    The cap is enforced on cache hits too, so that a request refused on a
    cold cache is refused identically on a warm one.
    """
    if scheme.d ** n > tensor_cap:
        raise TooLarge(
            "tensor space needs %d coordinates, cap is %d"
            % (scheme.d ** n, tensor_cap)
        )
    hit = scheme._kn.get(n)
    if hit is None:
        hit = SymbolAlgebra(scheme, n, tensor_cap)
        scheme._kn[n] = hit
    return hit


def sl_field(scheme: Scheme, n: int) -> tuple[int, SymbolVector]:
    """Exact degree n symbol length of the scheme with a least witness."""
    return kn_space(scheme, n).max_symbol_length()
