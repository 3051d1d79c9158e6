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

k_* is generated in degree 1 with quadratic relations (Milnor, "Algebraic
K-theory and quadratic forms", 1970), so degree n is built on degree n - 1:
its relations are R_{n-1} (x) G plus the split 2-tensors in the last slot
pair (the same span).  As R_{n-1} (x) G lies in R_n, x (x) v has a
bilinear class mu_n(x, v) for x in k_{n-1} and v in G, so k_n is
k_{n-1} (x) G modulo x (x) s for the basis vectors x of k_{n-2} and the
split pairs s, rows read off the table of degree n - 1 and reduced once
(at n = 2 they are the split pairs, already reduced).  Degree n keeps
mu_n(e_j, v) for the basis vectors e_j of k_{n-1} and every v:
dim k_{n-1} * 2^d entries, read off the reduced rows.  The image of
<<a_1, ..., a_n>> walks the slots through these tables from 1 in k_0 = F2.
An anisotropic n-fold Pfister form is determined up to isometry by its
image, and it is hyperbolic iff the image is 0 (the Arason-Pfister
Hauptsatz for fields; for schemes the tests check it against a Witt
decomposition search).  One walk of the sorted slot prefixes, keeping the
least prefix of each nonzero image, reaches them all: they are the pure
symbols.  Each degree is walked once, when its algebra is constructed:
the walk reads its rows off one table, and keeps, per image, the image of
its least tuple's prefix one degree down and the last slot; a class's
least slot tuple is read off these links.  kn_space is the one builder:
it keeps the degrees 1, 2, ... in one list on the scheme and appends the
missing ones in order, so the tensor cap bounds n as well as d^n.

The search holds each BFS layer as one 2^dim-bit int, bit x standing for
the element with coords x.  Translating a set by an element g swaps, for
every set bit b of g, the blocks of positions with bit b clear and set:
((S & M_b) << 2^b) | ((S >> 2^b) & M_b), where M_b marks the positions with
bit b clear; scheme._swap_runs does it, as for sets of classes.  Layer 1
is the pure symbols.  For a head x of the class walk, W_x =
{mu_n(x, v) : v in G} is spanned by the d unit images mu_n(x, e_i),
which the walk records, its nonzero elements are pure symbols, and each
image lies in the W_x of its head; so the ball of radius k is the union
over the heads of the ball of radius k - 1 saturated by W_x,
S |= translate(S, w) per unit image w.
A pass keeps only the classes not yet reached, and stops as soon as its
saturations cover them all; the search ends when every class is reached.
cayley_layers runs it on plain data and reads no scheme.

Tensors are int bitmasks over d^n coordinates; the flat index of the basis
tensor e_{i_0} (x) ... (x) e_{i_{n-1}} is sum_j i_j * d^j.  Elements of k_n
are SymbolVector values whose coordinates are indexed by the non-pivot
columns of the relations row reduced over the d^n tensor columns (found in
k_{n-1} (x) G coordinates, see _quotient), so representatives and
dimensions are deterministic.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegreeMismatch, TooLarge, VerificationFailure
from .f2space import iter_bits, rref_ints
from .scheme import Scheme, _swap_runs, clear_bit_masks

DEFAULT_SL_CAP = 1 << 24
# bounds d^n, the tensor coordinates of k_n, and n, the degrees kept
DEFAULT_TENSOR_CAP = 1 << 13


def _check_degree(d: int, n: int, tensor_cap: int) -> None:
    """Refuse a degree below 1, or one whose d^n or n exceeds the cap,
    without building d^n when d >= 2 and n > cap.bit_length()."""
    if n < 1:
        raise DegreeMismatch("symbol degree must be at least 1, got %d" % n)
    if n > tensor_cap or (d > 1 and (n > tensor_cap.bit_length()
                                     or d ** n > tensor_cap)):
        raise TooLarge(
            "k_n with d = %d, n = %d needs d^n tensor coordinates and n "
            "degrees, cap is %d" % (d, n, tensor_cap)
        )


class _SymbolVectorFields(NamedTuple):
    coords: int
    dim: int


class SymbolVector(_SymbolVectorFields):
    """An element of k_n in the free-column coordinates of its algebra,
    ordered by (coords, dim)."""

    __slots__ = ()

    def __new__(cls, coords: int, dim: int):
        if dim < 0 or coords < 0 or coords >> dim:
            raise DegreeMismatch(
                "coordinate mask %d does not fit dimension %d" % (coords, dim)
            )
        return super().__new__(cls, coords, dim)


def split_pair_basis(scheme: Scheme) -> list[int]:
    """RREF basis of the split 2-tensors a (x) b with b in D<1, -a>.

    a (x) b is a * spread[b], the sum of the disjoint shifts a << d*j over
    the bits j of b.  Every value set is a subgroup (validate_scheme), so
    the tensors of a class a are spanned by a times the subgroup_rows of
    D<1, -a>, kept by the scheme from validation: one product per class
    and row, then one row reduction.  Built once per table.
    """
    if scheme._split_pairs is None:
        d = scheme.d
        # spread[b] has bit d*j for each bit j of b: a (x) b = a * spread[b]
        spread = [0]
        for j in range(d):
            spread += [x | (1 << (d * j)) for x in spread]
        rows = scheme.rows
        scheme._split_pairs = rref_ints(
            a * spread[b] for a in range(1, scheme.size)
            for b in scheme._subgroups[rows[a ^ scheme.eps]])
    return scheme._split_pairs


def _quotient(lower: SymbolAlgebra, scheme: Scheme, n: int):
    """(free columns, multiplication table) of k_n for n >= 2, on k_{n-1}.

    Column i * dim k_{n-1} + j stands for e_j (x) e_i.  For the split pair
    s, the sum of a_b (x) e_b, x (x) s is mu_{n-1}(x, a_b) in block b; at
    n = 2, x is 1 in k_0 and the rows are the split pairs themselves,
    already reduced.  Reducing modulo R_{n-1} (x) G first keeps every
    pivot, and column i * dim k_{n-1} + j maps in order to
    f_j + i * d^(n-1), the tensor column of rep(e_j) (x) e_i: the free
    columns are those of the reduction over d^n columns.  The image of a
    free column is its coordinate, and that of a pivot the XOR of the
    images of its reduced row's other bits, all of them free.
    """
    d = scheme.d
    width = lower.dim
    if n == 2:
        rows = split_pair_basis(scheme)
    else:
        # each split pair as its nonzero (a_b, b * width), d bits at a time
        mask = scheme.size - 1
        chunks = []
        for s in split_pair_basis(scheme):
            pair = []
            shift = 0
            while s:
                if s & mask:
                    pair.append((s & mask, shift))
                s >>= d
                shift += width
            chunks.append(pair)
        # x (x) s for each basis vector x, whose row of lower._mul is m
        rows = []
        for m in lower._mul:
            for pair in chunks:
                y = 0
                for a, shift in pair:
                    y |= m[a] << shift
                rows.append(y)
        rows = rref_ints(rows)
    pivots = 0
    for r in rows:
        pivots |= 1 << (r.bit_length() - 1)
    free = [c for c in range(d * width) if not (pivots >> c) & 1]
    image = [0] * (d * width)
    for k, c in enumerate(free):
        image[c] = 1 << k
    for r in rows:
        p = r.bit_length() - 1
        r ^= 1 << p
        x = 0
        while r:  # the loop of iter_bits, inlined: hot
            low = r & -r
            x ^= image[low.bit_length() - 1]
            r ^= low
        image[p] = x
    free_cols = tuple(lower.free_cols[c % width] + (c // width) * d ** (n - 1)
                      for c in free)
    mul = []
    for j in range(width):
        row = [0]
        for i in range(d):
            x = image[i * width + j]
            row += [y ^ x for y in row]
        mul.append(row)
    return free_cols, mul


class SymbolAlgebra:
    """k_n of a scheme with a fixed coordinate choice, built by _quotient
    on lower, the algebra of k_{n-1} (None at n = 1), and walked by _walk
    when constructed.  kn_space is the one builder: it checks the tensor
    cap and builds the degrees in order, each on the last one in
    scheme._kn, so the degrees below n are scheme._kn[:n - 1].  Memos
    start cold.
    """

    def __init__(self, scheme: Scheme, lower: SymbolAlgebra | None):
        d = scheme.d
        self.scheme = scheme
        self.lower = lower
        if lower is None:  # k_1 is G, and mu_1(1, v) = v
            self.n = 1
            self.free_cols, self._mul = tuple(range(d)), [list(range(scheme.size))]
        else:
            self.n = lower.n + 1
            self.free_cols, self._mul = _quotient(lower, scheme, self.n)
        self.dim = len(self.free_cols)
        self._tables: list[list[list[int]]] | None = None
        self._last_slot_rows: dict[int, list[int]] = {}
        self._classes: dict[int, tuple[int, ...]] | None = None
        self._pure: tuple[int, ...] | None = None
        self._layers: list[int] | None = None
        # k_0: the empty tuple has image 1, and its extensions start at 0
        self._link_map, self._bases = self._walk(
            {1: (0, 0)} if lower is None else lower._link_map)

    def __repr__(self):
        return "SymbolAlgebra(d=%d, n=%d, dim=%d)" % (self.scheme.d, self.n, self.dim)

    def representative(self, x: SymbolVector) -> int:
        """Canonical tensor bitmask representing x (supported on free columns)."""
        mask = 0
        for j in iter_bits(x.coords):
            mask |= 1 << self.free_cols[j]
        return mask

    def _row(self, x: int) -> list[int]:
        """mu_n(x, v) for every vector v, in vector order, for x in k_{n-1}:
        the XOR of the table rows at the bits of x.  Not to be modified: it
        may be a row of the table."""
        mul = self._mul
        row = None
        for j in iter_bits(x):
            row = mul[j] if row is None else [a ^ b for a, b in zip(row, mul[j])]
        return row if row is not None else [0] * self.scheme.size

    def image_coords(self, slots) -> int:
        """Coords of the image of <<slots>>: mu of each degree applied to
        the image below, from 1 in k_0."""
        if len(slots) != self.n:
            raise DegreeMismatch(
                "form has %d slots, algebra degree is %d" % (len(slots), self.n)
            )
        if self._tables is None:
            self._tables = [alg._mul for alg in self.scheme._kn[:self.n - 1]]
            self._tables.append(self._mul)
        eps = self.scheme.eps
        x = 1
        for mul, a in zip(self._tables, slots):
            v = a ^ eps
            y = 0
            while x:  # the loop of iter_bits, inlined: hot
                low = x & -x
                y ^= mul[low.bit_length() - 1][v]
                x ^= low
            x = y
        return x

    def last_slot_row(self, x: int) -> list[int]:
        """Images of <<X, c>> for every class c, in class order, for a head
        X whose image in k_{n-1} is x.  Not to be modified.

        Memoized by x, a pure symbol or 0, as the merge asks for the row of
        every class of k_{n-1}.
        """
        memo = self._last_slot_rows
        images = memo.get(x)
        if images is None:
            row = self._row(x)
            # the class c has the vector c ^ eps, and row is linear in v
            shift = row[self.scheme.eps]
            images = memo[x] = [y ^ shift for y in row]
        return images

    def pure_symbols(self) -> tuple[int, ...]:
        """Sorted coords of the distinct nonzero pure symbols: the images
        the class walk reaches."""
        if self._pure is None:
            self._pure = tuple(sorted(self._link_map))
        return self._pure

    def _walk(self, links: dict[int, tuple[int, int]]
              ) -> tuple[dict[int, tuple[int, int]], list[tuple[int, ...]]]:
        """This degree's link map and head bases, from the links one degree
        down: each least prefix x extended in order by every slot from its
        last one up.  A prefix P that is not the least P' of its image is
        not needed: P + (e) has the image of sorted(P' + (e)).

        The link map takes each nonzero image to (image of its least slot
        tuple's prefix one degree down, its last slot), in least-tuple
        order.  Row x, mu_n(x, v) over v, is the entry at the low bits of x
        of a table of the XORs of the first min(d, dim k_{n-1}) rows of
        _mul, XOR the rows at its other bits.  A head is an x whose row
        adds an image; its basis is its nonzero unit images row[e_i].
        """
        d, size, eps = self.scheme.d, self.scheme.size, self.scheme.eps
        mul = self._mul
        low = min(d, len(mul))
        table = [[0] * size]
        for m in mul[:low]:
            table += [m] + [[a ^ b for a, b in zip(r, m)] for r in table[1:]]
        nxt: dict[int, tuple[int, int]] = {}
        bases = []
        mask = (1 << low) - 1
        for x, (_, last) in links.items():
            row = table[x & mask]
            if x > mask:
                for j in iter_bits(x >> low):
                    row = [a ^ b for a, b in zip(row, mul[low + j])]
            known = len(nxt)
            for c in range(last, size):
                image = row[c ^ eps]
                if image and image not in nxt:
                    nxt[image] = (x, c)
            if len(nxt) > known:
                bases.append(tuple([row[1 << i] for i in range(d) if row[1 << i]]))
        return nxt, bases

    def classes(self) -> dict[int, tuple[int, ...]]:
        """Map of each nonzero image to its lexicographically least sorted
        slot tuple, in the order of those tuples.

        Each tuple is read off the link maps of degrees n down to 1, and
        the map is kept for this degree only.  Sorted tuples with more
        leading 1 slots come first, so a class's least tuple also has the
        most.
        """
        if self._classes is None:
            maps = [alg._link_map for alg in self.scheme._kn[:self.n - 1]]
            maps.append(self._link_map)
            maps.reverse()
            least = {}
            for image in self._link_map:
                slots = []
                x = image
                for links in maps:
                    x, c = links[x]
                    slots.append(c)
                least[image] = tuple(reversed(slots))
            self._classes = least
        return self._classes

    def _bfs_layers(self, cap: int) -> list[int]:
        """Layer k of the pure-symbol Cayley graph, as a bitset, at index k.

        The cap is checked on every call, so that a search refused on a
        cold cache is refused identically on a warm one.  The layers are
        memoized, and one algebra serves every label of the table, so the
        search, and its read of layer 1, the pure symbols, runs once per
        (table, n).  cayley_layers saturates by the head bases that the
        class walk recorded."""
        if (1 << self.dim) > cap:
            raise TooLarge(
                "k_n has 2^%d elements, enumeration cap is %d" % (self.dim, cap)
            )
        if self._layers is None:
            self._layers = cayley_layers(self.dim, self.pure_symbols(), self._bases)
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


def cayley_layers(dim: int, generators, bases) -> list[int]:
    """Layer k of the Cayley graph of F2^dim, as a bitset, at index k.

    The generators must be the nonzero elements of the union of the spans
    of the bases: radius k is then the union over the bases of radius
    k - 1 saturated by the basis.  Generators that do not span F2^dim
    raise VerificationFailure.
    """
    packed = bytearray(((1 << dim) + 7) >> 3)
    for g in generators:
        packed[g >> 3] |= 1 << (g & 7)
    gens = int.from_bytes(packed, "little")
    masks = clear_bit_masks(dim)
    full = (1 << (1 << dim)) - 1
    layers = [1]
    reached = 1
    while reached != full:
        todo = full ^ reached
        if len(layers) == 1:
            nxt = gens & todo
        else:
            nxt = 0
            for basis in bases:
                s = reached
                for w in basis:
                    s |= _swap_runs(s, w, masks, 1)
                nxt |= s & todo
                if nxt == todo:
                    break
        if not nxt:
            raise VerificationFailure(
                "pure symbols span only %d of %d classes"
                % (reached.bit_count(), 1 << dim)
            )
        reached |= nxt
        layers.append(nxt)
    return layers


def kn_space(scheme: Scheme, n: int, tensor_cap: int = DEFAULT_TENSOR_CAP) -> SymbolAlgebra:
    """The degree n symbol algebra of a scheme, cached on the scheme: one
    algebra per (table, n), as builders.build gives a table one scheme.

    The one builder of k_n: scheme._kn is the list of the degrees 1, 2, ...
    built so far, and the missing ones up to n are appended in order, each
    built on the last.  The cap is checked once per call, on cache hits
    too, so that a request refused on a cold cache is refused identically
    on a warm one.
    """
    _check_degree(scheme.d, n, tensor_cap)
    chain = scheme._kn
    while len(chain) < n:
        chain.append(SymbolAlgebra(scheme, chain[-1] if chain else None))
    return chain[n - 1]


def sl_field(scheme: Scheme, n: int) -> tuple[int, SymbolVector]:
    """Exact degree n symbol length of the scheme with a least witness."""
    return kn_space(scheme, n).max_symbol_length()
