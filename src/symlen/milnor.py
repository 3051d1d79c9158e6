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
k_{n-1} (x) G modulo x (x) a (x) b for the basis vectors x of k_{n-2}
and the split generators (a, b), whose tensors a (x) b form a basis of
the split 2-tensors: rows mu_{n-1}(x, a) (x) b read off the table of
degree n - 1 and reduced once.
Degree n keeps mu_n(e_j, v) for the basis vectors e_j of k_{n-1} and every
v: dim k_{n-1} * 2^d entries, read off the reduced rows.  Each row j is
kept only packed into one int of 32-bit fields, so that the row of any x
in k_{n-1}, the XOR of the rows at the bits of x, is a few int XORs, and
one entry of it is one shift and mask.  The image of <<a_1, ..., a_n>>
walks the slots through these tables from 1 in k_0 = F2.
An anisotropic n-fold Pfister form is determined up to isometry by its
image, and it is hyperbolic iff the image is 0 (the Arason-Pfister
Hauptsatz for fields; for schemes the tests check it against a Witt
decomposition search).  One walk of the sorted slot prefixes, keeping the
least prefix of each nonzero image, reaches them all: they are the pure
symbols.  Each degree is walked once, on the first read of its pure
symbols, class map or search, after the degrees below it: the walk forms
each prefix's row from the packed rows, and keeps three flat sequences
in least-tuple order: the images (a tuple), their least tuples' last
slots (bytes), and the positions of those tuples' prefixes among the
images one degree down (an array of unsigned ints).  A class's least slot
tuple is read off these, from its position down.  kn_space is the one
builder: it keeps the degrees 1, 2, ... in one list on the scheme and
appends the missing ones in order, so the tensor cap bounds the
coordinates that all n degrees can hold, n * 2^(d - 1) (see _FIELD).
That list is the one chain: a degree reads the degrees below it there
and keeps no link to them.

The search holds each BFS layer as one 2^dim-bit int, bit x standing for
the element with coords x.  Translating a set by an element g swaps, for
every set bit b of g, the blocks of positions with bit b clear and set:
((S & M_b) << 2^b) | ((S >> 2^b) & M_b), where M_b marks the positions with
bit b clear; f2space._swap_runs does it, as for sets of classes.  Layer 1
is the pure symbols.  For a head x of the class walk, W_x =
{mu_n(x, v) : v in G} is spanned by the d unit images mu_n(x, e_i), its
nonzero elements are pure symbols, and each image lies in the W_x of its
head; so the ball of radius k is the union over the heads of the ball of
radius k - 1 saturated by W_x, S |= translate(S, w) per vector w of a
basis of W_x: the unit images not in the span of those before them,
recorded by the walk.  _saturate does one such step, in five big-int ops
for a w = 2^b: U = (S | (S >> 2^b)) & M_b and S = U | (U << 2^b).  A pass
ORs each head's saturated ball into the reached set, and stops, as the
search does, once that is every class.
cayley_layers runs it on plain data and reads no scheme.  A degree keeps
its answer, sl and the least witness, and not its layers.

Tensors are int bitmasks over d^n coordinates; the flat index of the basis
tensor e_{i_0} (x) ... (x) e_{i_{n-1}} is sum_j i_j * d^j.  Elements of k_n
are SymbolVector values whose coordinates are indexed by the non-pivot
columns of the relations row reduced over the d^n tensor columns (found in
k_{n-1} (x) G coordinates, see _quotient), so representatives and
dimensions are deterministic.

Scheme appears here in annotations only: scheme imports this module, for
pfister_classes, and importing it loads no scheme module.
"""

from __future__ import annotations

import functools
import sys
from array import array
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInput, TooLarge, VerificationFailure
from .f2space import _swap_runs, clear_bit_masks, iter_bits, rref_ints

if TYPE_CHECKING:
    from .scheme import Scheme

DEFAULT_SL_CAP = 1 << 24
# bounds n * 2^(d - 1), the coordinates that the n degrees kept can hold
DEFAULT_TENSOR_CAP = 1 << 13
# the bits of one entry of a packed table row, an unsigned int of array
# "I".  a (x) b + b (x) a and a (x) a + a (x) eps are relations in every
# adjacent slot pair, so k_n is spanned by the sorted monomials
# eps^(n - |S|) e_S for the sets S of at most n vectors of a basis of a
# complement of eps (of exactly n basis vectors of G when eps = 0): so
# dim k_n <= 2^(d - 1) <= 32 at d <= SCHEME_DIM_CAP = 6, and
# laurent^5(RC) reaches 32 at n = 5
_FIELD = 32
_MASK = (1 << _FIELD) - 1


class _SymbolVectorFields(NamedTuple):
    coords: int
    dim: int


class SymbolVector(_SymbolVectorFields):
    """An element of k_n in the free-column coordinates of its algebra,
    ordered by (coords, dim)."""

    __slots__ = ()

    def __new__(cls, coords: int, dim: int):
        if dim < 0 or coords < 0 or coords >> dim:
            raise InvalidInput(
                "coordinate mask %d does not fit dimension %d" % (coords, dim)
            )
        return super().__new__(cls, coords, dim)


def _spread(d: int, width: int) -> list[int]:
    """spread[b] for every b < 2^d: bit width * j for each bit j of b, so
    that y * spread[b] is y (x) b for any y below 2^width."""
    spread = [0]
    for j in range(d):
        spread += [x | (1 << (width * j)) for x in spread]
    return spread


def split_generators(scheme: Scheme) -> list[tuple[int, int]]:
    """The pairs (a, b) whose tensors a (x) b = a * spread[b] form a basis
    of the split 2-tensors, b in D<1, -a>.

    Every value set is a subgroup (validate_scheme), so the tensors of a
    class a are spanned by a times the subgroup_rows of D<1, -a>, kept by
    the scheme from validation.  The pairs are listed for a = 1, 2, ...
    and each a's rows in order, and a pair is kept when its tensor is
    independent of those kept before it: reduced at its leading bit by
    the kept tensor with that leading bit until it is 0 or has a new one.
    Built once per table.
    """
    if scheme._split_pairs is None:
        spread = _spread(scheme.d, scheme.d)
        rows = scheme.rows
        leading: dict[int, int] = {}
        kept = []
        for a in range(1, scheme.size):
            for b in scheme._subgroups[rows[a ^ scheme.eps]]:
                t = a * spread[b]
                while t:
                    p = t.bit_length() - 1
                    if p not in leading:
                        leading[p] = t
                        kept.append((a, b))
                        break
                    t ^= leading[p]
        scheme._split_pairs = kept
    return scheme._split_pairs


@functools.cache
def _doubling_steps(d: int) -> tuple[tuple[int, int], ...]:
    """(ones, shift) for each unit vector i < d: a 1 in each of the 2^i
    fields of the vectors below 2^i, and the bit offset _FIELD * 2^i of
    the vectors with bit i set."""
    steps = []
    ones = 1
    for i in range(d):
        steps.append((ones, _FIELD << i))
        ones |= ones << (_FIELD << i)
    return tuple(steps)


def _packed_rows(d: int, units) -> list[int]:
    """Each row of the table v -> XOR of u[i] over the bits i of v, for the
    d unit images u in units, packed into one int: the entry of v is field
    v, at bit _FIELD * v.  Doubled over the unit vectors: the fields of the
    vectors with bit i set are those below them XOR u[i] in each field."""
    steps = _doubling_steps(d)
    packed = []
    for u in units:
        row = 0
        for x, (ones, shift) in zip(u, steps):
            row |= (row ^ x * ones) << shift
        packed.append(row)
    return packed


@functools.cache
def _identity_row(d: int) -> int:
    """k_1's one packed row, mu_1(1, v) = v, the same for every table of
    dimension d."""
    return _packed_rows(d, [[1 << i for i in range(d)]])[0]


def _unpack(row: int, size: int) -> list[int]:
    """The entries of a packed row in vector order, as a new list."""
    return array("I", row.to_bytes(size * _FIELD >> 3, sys.byteorder)).tolist()


def _quotient(scheme: Scheme, n: int):
    """(free columns, packed multiplication table rows) of k_n for n >= 2,
    on k_{n-1}, the algebra scheme._kn[n - 2].

    Column i * dim k_{n-1} + j stands for e_j (x) e_i.  For the basis
    vector x of k_{n-2} whose packed table row in k_{n-1} is m, and the
    split generator (a, b), x (x) a (x) b is mu_{n-1}(x, a) (x) b: entry
    a of m, unpacked once per row, times spread[b] at this width.
    Reducing modulo R_{n-1} (x) G first keeps every pivot, and column
    i * dim k_{n-1} + j maps in order to f_j + i * d^(n-1), the tensor
    column of rep(e_j) (x) e_i: the free columns are those of the
    reduction over d^n columns.  The image of a free column is its
    coordinate, and that of a pivot the XOR of the images of its reduced
    row's other bits, all of them free.  Row j, mu_n(e_j, v) over v, is
    packed from the d images of the columns of e_j (x) e_i.
    """
    d = scheme.d
    lower = scheme._kn[n - 2]
    width = lower.dim
    spread = _spread(d, width)
    pairs = [(a, spread[b]) for a, b in split_generators(scheme)]
    unpacked = [_unpack(m, scheme.size) for m in lower._packed]
    rows = rref_ints([row[a] * spread_b for row in unpacked for a, spread_b in pairs])
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
    return free_cols, _packed_rows(d, [image[j::width] for j in range(width)])


class SymbolAlgebra:
    """k_n of a scheme with a fixed coordinate choice, built by _quotient
    on the degree below it in scheme._kn, from the scheme's split
    generators, and walked by _walk when _walked is first read, not when
    constructed.  The table is kept only as its packed rows, in _packed,
    which _packed_row XORs: _row unpacks the result whole, image_coords
    reads one field of it; k_1's one row is mu_1(1, v) = v.
    kn_space is the one builder: it checks the tensor cap and builds the
    degrees in order, each on the last one in scheme._kn, so the degrees
    below n are scheme._kn[:n - 1], the one chain.  Memos, the walk among
    them, start cold.
    """

    def __init__(self, scheme: Scheme, n: int):
        self.scheme = scheme
        self.n = n
        if n == 1:  # k_1 is G, and mu_1(1, v) = v
            self.free_cols = tuple(range(scheme.d))
            self._packed = [_identity_row(scheme.d)]
        else:
            self.free_cols, self._packed = _quotient(scheme, n)
        self.dim = len(self.free_cols)
        self._last_slot_rows: dict[int, list[int]] = {}
        self._classes: dict[int, tuple[int, ...]] | None = None
        self._max: tuple[int, SymbolVector] | None = None
        self._images: tuple[int, ...] | None = None
        self._last: bytes | None = None
        self._prefix: array | None = None
        self._bases: list[tuple[int, ...]] | None = None

    def __repr__(self):
        return "SymbolAlgebra(d=%d, n=%d, dim=%d)" % (self.scheme.d, self.n, self.dim)

    def _degrees(self) -> list[SymbolAlgebra]:
        """k_1, ..., k_n: the degrees below this one in scheme._kn, then
        this one."""
        return self.scheme._kn[:self.n - 1] + [self]

    def representative(self, x: SymbolVector) -> int:
        """Canonical tensor bitmask representing x (supported on free columns)."""
        mask = 0
        for j in iter_bits(x.coords):
            mask |= 1 << self.free_cols[j]
        return mask

    def _packed_row(self, x: int) -> int:
        """The XOR of the packed table rows at the bits of x in k_{n-1}:
        mu_n(x, v) for every vector v, packed, at field v."""
        packed = self._packed
        row = 0
        while x:  # the loop of iter_bits, inlined: hot
            low = x & -x
            row ^= packed[low.bit_length() - 1]
            x ^= low
        return row

    def _row(self, x: int) -> list[int]:
        """mu_n(x, v) for every vector v, in vector order, for x in k_{n-1}:
        _packed_row(x) unpacked into a new list."""
        return _unpack(self._packed_row(x), self.scheme.size)

    def image_coords(self, slots) -> int:
        """Coords of the image of <<slots>>: mu of each degree applied to
        the image below, from 1 in k_0, each one field of that degree's
        _packed_row read by shift and mask.  A slot outside 0..size - 1
        raises InvalidInput."""
        if len(slots) != self.n:
            raise InvalidInput(
                "form has %d slots, algebra degree is %d" % (len(slots), self.n)
            )
        d, eps = self.scheme.d, self.scheme.eps
        x = 1
        for alg, a in zip(self._degrees(), slots):
            v = a ^ eps
            if v >> d:  # nonzero exactly for a slot outside 0..2^d - 1
                raise InvalidInput("slot %r is not one of the %d classes"
                                   % (a, self.scheme.size))
            x = (alg._packed_row(x) >> (_FIELD * v)) & _MASK
        return x

    def last_slot_row(self, x: int) -> list[int]:
        """Images of <<X, c>> for every class c, in class order, for a head
        X whose image in k_{n-1} is x: a list of its own, read off _row.
        Not to be modified, as it is memoized.

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
        the class walk reaches, sorted on each call."""
        return tuple(sorted(self._walked()[0]))

    def _walked(self) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
        """This degree's images and head bases.  The first read walks the
        degrees 1..n in order, each one not yet walked on the images and
        last slots of the one below."""
        if self._images is None:
            # k_0: the empty tuple has image 1, and its extensions start at 0
            below = ((1,), b"\0")
            for alg in self._degrees():
                if alg._images is None:
                    alg._images, alg._last, alg._prefix, alg._bases = alg._walk(below)
                below = (alg._images, alg._last)
        return self._images, self._bases

    def _walk(self, below: tuple[tuple[int, ...], bytes]
              ) -> tuple[tuple[int, ...], bytes, array, list[tuple[int, ...]]]:
        """This degree's images, last slots, prefix positions and head
        bases, from the images and last slots one degree down: each least
        prefix x extended in order by every slot from its last one up.  A
        prefix P that is not the least P' of its image is not needed:
        P + (e) has the image of sorted(P' + (e)).

        The nonzero images come in least-tuple order; the one at position k
        has its least slot tuple's last slot at last[k], and the image of
        that tuple's prefix at position prefix[k] of the images one degree
        down.  A slot is below 2^d <= 64, so it fits a byte.  The dict of
        each image's last slot and the list of prefix positions live only
        while the walk runs.  Row x, mu_n(x, v) over v, is _row(x): one
        int XOR per bit of x, and one unpacking.  A head is an x whose row
        adds an image; its basis is the unit images row[u], u = 2^i for
        i < d, not in the span of those before them.  The row is linear in
        v, so that span is row[:u]: row[u] is kept iff its first position
        in the row is u, and 0 never is.
        """
        d, size, eps = self.scheme.d, self.scheme.size, self.scheme.eps
        units = [1 << i for i in range(d)]
        last: dict[int, int] = {}
        prefix = []
        bases = []
        images, slots = below
        for k in range(len(images)):
            row = self._row(images[k])
            known = len(last)
            for c in range(slots[k], size):
                image = row[c ^ eps]
                if image and image not in last:
                    last[image] = c
            if len(last) > known:
                prefix += [k] * (len(last) - known)
                bases.append(tuple([row[u] for u in units if row.index(row[u]) == u]))
        return tuple(last), bytes(last.values()), array("I", prefix), bases

    def classes(self) -> dict[int, tuple[int, ...]]:
        """Map of each nonzero image to its lexicographically least sorted
        slot tuple, in the order of those tuples.

        Each tuple is read off the last slots of degrees n down to 1, each
        degree's prefix position naming the entry to read one degree down,
        and the map is kept for this degree only.  Sorted tuples with more
        leading 1 slots come first, so a class's least tuple also has the
        most.
        """
        if self._classes is None:
            # walking this degree walks the ones below
            images = self._walked()[0]
            chain = [(alg._last, alg._prefix) for alg in reversed(self._degrees())]
            least = {}
            for k, image in enumerate(images):
                slots = []
                for last, prefix in chain:
                    slots.append(last[k])
                    k = prefix[k]
                slots.reverse()
                least[image] = tuple(slots)
            self._classes = least
        return self._classes

    def layers(self, cap: int = DEFAULT_SL_CAP) -> list[int]:
        """Layer k of the pure-symbol Cayley graph, as a bitset, at index k:
        cayley_layers on the pure symbols and the walk's head bases, after
        the cap check.  Nothing is memoized."""
        if (1 << self.dim) > cap:
            raise TooLarge(
                "k_n has 2^%d elements, enumeration cap is %d" % (self.dim, cap)
            )
        return cayley_layers(self.dim, self.pure_symbols(), self._walked()[1])

    def max_symbol_length(self, cap: int = DEFAULT_SL_CAP) -> tuple[int, SymbolVector]:
        """Largest symbol length over k_n and the least witness attaining it,
        memoized: one search per (table, n), as one algebra serves every
        label of the table.  The cap is checked on every call, so that a
        search refused on a cold cache is refused identically on a warm one."""
        if self._max is None or (1 << self.dim) > cap:  # past the cap, layers raises
            layers = self.layers(cap)
            last = layers[-1]
            witness = (last & -last).bit_length() - 1
            self._max = len(layers) - 1, SymbolVector(witness, self.dim)
        return self._max


def _saturate(s: int, w: int, masks: list[int]) -> int:
    """s joined with its translate by w, s a set of vectors of F2^dim as a
    2^dim-bit int and masks the clear_bit_masks of dim.  A unit w = 2^k
    takes five big-int ops: u marks each x with bit k clear such that x
    or x ^ w is in s, and u << w is its translate; any other w, 0
    included, takes the swap of _swap_runs and an OR."""
    if w & (w - 1) or not w:
        return s | _swap_runs(s, w, masks, 1)
    u = (s | (s >> w)) & masks[w.bit_length() - 1]
    return u | (u << w)


def cayley_layers(dim: int, generators, bases) -> list[int]:
    """Layer k of the Cayley graph of F2^dim, as a bitset, at index k.

    The generators must be the nonzero elements of the union of the spans
    of the bases, which may hold zero, repeated and dependent vectors:
    radius k is then the union over the bases of radius k - 1 saturated
    by the basis, one _saturate per vector, and a pass stops once the
    union is every class.  Generators that do not span F2^dim raise
    VerificationFailure.
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
        if len(layers) == 1:
            acc = reached | gens
        else:
            acc = reached
            for basis in bases:
                s = reached
                for w in basis:
                    s = _saturate(s, w, masks)
                acc |= s
                if acc == full:
                    break
        nxt = acc ^ reached
        if not nxt:
            raise VerificationFailure(
                "pure symbols span only %d of %d classes"
                % (reached.bit_count(), 1 << dim)
            )
        reached = acc
        layers.append(nxt)
    return layers


def kn_space(scheme: Scheme, n: int, tensor_cap: int = DEFAULT_TENSOR_CAP) -> SymbolAlgebra:
    """The degree n symbol algebra of a scheme, cached on the scheme: one
    algebra per (table, n), as builders.build gives a table one scheme.

    The one builder of k_n: scheme._kn is the list of the degrees 1, 2, ...
    built so far, and the missing ones up to n are appended in order, each
    built on the last.  The cap is checked once per call, on cache hits
    too, so that a request refused on a cold cache is refused identically
    on a warm one.  TooLarge refuses n * 2^max(d - 1, 0) > cap, the
    coordinates that k_1..k_n can hold (dim k_m <= 2^(d - 1), see _FIELD).
    """
    if n < 1:
        raise InvalidInput("symbol degree must be at least 1, got %d" % n)
    held = n << max(scheme.d - 1, 0)
    if held > tensor_cap:
        raise TooLarge("k_1..k_n with d = %d, n = %d can hold %d coordinates, "
                       "cap is %d" % (scheme.d, n, held, tensor_cap))
    chain = scheme._kn
    while len(chain) < n:
        chain.append(SymbolAlgebra(scheme, len(chain) + 1))
    return chain[n - 1]


def sl_field(scheme: Scheme, n: int) -> tuple[int, SymbolVector]:
    """Exact degree n symbol length of the scheme with a least witness."""
    return kn_space(scheme, n).max_symbol_length()
