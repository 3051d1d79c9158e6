"""Finite quadratic form schemes over an elementary abelian 2-group.

A scheme packages a group of square classes G = F2^d (classes are int masks
0..2^d-1, the class product is XOR, the identity class 0 plays the role of 1)
together with a distinguished class eps for -1 and a table of binary value
sets.  The table row for a class a is the set D<1,a> of classes represented
by the form <1,a>, stored as a bitmask over the 2^d classes (bit b set iff
class b is represented).  A table is the one triple (d, minus_one, rows):
Scheme takes it, and builders computes and caches it.

Everything else is derived from the table: the chain of subgroups
represented by sums of squares, the invariant profile (level, Pythagoras
number, quotient dimensions, and the D(2^m) chain that the plus-minus
groups and the decomposition read), and the classes of anisotropic
Pfister forms with their stratification by how many slots can be
rewritten as 1.  A
Pfister form is isotropic iff its image in the symbol algebra k_n is 0, and
two anisotropic ones are isometric iff their images are equal, so the
classes are keyed by image coords, read from the class map of
milnor.SymbolAlgebra.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    AxiomViolation,
    IsotropicInput,
    NotAGroup,
    ProfileInconsistency,
    TooLarge,
)
from .f2space import iter_bits

if TYPE_CHECKING:
    from .decompose import BasisChain
    from .milnor import SymbolAlgebra

SCHEME_DIM_CAP = 6


# validate_scheme packs one class set per 64-bit block of an int, the
# struct format 'Q'; 2^SCHEME_DIM_CAP classes fill one block
_BLOCK = 64


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


# _KEEP[k]: the classes below 2^SCHEME_DIM_CAP whose bit k is clear
_KEEP = clear_bit_masks(SCHEME_DIM_CAP)


def translate(setmask: int, x: int) -> int:
    """Image of a set of classes under multiplication by the class x."""
    return _swap_runs(setmask, x, _KEEP, 1)


def subgroup_rows(values: int, d: int) -> list[int] | None:
    """RREF basis of a class set of F2^d by decreasing pivot, or None when
    the set is not a subgroup.

    A subgroup's row with pivot p is its least element in [2^p, 2^(p+1)),
    as any other one there also has the top pivot of the rows it adds.  The
    set is a subgroup iff it is the span of these rows, built as a class
    mask one translate per row.
    """
    rows = []
    span = 1
    for p in range(d):
        run = (values >> (1 << p)) & ((1 << (1 << p)) - 1)
        if run:
            low = (run & -run).bit_length() - 1
            rows.append((1 << p) | low)
            # the span so far lies below 2^p: add its translate by the row
            span |= translate(span, low) << (1 << p)
    return rows[::-1] if span == values else None


# ---------------------------------------------------------------------------
# invariants


class InvariantProfile(NamedTuple):
    """Derived numeric invariants of a scheme.

    chain[m] is the set of classes represented by 2^m squares, as a bitmask,
    for m = 0..stabilization; q[m-1], s_seq[m], d_seq[m] are the index of
    chain step m over step m-1, the order of the plus-minus quotient at step
    m, and the dimension of the class group modulo plus-minus step m.
    """

    d: int
    is_real: bool
    level_exponent: int | None
    pythagoras: int
    stabilization: int
    q: tuple[int, ...]
    s_seq: tuple[int, ...]
    d_seq: tuple[int, ...]
    chain: tuple[int, ...]

    @property
    def level(self) -> int | None:
        if self.level_exponent is None:
            return None
        return 1 << self.level_exponent

    def d_m(self, m: int) -> int:
        return self.d_seq[min(m, self.stabilization)]

    def s_m(self, m: int) -> int:
        return self.s_seq[min(m, self.stabilization)]

    def q_m(self, m: int) -> int:
        if m < 1:
            raise ProfileInconsistency("q_m defined for m >= 1")
        if m > self.stabilization:
            return 1
        return self.q[m - 1]


# ---------------------------------------------------------------------------
# the scheme itself


class Scheme:
    """A finite quadratic form scheme with memoized derived data.

    The table is the triple (d, minus_one, rows): the dimension of G, the
    class of -1, and the 2^d rows D<1,a>, held as the tuple rows.  The
    constructor validates it (validate_scheme), so a Scheme that exists
    satisfies the axioms.  Everything else is derived from the table
    alone and memoized here on first use: the subgroup rows of each
    distinct value set, kept from validation; the invariant profile, which
    holds the D(2^m) chain; the split pairs; the basis chain; and the k_n
    algebras of degrees 1, 2, ..., in the list _kn (kn_space).  A scheme
    carries no name: builders.build gives every label of one table the
    same scheme, and the CLI names each answer by the label it was asked
    for.
    """

    def __init__(self, d: int, minus_one: int, rows):
        rows = tuple(rows)
        if d < 0:
            raise NotAGroup("negative group dimension")
        # bit_length, not 1 << d: a huge d must reach the cap check below
        # without building a number of d bits
        if minus_one < 0 or minus_one.bit_length() > d:
            raise NotAGroup(
                "class of -1 (%d) outside the group of dimension %d" % (minus_one, d)
            )
        if len(rows) & (len(rows) - 1):
            raise NotAGroup("table size %d is not a power of two" % len(rows))
        if d > SCHEME_DIM_CAP:
            raise TooLarge("scheme dimension %d exceeds cap %d" % (d, SCHEME_DIM_CAP))
        if len(rows) != (1 << d):
            raise NotAGroup(
                "table has %d rows for group of order %d" % (len(rows), 1 << d)
            )
        self.d = d
        self.eps = minus_one
        self.rows = rows
        self.size = 1 << d
        self.full_mask = (1 << self.size) - 1
        for a, row in enumerate(rows):
            if row < 0 or row > self.full_mask:
                raise NotAGroup("value set row %d out of range" % a)
        self._subgroups = validate_scheme(self)
        self._profile: InvariantProfile | None = None
        self._split_pairs: list[int] | None = None
        self._basis_chain: BasisChain | None = None
        self._kn: list[SymbolAlgebra] = []

    def __repr__(self):
        return "Scheme(d=%d, eps=%d)" % (self.d, self.eps)

    # -- sums of squares and invariants ---------------------------------

    def sos_chain(self) -> list[int]:
        """Bitmasks of D(k ones) for k = 1.. until the chain stabilizes."""
        chain = [1]  # D of a single <1> is {identity}
        while True:
            cur = chain[-1]
            nxt = 0
            m = cur
            while m:
                low = m & -m
                nxt |= self.rows[low.bit_length() - 1]
                m ^= low
            if nxt == cur:
                return chain
            if nxt & cur != cur:
                raise ProfileInconsistency("sum of squares chain not increasing")
            chain.append(nxt)

    def _check_subgroup(self, setmask: int) -> None:
        if not setmask & 1:
            raise NotAGroup("represented set lacks the identity class")
        if subgroup_rows(setmask, self.d) is None:
            raise NotAGroup("represented set of size %d is not a subgroup"
                            % setmask.bit_count())

    def pm_d2m(self, m: int) -> int:
        """Bitmask of +-D(2^m) (the chain step joined with its -1 translate)."""
        masks = self.invariants().chain
        sm = masks[min(m, len(masks) - 1)]
        return sm | translate(sm, self.eps)

    def invariants(self) -> InvariantProfile:
        """The invariant profile, memoized; its chain is the D(2^m) chain."""
        if self._profile is not None:
            return self._profile
        chain = self.sos_chain()
        fixpoint = chain[-1]
        p = len(chain)
        eps = self.eps
        is_real = not (fixpoint >> eps) & 1
        if is_real:
            level_exponent = None
        else:
            level = next(k for k, sm in enumerate(chain, start=1) if (sm >> eps) & 1)
            if level & (level - 1):
                raise ProfileInconsistency("finite level %d is not a power of two" % level)
            level_exponent = level.bit_length() - 1
            if not (1 << level_exponent) <= p <= (1 << level_exponent) + 1:
                raise ProfileInconsistency(
                    "Pythagoras number %d outside [level, level+1]" % p
                )
        # D(2^m) for m = 0..stabilization, read off the sum-of-squares chain
        masks = [chain[0]]
        while (nxt := chain[min(1 << len(masks), p) - 1]) != masks[-1]:
            masks.append(nxt)
        for sm in masks:
            self._check_subgroup(sm)
        big_m = len(masks) - 1
        q = []
        for m in range(1, big_m + 1):
            lo = masks[m - 1].bit_count()
            hi = masks[m].bit_count()
            if hi % lo:
                raise ProfileInconsistency("chain index at step %d not integral" % m)
            qm = hi // lo
            if qm & (qm - 1):
                raise ProfileInconsistency("chain index at step %d not a 2-power" % m)
            q.append(qm)
        s_seq = []
        d_seq = []
        for m in range(big_m + 1):
            sm = masks[m]
            pm = sm | translate(sm, eps)
            size = sm.bit_count()
            psize = pm.bit_count()
            if psize % size or psize // size not in (1, 2):
                raise ProfileInconsistency("plus-minus index at step %d not in {1,2}" % m)
            s_seq.append(psize // size)
            if psize & (psize - 1):
                raise ProfileInconsistency("plus-minus set size not a 2-power")
            dm = self.d - (psize.bit_length() - 1)
            formula = self.d - (s_seq[m].bit_length() - 1)
            for i in range(m):
                formula -= q[i].bit_length() - 1
            if dm != formula:
                raise ProfileInconsistency(
                    "direct d_%d = %d but index formula gives %d" % (m, dm, formula)
                )
            d_seq.append(dm)
        profile = InvariantProfile(
            d=self.d,
            is_real=is_real,
            level_exponent=level_exponent,
            pythagoras=p,
            stabilization=big_m,
            q=tuple(q),
            s_seq=tuple(s_seq),
            d_seq=tuple(d_seq),
            chain=tuple(masks),
        )
        self._profile = profile
        return profile


# ---------------------------------------------------------------------------
# validation


def validate_scheme(scheme: Scheme) -> dict[int, list[int]]:
    """Check the table axioms, order-independence of ternary value sets and
    that every value set is a subgroup.

    Raises AxiomViolation with a witness description at the first failure.
    Otherwise it marks the scheme validated and returns the subgroup_rows
    of each distinct value set, which Scheme.__init__ keeps.  Every Scheme
    is validated once, when it is constructed; builders.build constructs
    one per table, and only for a requested label, never for its
    sub-expressions.

    The ternary check is exhaustive at every dimension.  Write x + (y + z)
    for the union of D<x,t> over t in D<y,z>; every ordered triple must
    give a + (b + c) = b + (a + c) = c + (a + b).  As D<t^x,t^y> is the
    t-translate of D<x,y>, the check on (a, b, c) is the a-translate of the
    check on (0, a^b, a^c), so the triples (0, b, c) over all ordered pairs
    (b, c) cover every triple.  Each b + (0 + c) is computed once and
    compared for both (b, c) and (c, b).

    The sets are bit-packed, one class set per 64-bit block.  The pairwise
    axiom, b in D<1,a> implying a^eps in D<1,b^eps>, compares the packed
    rows with the transpose of their eps-conjugate.  For the ternary one,
    the t-th of 2^d block-permuted copies of the table holds D<1,b^t> in
    block b.  Per distinct row D<1,y>, the OR of the copies over t in it
    holds in block b the union of D<1,t> over t in the b-translate of
    D<1,y>; read with stride 2^d, column b is one int with that union in
    block y.  Translating within each block by b gives b + (0 + c) in block
    c, and permuting the blocks by b gives 0 + (b + c) there, so the first
    equality is one int comparison per b.  The symmetry in (b, c) compares
    the unpacked blocks with their transpose.  On a failure of either
    axiom the first pair in row-major order is named.

    Last, each D<1,a> must be a subgroup of G, as the value sets of a field
    are (norm groups).  subgroup_rows tests each distinct row once, and the
    least a with a row that is not a subgroup is named.
    """
    size = scheme.size
    eps = scheme.eps
    rows = scheme.rows
    for a in range(size):
        row = rows[a]
        if not (row >> 0) & 1:
            raise AxiomViolation("identity not in D<1,%d>" % a)
        if not (row >> a) & 1:
            raise AxiomViolation("class %d not in D<1,%d>" % (a, a))
    if rows[eps] != scheme.full_mask:
        raise AxiomViolation("D<1,-1> is not the whole group")

    packed = _pack(rows)
    # b in D<1,a> must give a^eps in D<1,b^eps>: block x of conj is the
    # eps-translate of block x^eps, so bit a of block b of conj is bit a^eps
    # of D<1,b^eps>, and the transpose of conj must cover the rows
    conj = _swap_runs(_swap_runs(packed, eps, _WITHIN, 1), eps, _ACROSS, _BLOCK)
    bad = packed & ~_transpose(conj, scheme.d)
    if bad:
        # the lowest bit is the first (a, b) in row-major order
        a, b = divmod((bad & -bad).bit_length() - 1, _BLOCK)
        raise AxiomViolation(
            "%d in D<1,%d> but %d not in D<1,%d>" % (b, a, a ^ eps, b ^ eps)
        )

    # shifted[t] holds D<1,b^t> in block b, one swap from shifted[t & (t - 1)]
    shifted = [packed]
    for t in range(1, size):
        shifted.append(_swap_runs(shifted[t & (t - 1)], t & -t, _ACROSS, _BLOCK))
    union_of = {}
    for row in set(rows):
        acc = 0
        for t in iter_bits(row):
            acc |= shifted[t]
        union_of[row] = acc
    flat = _blocks([union_of[row] for row in rows], size)
    # column b of flat holds the union for D<1,y> in block y.  inner[b]
    # holds 0 + (b + c) in block c: the union in block b ^ c, as D<b,c> is
    # the b-translate of D<1,b^c>; last[b] holds b + (0 + c) in block c,
    # the b-translate of the union in block c
    inner = []
    last = []
    for b in range(size):
        unions = int.from_bytes(flat[b::size], "little")
        inner.append(_swap_runs(unions, b, _ACROSS, _BLOCK))
        last.append(_swap_runs(unions, b, _WITHIN, 1))
    # table[b * size + c] is last[b][c], so row b of the matrix is compared
    # with column b; the byte order of a block does not change equalities
    table = _blocks(last, size)
    if inner != last or any(table[b * size:(b + 1) * size] != table[b::size]
                            for b in range(size)):
        for b in range(size):
            line = _blocks([inner[b]], size)
            for c in range(size):
                if not line[c] == table[b * size + c] == table[c * size + b]:
                    raise AxiomViolation(
                        "ternary value set of (0,%d,%d) depends on the order" % (b, c)
                    )
    # distinct rows in the order of their least a
    subgroups = {}
    for row in dict.fromkeys(rows):
        basis = subgroups[row] = subgroup_rows(row, scheme.d)
        if basis is None:
            raise AxiomViolation("D<1,%d> is not a subgroup" % rows.index(row))
    scheme._validated = True
    return subgroups


def _pack(sets: list[int]) -> int:
    """One int holding the i-th class set in its i-th 64-bit block."""
    return int.from_bytes(struct.pack("<%dQ" % len(sets), *sets), "little")


def _blocks(packed: list[int], count: int) -> memoryview:
    """The first count 64-bit blocks of each packed int, in one flat view."""
    data = b"".join(v.to_bytes(8 * count, "little") for v in packed)
    return memoryview(data).cast("Q")


# _LOWER[k]: the bits (r, c) of a 64 x 64 bit matrix packed one row per
# block with bit k of c set and bit k of r clear, each swapped with the bit
# whose r and c differ from its own in bit k only
_LOWER = [_pack([0 if r >> k & 1 else ((1 << _BLOCK) - 1) ^ keep
                 for r in range(_BLOCK)])
          for k, keep in enumerate(_KEEP)]
# _WITHIN[k], _ACROSS[k]: _KEEP[k] in every block, and the whole blocks
# whose index has bit k clear; a table of 2^d < 64 blocks meets the low ones
_WITHIN = [keep * _pack([1] * _BLOCK) for keep in _KEEP]
_ACROSS = [_pack([((1 << _BLOCK) - 1) * (keep >> y & 1) for y in range(_BLOCK)])
           for keep in _KEEP]


def _transpose(packed: int, d: int) -> int:
    """The transpose of a 2^d x 2^d bit matrix packed one row per block:
    one delta swap per bit of the row and column indices."""
    for k in range(d):
        shift = (_BLOCK - 1) << k
        t = (packed ^ (packed >> shift)) & _LOWER[k]
        packed ^= t ^ (t << shift)
    return packed


# ---------------------------------------------------------------------------
# Pfister strata


def pfister_ones_witness(algebra: SymbolAlgebra, slots) -> tuple[int, tuple[int, ...]]:
    """The stratum of the anisotropic Pfister form <<slots>> of the
    algebra's degree plus a witnessing slot tuple.

    The stratum is the largest number m of leading 1 slots over the sorted
    slot tuples of the class.  In a stratum m >= 1 the witness is the
    class's lexicographically least sorted slot tuple, so it depends only
    on the isometry class.  In stratum 0 the witness is the form's own
    slots, sorted.
    """
    image = algebra.image_coords(slots)
    if not image:
        raise IsotropicInput("Pfister form %r is isotropic" % (tuple(slots),))
    least = algebra.classes()[image]
    m = entry_stratum(least)
    return (m, least) if m else (0, tuple(sorted(slots)))


def entry_stratum(slots) -> int:
    """Number of leading slots equal to the class 1."""
    m = 0
    for a in slots:
        if a:
            break
        m += 1
    return m


def enumerate_pfister_strata(scheme: Scheme, n: int) -> dict[int, int]:
    """Counts of anisotropic degree-n Pfister classes by ones-stratum.

    Returns a dict with keys 0..n; the sum of the values is the number of
    anisotropic isometry classes of n-fold Pfister forms of the scheme.
    """
    counts = {m: 0 for m in range(n + 1)}
    for slots in pfister_classes(scheme, n).values():
        counts[entry_stratum(slots)] += 1
    return counts


def pfister_classes(scheme: Scheme, n: int) -> dict[int, tuple[int, ...]]:
    """Map of image coords -> least sorted slot tuple, anisotropic classes
    only: a copy of the class map of kn_space(scheme, n), which the BFS
    walks for its generators too.  A degree over the default tensor cap is
    refused with TooLarge before anything is built."""
    from .milnor import kn_space  # milnor imports this module
    return dict(kn_space(scheme, n).classes())
