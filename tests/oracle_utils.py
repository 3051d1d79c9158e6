"""Independent cross-checks used by more than one test module."""

import functools
import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from symlen.bounds import floor_pow2_sum, kaplansky_s
from symlen.builders import build_from_text
from symlen.errors import AxiomViolation, DegreeMismatch, TooLarge, VerificationFailure
from symlen.f2space import _swap_runs, clear_bit_masks, iter_bits, rank_ints, rref_ints
from symlen.milnor import SymbolVector, kn_space
from symlen.scheme import translate

WITT_STATE_CAP = 1 << 21


def tensor_of_vectors(vectors, d):
    """Bitmask of v_0 (x) ... (x) v_{k-1} for vector masks in F2^d."""
    out = 1
    width = 1
    for v in vectors:
        nxt = 0
        for i in iter_bits(v):
            nxt |= out << (i * width)
        out = nxt
        width *= d
        if not out:
            break
    return out


# ---------------------------------------------------------------------------
# the k_n relations reduced row by row against a sorted basis: the
# reference for the pivot-keyed reduction and the images read off its rows


def list_rref(rows):
    """RREF rows sorted by decreasing mask, each incoming row reduced
    against every kept row in turn and the basis re-sorted per insert."""
    basis = []
    pivots = []
    for row in rows:
        r = row
        for p, b in zip(pivots, basis):
            if (r >> p) & 1:
                r ^= b
        if not r:
            continue
        p = r.bit_length() - 1
        for k in range(len(basis)):
            if (basis[k] >> p) & 1:
                basis[k] ^= r
        basis.append(r)
        pivots.append(p)
        order = sorted(range(len(basis)), key=lambda k: -pivots[k])
        basis = [basis[k] for k in order]
        pivots = [pivots[k] for k in order]
    return basis


def holder_rref_ints(rows):
    """RREF rows sorted by decreasing mask, the kept rows fully reduced at
    every step: an incoming row is reduced by the rows at its pivot bits,
    and a new pivot is cleared from the rows that an index of the
    non-pivot columns lists.

    The reference for rref_ints, which keeps an echelon basis and back
    substitutes once.
    """
    basis = {}
    pivmask = 0
    # non-pivot column -> mask of the pivots whose rows have that bit
    holders = {}
    for row in rows:
        for p in iter_bits(row & pivmask):
            row ^= basis[p]
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
    return sorted(basis.values(), reverse=True)


def reduce_by_rows(mask, basis):
    """Representative of mask modulo the span of sorted RREF rows."""
    r = mask
    for b in basis:
        if (r >> (b.bit_length() - 1)) & 1:
            r ^= b
    return r


# ---------------------------------------------------------------------------
# subspaces of F2^d as RREF rows: the references for the class-mask
# subgroups of check 1 and of build_basis_chain


def brute_force_subspaces(d, m):
    """All m-dim subspaces of F2^d as RREF row tuples, found by reducing
    every m-subset of the nonzero vectors."""
    seen = set()
    for combo in itertools.combinations(range(1, 1 << d), m):
        rows = tuple(rref_ints(combo))
        if len(rows) == m:
            seen.add(rows)
    return seen


def rref_basis_chain(scheme):
    """(basis, ranks, coordinates) of build_basis_chain, with the span kept
    as RREF rows and membership read by reducing against them."""
    basis, span, ranks = [], [], []
    for m in range(scheme.invariants().stabilization + 1):
        for e in iter_bits(scheme.pm_d2m(m)):
            if e and reduce_by_rows(e, span):
                basis.append(e)
                span = rref_ints(span + [e])
        ranks.append(len(basis))
    for c in range(1, scheme.size):
        if len(basis) == scheme.d:
            break
        if reduce_by_rows(c, span):
            basis.append(c)
            span = rref_ints(span + [c])
    coordinates = {0: 0}
    for i, v in enumerate(basis):
        for c, picked in list(coordinates.items()):
            coordinates[c ^ v] = picked | (1 << i)
    return tuple(basis), tuple(ranks), tuple(coordinates[c] for c in range(scheme.size))


def all_pairs_split_basis(scheme):
    """RREF of a (x) b over every a != 0 and every b in D<1, -a>, b != 0."""
    rows = []
    for a in range(1, scheme.size):
        for b in iter_bits(scheme.rows[a ^ scheme.eps] & ~1):
            rows.append(tensor_of_vectors((a, b), scheme.d))
    return list_rref(rows)


def value_set_split_basis(scheme):
    """RREF of a basis of span(A_H) times the subgroup rows of H, for each
    value set H and the classes A_H with D<1, -a> = H, row reduced per
    A_H and then once over all.

    The reference for the span of milnor.split_generators, which keeps one
    product per class and subgroup row when it is independent of those
    kept before it: the RREF of the kept tensors and this one are
    canonical, so they are equal.
    """
    rows = scheme.rows
    classes_of = {}
    for a in range(1, scheme.size):
        classes_of.setdefault(rows[a ^ scheme.eps], []).append(a)
    return rref_ints(
        tensor_of_vectors((a, b), scheme.d)
        for value_set, classes in classes_of.items()
        for a in rref_ints(classes) for b in scheme._subgroups[value_set])


def reduced_relations(scheme, n):
    """(relation rows, free columns, head table) of k_n, built by placing
    the split pairs in each adjacent slot pair coordinate by coordinate, a
    generic RREF over the d^n columns, then every basis tensor reduced.

    The head table holds the images of <<head, e_i ^ eps>> at
    i + d * key, the first n - 1 slots contracted over all 2^d vectors: the
    reference that the degree by degree multiplication tables are checked
    against."""
    d = scheme.d
    rel = []
    if n >= 2:
        pair = all_pairs_split_basis(scheme)
        for pos in range(n - 1):
            lo, hi = d ** pos, d ** (pos + 1)
            for rest in range(d ** (n - 2)):
                base = 0
                digits = rest
                for j in range(n):
                    if j in (pos, pos + 1):
                        continue
                    base += (digits % d) * d ** j
                    digits //= d
                for r in pair:
                    row = 0
                    for e in iter_bits(r):
                        row |= 1 << (base + (e % d) * lo + (e // d) * hi)
                    rel.append(row)
    relations = list_rref(rel)
    pivots = {r.bit_length() - 1 for r in relations}
    free_cols = tuple(c for c in range(d ** n) if c not in pivots)
    col_index = {c: j for j, c in enumerate(free_cols)}
    table = []
    for t in range(d ** n):
        coords = 0
        for c in iter_bits(reduce_by_rows(1 << t, relations)):
            coords |= 1 << col_index[c]
        table.append(coords)
    for _ in range(n - 1 if d else 0):
        # contract the lowest slot over all 2^d vectors, v in ascending order
        width = len(table) // d
        out = []
        for v in range(1 << d):
            for r in range(width):
                x = 0
                for i in iter_bits(v):
                    x ^= table[i + d * r]
                out.append(x)
        table = out
    return relations, free_cols, table


# ---------------------------------------------------------------------------
# k_n over the d^n tensor columns, degree by degree: the construction that
# the reduction in k_{n-1} (x) G coordinates replaced, kept as the reference
# for its coordinates and tables, and behind the projection oracles


def binary(scheme, x, y):
    """Value set D<x,y> as a class bitmask: the x-translate of D<1,xy>."""
    return translate(scheme.rows[x ^ y], x)


@functools.lru_cache(maxsize=None)
def tensor_split_pair_basis(scheme):
    """RREF basis of the split 2-tensors a (x) b with b in D<1, -a>, each
    value set row reduced from its elements."""
    rows = []
    for a in range(1, scheme.size):
        for b in rref_ints(iter_bits(scheme.rows[a ^ scheme.eps] & ~1)):
            rows.append(sum(a << (scheme.d * j) for j in iter_bits(b)))
    return rref_ints(rows)


def _relation_rows(lower, pair, d, n):
    """R_{n-1} (x) G and the split 2-tensors in the last slot pair
    (n - 2, n - 1) times every basis tensor in the slots below."""
    block = d ** (n - 1)
    for i in range(d):
        for row in lower:
            yield row << (i * block)
    lo = d ** (n - 2)
    # bit i + d*j of a 2-tensor (e_i in slot n - 2, e_j in slot n - 1)
    # lands at bit lo * (i + d*j)
    spread = [sum(1 << (lo * e) for e in iter_bits(r)) for r in pair]
    for low in range(lo):
        for row in spread:
            yield row << low


@dataclass(frozen=True)
class TensorSpace:
    """k_n of a scheme as the quotient of the d^n tensor columns."""

    # fully reduced rows by decreasing pivot: the row with pivot p is at
    # the number of pivots above p, its other bits are free columns
    relations: list
    pivots: int
    free_cols: tuple
    lower: "TensorSpace | None"


@functools.lru_cache(maxsize=None)
def tensor_space(scheme, n):
    """k_n with its relations R_{n-1} (x) G plus the split 2-tensors in the
    last slot pair, reduced once over the d^n columns; memoized per
    (scheme, n), each degree built on the one below."""
    d = scheme.d
    lower = tensor_space(scheme, n - 1) if n > 1 else None
    relations = rref_ints(_relation_rows(
        lower.relations, tensor_split_pair_basis(scheme), d, n)
        if lower is not None else ())
    pivots = sum(1 << (r.bit_length() - 1) for r in relations)
    free_cols = tuple(c for c in range(d ** n) if not (pivots >> c) & 1)
    return TensorSpace(relations, pivots, free_cols, lower)


def _reduce(space, tensor_mask):
    """Quotient coords of a raw tensor bitmask."""
    red = tensor_mask
    pivots = space.pivots
    for p in iter_bits(tensor_mask & pivots):
        red ^= space.relations[(pivots >> p).bit_count() - 1]
    coords = 0
    for c in iter_bits(red):
        coords |= 1 << bisect_left(space.free_cols, c)
    return coords


def tensor_space_mul_table(scheme, n):
    """mul[j][v]: coords of mu_n(e_j, v) for the basis vector e_j of
    k_{n-1} and the vector v.  rep(e_j) (x) e_i is the basis tensor at
    c + i * d^(n-1) for the free column c of e_j (k_0 has column 0)."""
    space = tensor_space(scheme, n)
    d = scheme.d
    block = d ** (n - 1)
    mul = []
    for c in space.lower.free_cols if space.lower is not None else (0,):
        row = [0]
        for i in range(d):
            image = _reduce(space, 1 << (c + i * block))
            row += [x ^ image for x in row]
        mul.append(row)
    return mul


def dict_image_quotient(lower, scheme, n):
    """(free columns, multiplication table) of k_n for n >= 2, on k_{n-1}:
    the relation rows read d bits of each row of tensor_split_pair_basis
    at a time, reduced by holder_rref_ints, and the images of the columns
    kept in a dict.

    The reference for milnor._quotient, which builds each row from a split
    generator (a, b) as mu_{n-1}(x, a) (x) b and keeps the images in a
    flat list.
    """
    d = scheme.d
    width = lower.dim
    rows = []
    for m in lower._mul:
        for s in tensor_split_pair_basis(scheme):
            y = shift = 0
            while s:
                y |= m[s & (scheme.size - 1)] << shift
                s >>= d
                shift += width
            rows.append(y)
    rows = holder_rref_ints(rows)
    pivots = sum(1 << (r.bit_length() - 1) for r in rows)
    free = [c for c in range(d * width) if not (pivots >> c) & 1]
    image = {c: 1 << k for k, c in enumerate(free)}
    for r in rows:
        p = r.bit_length() - 1
        image[p] = sum(image[c] for c in iter_bits(r ^ (1 << p)))
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


def project(algebra, tensor_mask):
    """Class of a raw tensor bitmask in the quotient coordinates, reduced
    by the relations over the d^n tensor columns."""
    space = tensor_space(algebra.scheme, algebra.n)
    return SymbolVector(_reduce(space, tensor_mask), len(space.free_cols))


def last_slot_images(algebra, head):
    """Images of <<head, c>> for every class c, in class order, read off
    the multiplication tables."""
    if len(head) + 1 != algebra.n:
        raise DegreeMismatch(
            "form has %d slots, algebra degree is %d" % (len(head) + 1, algebra.n)
        )
    x = algebra.lower.image_coords(head) if head else 1
    return list(algebra.last_slot_row(x))


def alternating_rank_sl(algebra, x):
    """Symbol length oracle for rigid schemes with -1 a square, degree 2.

    For such schemes the degree 2 relation tensors are exactly the squares
    a (x) a, so k_2 is the alternating square of the class group and a pure
    symbol is a wedge of two vectors.  Writing an element as an alternating
    matrix A = M + M^T, the least number of wedges summing to it is
    rank(A) / 2, a standard fact about alternating forms over any field.
    """
    d = algebra.scheme.d
    mask = algebra.representative(x)
    rows = [0] * d
    for e in iter_bits(mask):
        rows[e % d] |= 1 << (e // d)
    alt = [rows[i] ^ sum(((rows[j] >> i) & 1) << j for j in range(d))
           for i in range(d)]
    rank = rank_ints(alt)
    assert rank % 2 == 0
    return rank // 2


def project_image(algebra, slots):
    """Coords of the image of <<slots>>, projecting its tensor.

    The reference for the multiplication tables: one reduction by the
    relations per call, no table.
    """
    if len(slots) != algebra.n:
        raise DegreeMismatch(
            "form has %d slots, algebra degree is %d" % (len(slots), algebra.n)
        )
    eps = algebra.scheme.eps
    tensor = tensor_of_vectors([a ^ eps for a in slots], algebra.scheme.d)
    return project(algebra, tensor).coords


def tuple_pfister_classes(algebra):
    """Map of nonzero image -> first sorted slot tuple, tuple by tuple.

    The reference for SymbolAlgebra.classes: every sorted slot tuple is
    projected on its own, in lexicographic order.
    """
    classes = {}
    for slots in itertools.combinations_with_replacement(
            range(algebra.scheme.size), algebra.n):
        image = project_image(algebra, slots)
        if image and image not in classes:
            classes[image] = slots
    return classes


def scan_ones_witnesses(algebra):
    """Map of nonzero image -> (m, least witness) over the strata m >= 1.

    The reference for the strata read off the class map: the slot tuples
    (0,)*m + cand are projected for m = n..1, cand in lexicographic order,
    and the first tuple met with an image gives its stratum and witness.
    """
    n = algebra.n
    found = {}
    for m in range(n, 0, -1):
        for cand in itertools.combinations_with_replacement(
                range(algebra.scheme.size), n - m):
            slots = (0,) * m + cand
            image = project_image(algebra, slots)
            if image and image not in found:
                found[image] = (m, slots)
    return found


def tuple_pure_symbols(algebra):
    """Pure symbols by projecting the tensor of every nonzero slot tuple.

    The reference for SymbolAlgebra.pure_symbols: sorted coords of the
    distinct nonzero images over all (2^d - 1)^n tuples, one at a time.
    """
    size = algebra.scheme.size
    seen = set()
    for vs in itertools.product(range(1, size), repeat=algebra.n):
        seen.add(project(algebra, tensor_of_vectors(vs, algebra.scheme.d)).coords)
    seen.discard(0)
    return tuple(sorted(seen))


def gray_pure_symbols(algebra):
    """Pure symbols as products of those one degree down, by a Gray walk.

    The reference for SymbolAlgebra.pure_symbols: pure(1) is the nonzero
    vectors, and pure(m) is mu_m(p, v) over the pure symbols p of degree
    m - 1 and the nonzero vectors v, filled in from degree 1 up; v is
    walked in Gray code order for every p at once.
    """
    d = algebra.scheme.d
    pures = tuple(range(1, algebra.scheme.size))
    for alg in algebra.scheme._kn[1:algebra.n]:
        # cols[i][k] = mu(p_k, e_i)
        mul = alg._mul
        cols = [[0] * len(pures) for _ in range(d)]
        for k, p in enumerate(pures):
            for j in iter_bits(p):
                for i in range(d):
                    cols[i][k] ^= mul[j][1 << i]
        row = [0] * len(pures)
        seen = set()
        for k in range(1, 1 << d):
            # the Gray code vector of step k differs from the last in bit ctz(k)
            col = cols[(k & -k).bit_length() - 1]
            row = [a ^ c for a, c in zip(row, col)]
            seen.update(row)
        seen.discard(0)
        pures = tuple(sorted(seen))
    return pures


def row_walk_links(algebra):
    """The link map of each degree 1..n, lowest first, by the class walk
    with one row per key, the XOR of the table rows at the bits of the key.

    The reference for SymbolAlgebra._walk, which reads its rows off one
    table per degree: each least prefix extended in order by every slot
    from its last one up.
    """
    size = algebra.scheme.size
    eps = algebra.scheme.eps
    links = {1: (0, 0)}
    maps = []
    for alg in algebra.scheme._kn[:algebra.n]:
        nxt = {}
        for x, (_, last) in links.items():
            row = alg._row(x)
            for c in range(last, size):
                image = row[c ^ eps]
                if image and image not in nxt:
                    nxt[image] = (x, c)
        maps.append(nxt)
        links = nxt
    return maps


def derived_head_bases(algebra, links):
    """The nonzero mu_n(x, e_i), i < d, for each distinct head x of a link
    map of algebra, in link order: d table entries per bit of x.

    The reference for the head bases that the class walk records.
    """
    mul = algebra._mul
    units = [1 << i for i in range(algebra.scheme.d)]
    bases = []
    for x in dict.fromkeys(x for x, _ in links.values()):
        basis = [0] * len(units)
        for j in iter_bits(x):
            basis = [w ^ mul[j][u] for w, u in zip(basis, units)]
        bases.append(tuple(w for w in basis if w))
    return bases


# ---------------------------------------------------------------------------
# the exponential bound split by cases: the reference for its sum over
# dm_estimate_for_profile


def _stratum_cap_exponent(d, s, n, m, sm):
    """Closed-form cap exponent for strata below the stationary range."""
    return (n - m) * (d - m * (2 * s - m - 1) // 2 - n + 1 - sm)


def exponential_bound_by_cases(profile, n: int) -> int:
    """Symbol length bound by summing power-of-two stratum caps."""
    d = profile.d
    p = profile.pythagoras
    s = kaplansky_s(p)
    sigma = profile.level_exponent
    exponents = []
    if s > n:
        for m in range(n + 1):
            sm = 1 if profile.is_real or m < sigma else 0
            exponents.append(_stratum_cap_exponent(d, s, n, m, sm))
    elif not profile.is_real:
        for m in range(s):
            sm = 1 if m < sigma else 0
            exponents.append(_stratum_cap_exponent(d, s, n, m, sm))
        exponents.append((n - s) * (d - s * (s - 1) // 2 - n + 1))
    else:
        for m in range(s + 1):
            exponents.append(_stratum_cap_exponent(d, s, n, m, 1))
        stationary = d - s * (s + 1) // 2 - n
        shift = 0 if p & (p - 1) == 0 else 1
        for m in range(s + 1, n + 1):
            exponents.append((n - m) * (stationary + m - shift))
    return floor_pow2_sum(exponents)


def dict_bfs_distances(algebra):
    """Distance from 0 to every reachable element, by a dict BFS.

    The reference for the bitset layers: one frontier list and one dict
    entry per element, with the pure symbols as generators.
    """
    gens = tuple_pure_symbols(algebra)
    dist = {0: 0}
    frontier = [0]
    layer = 0
    while frontier:
        layer += 1
        nxt = []
        for x in frontier:
            for g in gens:
                y = x ^ g
                if y not in dist:
                    dist[y] = layer
                    nxt.append(y)
        frontier = nxt
    return dist


def dict_bfs_max_length(algebra):
    """(largest distance, least element at that distance) from the dict BFS."""
    dist = dict_bfs_distances(algebra)
    best = max(dist.values())
    return best, min(c for c, k in dist.items() if k == best)


def bfs_layers_by_full_passes(algebra):
    """The bitset layers with every translate pass run to its end.

    The reference for SymbolAlgebra.layers: each pass walks every
    shift and is cut to the unreached classes afterwards, and the search
    stops at the first empty pass.
    """
    masks = clear_bit_masks(algebra.dim)
    gens = algebra.pure_symbols()
    gen_set = sum(1 << g for g in gens)
    layers = [1]
    reached = 1
    while True:
        layer = layers[-1]
        if layer.bit_count() < len(gens):
            # the sumset is symmetric: walk the smaller side
            nxt = _full_union_of_translates(
                gen_set, list(iter_bits(layer)), masks)
        else:
            nxt = _full_union_of_translates(layer, gens, masks)
        nxt &= ~reached
        if not nxt:
            break
        reached |= nxt
        layers.append(nxt)
    if reached != (1 << (1 << algebra.dim)) - 1:
        raise VerificationFailure(
            "pure symbols span only %d of %d classes"
            % (reached.bit_count(), 1 << algebra.dim)
        )
    return layers


def _full_union_of_translates(bitset, shifts, masks):
    """Union of the translates {s ^ x : s in bitset} over a sorted shift list.

    The shifts are walked as a binary trie from the top bit down, so the
    block swap for a bit is done once for every shift sharing the prefix.
    """
    def walk(s: int, lo: int, hi: int, b: int) -> int:
        if hi - lo == 1:
            for bit in iter_bits(shifts[lo] & ((1 << (b + 1)) - 1)):
                s = _swap_runs(s, 1 << bit, masks, 1)
            return s
        # shifts[lo:hi] agree above bit b; those with bit b set come last
        mid = bisect_left(shifts, ((shifts[lo] >> b) | 1) << b, lo, hi)
        out = walk(s, lo, mid, b - 1) if mid > lo else 0
        if hi > mid:
            out |= walk(_swap_runs(s, 1 << b, masks, 1), mid, hi, b - 1)
        return out

    if not shifts:
        return 0
    return walk(bitset, 0, len(shifts), len(masks) - 1)


def find_linked_pair_by_multisets(scheme, psum):
    """First pair of entries sharing an (n-1)-fold Pfister divisor.

    The reference for decompose.find_linked_pair: every slot multiset of
    n - 1 slots is tried as the divisor, in lexicographic order, with no
    cap on their number.
    """
    n = psum.degree
    if n < 2:
        return None
    algebra = kn_space(scheme, n)
    images = [algebra.image_coords(slots) for slots in psum.entries]
    # images of <<divisor, c>> for c = 0, 1, ..., by the divisor's rank in
    # the candidate order; the candidates themselves are not kept
    cofactors: list[list[int]] = []
    for i in range(len(psum.entries)):
        if not images[i]:
            continue
        for j in range(i + 1, len(psum.entries)):
            if not images[j]:
                continue
            for k, divisor in enumerate(itertools.combinations_with_replacement(
                    range(scheme.size), n - 1)):
                if k == len(cofactors):
                    cofactors.append(last_slot_images(algebra, divisor))
                row = cofactors[k]
                if images[i] in row and images[j] in row:
                    return i, j, divisor, row.index(images[i]), row.index(images[j])
    return None


# ---------------------------------------------------------------------------
# Witt decomposition by a breadth-first search over chain moves: the
# reference that the image-keyed Pfister classes of the library are
# checked against


def pfister_expand(slots):
    """Entries of the 2^n dimensional expansion, subset products in mask order."""
    n = len(slots)
    out = []
    for t in range(1 << n):
        v = 0
        for i in range(n):
            if (t >> i) & 1:
                v ^= slots[i]
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class WittClass:
    """Anisotropic kernel (canonical sorted entry tuple) plus Witt index."""

    kernel: tuple
    index: int


# per scheme: every state visited by a search -> its Witt class
_WITT = {}


def _find_hyperbolic_pair(scheme, state):
    for i in range(len(state)):
        for j in range(i + 1, len(state)):
            if state[i] ^ state[j] == scheme.eps:
                return i, j
    return None


def witt_decompose(scheme, entries):
    """Witt class of the form: canonical anisotropic kernel plus index.

    Breadth-first search over the chain move set: a pair (x, y) may be
    replaced by (z, x*y*z) for any z in D<x,y>.  Either some reachable
    state exposes a pair multiplying to -1 (extract it and recurse), or
    the whole chain class is exhausted and the form is anisotropic with
    canonical kernel the least sorted tuple seen.
    """
    memo = _WITT.setdefault(scheme, {})
    key = tuple(sorted(entries))
    cached = memo.get(key)
    if cached is not None:
        return cached
    if not key:
        memo[key] = WittClass((), 0)
        return memo[key]

    visited = {key}
    queue = deque([key])
    result = None
    while queue and result is None:
        state = queue.popleft()
        known = memo.get(state)
        if known is not None:
            result = known
            break
        pair = _find_hyperbolic_pair(scheme, state)
        if pair is not None:
            i, j = pair
            sub = witt_decompose(scheme, state[:i] + state[i + 1:j] + state[j + 1:])
            result = WittClass(sub.kernel, sub.index + 1)
            break
        n = len(state)
        for i in range(n):
            for j in range(i + 1, n):
                x, y = state[i], state[j]
                if j > i + 1 and y == state[j - 1]:
                    continue  # same move as with position j - 1
                rest = state[:i] + state[i + 1:j] + state[j + 1:]
                for z in iter_bits(binary(scheme, x, y)):
                    ns = tuple(sorted(rest + (z, x ^ y ^ z)))
                    if ns not in visited:
                        if len(visited) >= WITT_STATE_CAP:
                            raise TooLarge(
                                "chain class of %r exceeds %d states"
                                % (key, WITT_STATE_CAP)
                            )
                        visited.add(ns)
                        queue.append(ns)
    if result is None:
        result = WittClass(min(visited), 0)
    for state in visited:
        memo[state] = result
    return result


def kernel_ones_witness(scheme, slots):
    """(stratum, witness) of an anisotropic Pfister form by a kernel scan.

    The stratum is the largest m such that some slot tuple (0,)*m + cand,
    cand in lexicographic order, has the form's Witt kernel; the witness
    is the first such tuple, or the form's own sorted slots for m = 0.
    """
    n = len(slots)
    wc = witt_decompose(scheme, pfister_expand(slots))
    assert not wc.index
    for m in range(n, 0, -1):
        for cand in itertools.combinations_with_replacement(range(scheme.size), n - m):
            other = witt_decompose(scheme, pfister_expand((0,) * m + cand))
            if other == wc:
                return m, (0,) * m + cand
    return 0, tuple(sorted(slots))


# ---------------------------------------------------------------------------
# value sets and isotropy by the recursion on entries, independent of the
# Witt search; isometry through the Witt search


def value_set(scheme, entries):
    """Class bitmask of the values represented by a diagonal form.

    D<a_1, ..., a_k> is the union over every position i of the values of
    <a_i, c> for c in D of the remaining entries; every position is used,
    so an order-dependent table cannot hide behind one choice.
    """
    key = tuple(sorted(entries))
    if not key:
        raise ValueError("value set of the empty form")
    return _value_set(scheme, key)


@functools.lru_cache(maxsize=None)
def _value_set(scheme, key):
    if len(key) == 1:
        return 1 << key[0]
    if len(key) == 2:
        return binary(scheme, key[0], key[1])
    res = 0
    for i in range(len(key)):
        if i and key[i] == key[i - 1]:
            continue  # same remaining form as position i - 1
        for c in iter_bits(_value_set(scheme, key[:i] + key[i + 1:])):
            res |= binary(scheme, key[i], c)
    return res


def represents(scheme, entries, c):
    return bool((value_set(scheme, entries) >> c) & 1)


def isotropic(scheme, entries):
    """Isotropy of a diagonal form by the value-set recursion.

    A form is isotropic iff for some entry a the rest represents -a or is
    itself isotropic.
    """
    key = tuple(sorted(entries))
    if not key:
        raise ValueError("isotropy of the empty form")
    return _isotropic(scheme, key)


@functools.lru_cache(maxsize=None)
def _isotropic(scheme, key):
    if len(key) == 1:
        return False
    for i in range(len(key)):
        if i and key[i] == key[i - 1]:
            continue
        rest = key[:i] + key[i + 1:]
        if represents(scheme, rest, scheme.eps ^ key[i]) or _isotropic(scheme, rest):
            return True
    return False


def isometric(scheme, f, g):
    """f and g are isometric iff f + (-g) is hyperbolic (Witt cancellation)."""
    f, g = tuple(f), tuple(g)
    if len(f) != len(g):
        return False
    return witt_decompose(scheme, f + tuple(e ^ scheme.eps for e in g)).kernel == ()


def table_axioms_hold(eps, rows):
    """All scheme axioms on a raw table, the ternary one on every triple and
    the subgroup one on every pair of members of each value set.

    The reference for validate_scheme: the ternary axiom is checked on
    every ordered triple (a, b, c) directly, with no translation argument.
    rows[a] is the bitmask of D<1,a>.
    """
    size = len(rows)
    unit = [[b for b in range(size) if (rows[a] >> b) & 1] for a in range(size)]
    if any(0 not in unit[a] or a not in unit[a] for a in range(size)):
        return False
    if len(unit[eps]) != size:
        return False
    if any(a ^ eps not in unit[b ^ eps] for a in range(size) for b in unit[a]):
        return False
    # binary[x][y] = D<x,y> = {x t : t in D<1,xy>}
    binary = [[sum(1 << (x ^ t) for t in unit[x ^ y]) for y in range(size)]
              for x in range(size)]

    def plus(x, y, z):  # the union of D<x,t> over t in D<y,z>
        acc = 0
        for t in range(size):
            if (binary[y][z] >> t) & 1:
                acc |= binary[x][t]
        return acc

    if not all(plus(a, b, c) == plus(b, a, c) == plus(c, a, b)
               for a, b, c in itertools.product(range(size), repeat=3)):
        return False
    # each D<1,a> is a subgroup: closed under the class product
    return all(x ^ y in unit[a] for a in range(size)
               for x in unit[a] for y in unit[a])


def validate_by_loops(eps, rows):
    """validate_scheme as one loop per class pair: the reference for the
    bit-packed ternary check, raising the same AxiomViolation texts.

    Checks the triples (0, b, c) over all ordered pairs, with each union
    b + (0 + c) built class by class and translated set by set, and last
    that x, y in D<1,a> give x^y in D<1,a> for every a.
    """
    size = len(rows)
    for a in range(size):
        row = rows[a]
        if not (row >> 0) & 1:
            raise AxiomViolation("identity not in D<1,%d>" % a)
        if not (row >> a) & 1:
            raise AxiomViolation("class %d not in D<1,%d>" % (a, a))
    if rows[eps] != (1 << size) - 1:
        raise AxiomViolation("D<1,-1> is not the whole group")
    for a in range(size):
        for b in iter_bits(rows[a]):
            if not (rows[b ^ eps] >> (a ^ eps)) & 1:
                raise AxiomViolation(
                    "%d in D<1,%d> but %d not in D<1,%d>" % (b, a, a ^ eps, b ^ eps)
                )
    # unions[b][y]: the union of D<1,t> over t in the b-translate of D<1,y>
    unions = []
    for b in range(size):
        shifted = [rows[t ^ b] for t in range(size)]
        line = []
        for y in range(size):
            acc = 0
            for t in iter_bits(rows[y]):
                acc |= shifted[t]
            line.append(acc)
        unions.append(line)
    # last[b][c] = b + (0 + c), the b-translate of unions[b][c]; and
    # 0 + (b + c) = unions[b][b ^ c], as D<b,c> = b-translate of D<1,b^c>
    last = [[translate(u, b) for u in line] for b, line in enumerate(unions)]
    for b in range(size):
        for c in range(size):
            if not unions[b][b ^ c] == last[b][c] == last[c][b]:
                raise AxiomViolation(
                    "ternary value set of (0,%d,%d) depends on the order" % (b, c)
                )
    for a in range(size):
        for x in iter_bits(rows[a]):
            for y in iter_bits(rows[a]):
                if not (rows[a] >> (x ^ y)) & 1:
                    raise AxiomViolation("D<1,%d> is not a subgroup" % a)


def symmetric_mutants(eps, rows):
    """Tables with bit b of rows[a] and bit a^eps of rows[b^eps] flipped.

    Over a not in {0, eps} and b not in {0, a}, each table once.  The flips
    keep the identity, self and D<1,-1> axioms and the pairwise axiom
    (b in D<1,a> iff a^eps in D<1,b^eps>), so only the ternary and subgroup
    ones can fail; on a library table the subgroup one always does, as the
    flipped row has 2^k +- 1 elements, k >= 1.
    """
    size = len(rows)
    seen = set()
    for a in range(size):
        if a in (0, eps):
            continue
        for b in range(1, size):
            if b == a:
                continue
            out = list(rows)
            for row, bit in {(a, b), (b ^ eps, a ^ eps)}:
                out[row] ^= 1 << bit
            out = tuple(out)
            if out not in seen:
                seen.add(out)
                yield out


def pairwise_mutants(eps, rows):
    """Tables with bit b of rows[a] flipped alone.

    Over a not in {0, eps} and b not in {0, a, a^eps}, each table once.
    The flip keeps the identity, self and D<1,-1> axioms, and on a valid
    table it breaks the pairwise one: bit a^eps of rows[b^eps] is left as
    it was.
    """
    size = len(rows)
    for a in range(size):
        if a in (0, eps):
            continue
        for b in range(1, size):
            if b not in (a, a ^ eps):
                out = list(rows)
                out[a] ^= 1 << b
                yield tuple(out)


def d6_rare_failure_rows():
    """A d = 6 table that fails the ternary axiom on few triples.

    product(Q2,laurent(laurent(F2))) (eps = 9) with bit 20 of rows[16] and
    bit 25 of rows[29] flipped: the pairwise axioms still hold, and 64
    sorted triples fail the ternary one, the first being (0, 0, 16).
    """
    rows = list(build_from_text("product(Q2,laurent(laurent(F2)))").rows)
    rows[16] ^= 1 << 20
    rows[29] ^= 1 << 25
    return rows


# ---------------------------------------------------------------------------
# the dyadic base table from the 2-adic Hilbert symbol: the reference that
# the frozen table of the Q2 scheme is compared with


def _hilbert2(u: int, v: int) -> int:
    """2-adic Hilbert symbol of two nonzero integers, +1 or -1."""
    alpha, u1 = _split_two(u)
    beta, v1 = _split_two(v)
    e = ((u1 - 1) // 2) * ((v1 - 1) // 2)
    e += alpha * ((v1 * v1 - 1) // 8)
    e += beta * ((u1 * u1 - 1) // 8)
    return -1 if e & 1 else 1


def _split_two(u: int):
    k = 0
    while u % 2 == 0:
        u //= 2
        k += 1
    return k, u


def _dyadic_rep(a: int) -> int:
    """Integer representative of dyadic class mask a (bits: sign, 2, 5)."""
    r = 1
    if a & 1:
        r = -r
    if a & 2:
        r *= 2
    if a & 4:
        r *= 5
    return r


def generate_dyadic_table() -> dict:
    """Recompute the dyadic base table from the 2-adic Hilbert symbol.

    b is a value of <1,a> exactly when the ternary form <1, a, -b> is
    isotropic over the dyadic field; for a not in the class of -1 that is
    the symbol condition (b, -a) = 1, and for a in the class of -1 the form
    <1,a> is hyperbolic, hence universal.  builders._BASE_TABLES["Q2"]
    holds this table as a literal.
    """
    eps = 1
    rows = []
    for a in range(8):
        if a == eps:
            rows.append(255)
            continue
        row = 0
        for b in range(8):
            if _hilbert2(_dyadic_rep(b), -_dyadic_rep(a)) == 1:
                row |= 1 << b
        assert row & 1 and (row >> a) & 1
        rows.append(row)
    return {
        "dim": 3,
        "minus_one": eps,
        "coordinates": ["-1", "2", "5"],
        "rows": rows,
    }
