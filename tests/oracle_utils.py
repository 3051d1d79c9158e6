"""Independent cross-checks used by more than one test module."""

import functools
import itertools

from symlen.f2space import rank_ints
from symlen.milnor import tensor_of_vectors
from symlen.scheme import iter_bits


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


def tuple_pure_symbols(algebra):
    """Pure symbols by projecting the tensor of every nonzero slot tuple.

    The reference for SymbolAlgebra.pure_symbols: sorted coords of the
    distinct nonzero images over all (2^d - 1)^n tuples, one at a time.
    """
    size = algebra.scheme.size
    seen = set()
    for vs in itertools.product(range(1, size), repeat=algebra.n):
        seen.add(algebra.project(tensor_of_vectors(vs, algebra.scheme.d)).coords)
    seen.discard(0)
    return tuple(sorted(seen))


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


# ---------------------------------------------------------------------------
# value sets and isotropy by the recursion on entries, independent of the
# Witt search that the library uses; isometry through the Witt search


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
        return scheme.binary(key[0], key[1])
    res = 0
    for i in range(len(key)):
        if i and key[i] == key[i - 1]:
            continue  # same remaining form as position i - 1
        for c in iter_bits(_value_set(scheme, key[:i] + key[i + 1:])):
            res |= scheme.binary(key[i], c)
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
    return scheme.witt_decompose(f + tuple(e ^ scheme.eps for e in g)).kernel == ()
