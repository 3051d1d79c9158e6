"""Independent cross-checks used by more than one test module."""

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
