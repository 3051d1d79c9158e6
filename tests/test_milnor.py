"""Tests for the symbol algebra: k_n dimensions, images, symbol lengths."""

import gc
import itertools
import json
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    all_pairs_split_basis,
    alternating_rank_sl,
    bfs_layers_by_full_passes,
    binary,
    derived_head_bases,
    dict_bfs_distances,
    dict_bfs_max_length,
    dict_image_quotient,
    gray_pure_symbols,
    holder_rref_ints,
    isometric,
    last_slot_images,
    packed_table,
    pfister_expand,
    project,
    project_image,
    reduced_relations,
    row_walk_links,
    tensor_of_vectors,
    tensor_space,
    tensor_space_mul_table,
    tuple_pfister_classes,
    tuple_pure_symbols,
    value_set_split_basis,
    witt_decompose,
)
from symlen.builders import (
    build,
    build_from_text,
    expr_dim,
    standard_expressions,
    standard_library,
)
from symlen.errors import DegreeMismatch, TooLarge, VerificationFailure
from symlen.f2space import _swap_runs, iter_bits, rank_ints, rref_ints
from symlen.decompose import make_sum, run_decomposition
from symlen.scheme import Scheme, pfister_classes, subgroup_rows
from symlen import milnor
from symlen.milnor import (
    DEFAULT_TENSOR_CAP,
    SymbolAlgebra,
    SymbolVector,
    cayley_layers,
    kn_space,
    sl_field,
    split_generators,
)


LAURENT5_RC = "laurent(laurent(laurent(laurent(laurent(RC)))))"


def rigid_label(k):
    out = "QC"
    for _ in range(k):
        out = "laurent(%s)" % out
    return out


def search_lengths(alg):
    """Each element's coords mapped to its symbol length: the index of the
    layer of alg.layers() that holds it."""
    return {x: k for k, layer in enumerate(alg.layers()) for x in iter_bits(layer)}


def fresh_algebra(s, n):
    """k_n of s built anew on the cached k_{n-1}, with cold memos and not
    cached itself."""
    if n > 1:
        kn_space(s, n - 1)
    return SymbolAlgebra(s, n)


def test_tensor_of_vectors_frozen():
    assert tensor_of_vectors((1, 2), 2) == 1 << 2
    assert tensor_of_vectors((3, 3), 2) == 15
    assert tensor_of_vectors((0, 3), 2) == 0
    assert tensor_of_vectors((5,), 3) == 5
    assert tensor_of_vectors((1, 1, 1), 2) == 1
    assert tensor_of_vectors((2, 2, 2), 2) == 1 << 7


def split_tensors(s):
    """The tensors a (x) b of the split generators of s, in order."""
    return [tensor_of_vectors(pair, s.d) for pair in split_generators(s)]


def test_split_generators_q3():
    q3 = build_from_text("laurent(F2)")
    basis = split_tensors(q3)
    assert len(basis) == 3
    assert rank_ints(basis + [tensor_of_vectors((1, 1), 2)]) == 3
    assert rank_ints(basis + [tensor_of_vectors((2, 2), 2)]) == 4


def test_split_generators_match_all_pairs():
    for label, s in standard_library(4):
        pairs = split_generators(s)
        basis = rref_ints(split_tensors(s))
        assert basis == all_pairs_split_basis(s), label
        assert basis == value_set_split_basis(s), label
        assert split_generators(s) is pairs


def test_split_generators_independent_and_spanning():
    # each generator (a, b), listed by a and then D<1, -a>'s subgroup rows,
    # is kept iff its tensor is independent of the kept ones before it: so
    # the kept tensors are independent and span every split tensor; the
    # d <= 4 library and the d = 5, 6 towers of the large-kn population
    schemes = [(label, s) for label, s in standard_library(4)]
    schemes += [(op["scheme"], build_from_text(op["scheme"]))
                for op in json.loads(LARGE_KN.read_text(encoding="utf-8"))["ops"]]
    for label, s in schemes:
        kept = split_generators(s)
        tensors = split_tensors(s)
        assert rank_ints(tensors) == len(kept), label
        assert rref_ints(tensors) == value_set_split_basis(s), label
        greedy, span = [], []
        for a in range(1, s.size):
            for b in s._subgroups[s.rows[a ^ s.eps]]:
                t = tensor_of_vectors((a, b), s.d)
                if rank_ints(span + [t]) > len(span):
                    greedy.append((a, b))
                    span.append(t)
        assert kept == greedy, label


def assert_images_match_table(alg, table):
    """image_coords and last_slot_images against the oracle head table,
    whose entry at i + d * key is the image of <<head, e_i ^ eps>> for the
    head whose vectors a ^ eps are the d-bit digits of key."""
    s = alg.scheme
    d = s.d
    assert len(table) == d * s.size ** (alg.n - 1)
    for head in itertools.product(range(s.size), repeat=alg.n - 1):
        key = sum((a ^ s.eps) << (d * j) for j, a in enumerate(head))
        entries = table[d * key:d * key + d]
        for i in range(d):
            assert alg.image_coords(head + ((1 << i) ^ s.eps,)) == entries[i]
        expected = []
        for c in range(s.size):
            x = 0
            for i in iter_bits(c ^ s.eps):
                x ^= entries[i]
            expected.append(x)
        assert last_slot_images(alg, head) == expected, (alg, head)


def assert_matches_reduction_oracle(alg):
    """The tensor-space RREF, rebuilt from the pivots of alg and the class
    of each basis tensor: the row with pivot p is e_p plus the
    representative of its class."""
    relations, free_cols, table = reduced_relations(alg.scheme, alg.n)
    rebuilt = [(1 << p) | alg.representative(project(alg, 1 << p))
               for p in reversed(range(alg.scheme.d ** alg.n))
               if p not in alg.free_cols]
    assert rebuilt == relations
    assert alg.free_cols == free_cols
    assert alg.dim == len(free_cols)
    assert_images_match_table(alg, table)


def test_relations_match_list_reduction():
    for _, s in standard_library(3):
        for n in (1, 2, 3, 4):
            assert_matches_reduction_oracle(fresh_algebra(s, n))


D4_EXPRESSIONS = [e for e in standard_expressions(4) if expr_dim(e) == 4]
D5_EXPRESSIONS = [e for e in standard_expressions(5) if expr_dim(e) == 5]


def test_tables_match_tensor_space_path():
    # the k_{n-1} (x) G reduction against the reduction over d^n columns:
    # the d <= 4 library at n = 1..4, a seeded sample of 500 of the 3,294
    # d = 5 schemes at n = 2, 3 (all of them take about 4 s more), and two
    # d = 6 towers at n = 3, 4
    sample = [build(e) for e in random.Random(19).sample(D5_EXPRESSIONS, 500)]
    towers = [build_from_text(expr) for expr in (rigid_label(6), LAURENT5_RC)]
    library = [s for _, s in standard_library(4)]
    cases = [(s, n) for s in library for n in (1, 2, 3, 4)]
    cases += [(s, n) for s in sample for n in (2, 3)]
    cases += [(s, n) for s in towers for n in (3, 4)]
    for s, n in cases:
        alg = kn_space(s, n)
        assert alg.free_cols == tensor_space(s, n).free_cols, (s, n)
        assert alg.dim == len(alg.free_cols)
        assert packed_table(alg) == tensor_space_mul_table(s, n), (s, n)
    # every value set there is a subgroup, read off without a reduction
    for s in library + sample + towers:
        for values in s.rows:
            rows = rref_ints(iter_bits(values & ~1))
            assert subgroup_rows(values, s.d) == rows, (s, values)


def test_build_matches_dict_image_oracle(monkeypatch):
    # the echelon reduction and the flat image list against the holder
    # index and the dict of images: the same free columns and tables at
    # every degree built, and the same reduction of every row set that a
    # cold build reduces; the d <= 4 library at n = 1..4, laurent^5(RC)
    # and laurent^6(QC) at n = 3..5
    reduced = []

    def recorded(rows):
        rows = list(rows)
        out = rref_ints(rows)
        reduced.append((rows, out))
        return out

    monkeypatch.setattr(milnor, "rref_ints", recorded)
    cases = [(label, n) for label, _ in standard_library(4) for n in (1, 2, 3, 4)]
    cases += [(label, n) for label in (LAURENT5_RC, rigid_label(6)) for n in (3, 4, 5)]
    for label, n in cases:
        reduced.clear()
        s = fresh_scheme(label)
        kn_space(s, n)
        for alg in s._kn[1:n]:
            oracle = dict_image_quotient(s._kn[alg.n - 2], s, alg.n)
            assert (alg.free_cols, packed_table(alg)) == oracle, (label, alg.n)
        # one row set per degree from n = 2 up: choosing the split
        # generators reduces nothing
        assert len(reduced) == n - 1, (label, n)
        for rows, out in reduced:
            assert out == holder_rref_ints(rows), (label, n)


def test_value_set_rows_span_any_set():
    # every class set at d <= 4: the reduced rows of a subgroup, None for
    # any other set; a set holding 0 is a subgroup iff it has 2^rank elements
    for d in range(5):
        for values in range(1 << (1 << d)):
            rows = rref_ints(iter_bits(values & ~1))
            subgroup = values & 1 and 1 << len(rows) == values.bit_count()
            assert subgroup_rows(values, d) == (rows if subgroup else None), values


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(D4_EXPRESSIONS) | st.sampled_from(D5_EXPRESSIONS),
       st.sampled_from((2, 3)))
def test_random_d45_relations_match_list_reduction(expr, n):
    assert_matches_reduction_oracle(fresh_algebra(build(expr), n))


def test_dimensions_frozen():
    expected = [
        ("QC", 2, 0),
        ("RC", 2, 1),
        ("RC", 3, 1),
        ("F1", 2, 0),
        ("F2", 2, 0),
        ("laurent(F2)", 2, 1),
        ("Q2", 2, 1),
        ("Q2", 3, 0),
        ("laurent(laurent(F2))", 2, 3),
        ("product(RC,RC)", 2, 2),
        ("product(RC,RC)", 3, 2),
    ]
    for label, n, dim in expected:
        assert kn_space(build_from_text(label), n).dim == dim, (label, n)


def test_rigid_dimensions_are_binomials():
    for k in range(1, 6):
        s = build_from_text(rigid_label(k))
        for n in range(1, 4):
            assert kn_space(s, n).dim == math.comb(k, n)


def test_symbol_image_frozen_q3():
    q3 = build_from_text("laurent(F2)")
    alg = kn_space(q3, 2)
    nonzero = alg.image_coords((0, 2))
    assert nonzero != 0
    assert alg.image_coords((1, 2)) == 0
    assert alg.image_coords((2, 2)) == nonzero
    with pytest.raises(DegreeMismatch):
        kn_space(q3, 3).image_coords((0, 2))


def test_image_invariant_under_slot_moves():
    rng = random.Random(7)
    labels = ["laurent(F2)", "laurent(laurent(QC))", "product(RC,F1)"]
    for label in labels:
        s = build_from_text(label)
        for n in (2, 3):
            alg = kn_space(s, n)
            for _ in range(40):
                slots = [rng.randrange(s.size) for _ in range(n)]
                img = alg.image_coords(slots)
                # permuting slots
                perm = slots[:]
                rng.shuffle(perm)
                assert alg.image_coords(perm) == img
                # replacing a pair (x, y) by (z, xyz) for z in D<x, y>
                i, j = rng.sample(range(n), 2)
                x, y = slots[i], slots[j]
                choices = [z for z in range(s.size) if (binary(s, x, y) >> z) & 1]
                z = rng.choice(choices)
                moved = slots[:]
                moved[i], moved[j] = z, x ^ y ^ z
                assert isometric(s, pfister_expand(slots), pfister_expand(moved))
                assert alg.image_coords(moved) == img


def test_degree_two_image_detects_hyperbolicity():
    for _, s in standard_library(3):
        alg = kn_space(s, 2)
        for x in range(s.size):
            for y in range(s.size):
                hyperbolic = witt_decompose(s, pfister_expand((x, y))).kernel == ()
                assert (alg.image_coords((x, y)) == 0) == hyperbolic


def test_sl_rigid_frozen():
    r4 = build_from_text(rigid_label(4))
    alg = kn_space(r4, 2)
    a = SymbolVector(alg.image_coords((1, 2)), alg.dim)
    b = SymbolVector(alg.image_coords((4, 8)), alg.dim)
    x = SymbolVector(a.coords ^ b.coords, alg.dim)
    length = search_lengths(alg)
    assert length[a.coords] == 1
    assert length[x.coords] == 2
    assert sl_field(r4, 2) == (2, SymbolVector(12, 6))
    sl3, _ = sl_field(build_from_text(rigid_label(3)), 2)
    assert sl3 == 1
    sl5, _ = sl_field(build_from_text(rigid_label(5)), 2)
    assert sl5 == 2


def test_sl_field_frozen_small():
    expected = [
        ("QC", 2, 0),
        ("RC", 2, 1),
        ("RC", 3, 1),
        ("F1", 2, 0),
        ("laurent(F2)", 2, 1),
        ("Q2", 2, 1),
        ("laurent(laurent(F2))", 2, 1),
        ("product(RC,RC)", 2, 1),
    ]
    for label, n, sl in expected:
        got, witness = sl_field(build_from_text(label), n)
        assert got == sl, (label, n)
        length = search_lengths(kn_space(build_from_text(label), n))
        assert length[witness.coords] == sl


def test_sl_matches_alternating_rank_oracle():
    for k in range(2, 6):
        s = build_from_text(rigid_label(k))
        alg = kn_space(s, 2)
        length = search_lengths(alg)
        for coords in range(1 << alg.dim):
            x = SymbolVector(coords, alg.dim)
            assert length[coords] == alternating_rank_sl(alg, x)


def test_rigid_sl_is_half_dimension():
    for k in range(1, 6):
        sl, _ = sl_field(build_from_text(rigid_label(k)), 2)
        assert sl == k // 2


def test_pure_symbol_counts_frozen():
    expected = [
        ("laurent(laurent(laurent(QC)))", 2, 7),
        ("laurent(laurent(laurent(laurent(QC))))", 2, 35),
        ("laurent(F2)", 2, 1),
        ("RC", 2, 1),
        ("product(RC,RC)", 2, 3),
    ]
    for label, n, count in expected:
        assert len(kn_space(build_from_text(label), n).pure_symbols()) == count


def test_sl_bounded_by_pure_symbol_count():
    for _, s in standard_library(3):
        alg = kn_space(s, 2)
        sl, witness = alg.max_symbol_length()
        assert sl <= max(1, len(alg.pure_symbols()))
        assert search_lengths(alg)[witness.coords] == sl
        if alg.dim == 0:
            assert sl == 0


def test_caps_and_degree_errors():
    q3 = build_from_text("laurent(F2)")
    with pytest.raises(TooLarge):
        kn_space(q3, 2, tensor_cap=3)
    with pytest.raises(TooLarge):
        fresh_algebra(build_from_text(rigid_label(4)), 2).max_symbol_length(cap=32)
    with pytest.raises(DegreeMismatch):
        kn_space(q3, 0)
    with pytest.raises(DegreeMismatch):
        SymbolVector(4, 2)


def test_project_representative_roundtrip():
    rng = random.Random(3)
    for label in ["laurent(F2)", "laurent(laurent(F2))", "product(RC,RC)"]:
        s = build_from_text(label)
        for n in (2, 3):
            alg = kn_space(s, n)
            assert alg.representative(SymbolVector(0, alg.dim)) == 0
            for _ in range(50):
                mask = rng.randrange(1 << (s.d ** n))
                x = project(alg, mask)
                assert project(alg, alg.representative(x)) == x


def test_kn_space_is_cached():
    s = build_from_text("laurent(F2)")
    assert kn_space(s, 2) is kn_space(s, 2)
    # one algebra per (table, n): F1 and laurent(QC) share a table
    assert kn_space(build_from_text("F1"), 2) is kn_space(build_from_text("laurent(QC)"), 2)


# ---------------------------------------------------------------------------
# the multilinear pure symbols and the bitset layers against their oracles


def assert_matches_oracles(alg):
    assert alg.pure_symbols() == tuple_pure_symbols(alg)
    dist = dict_bfs_distances(alg)
    assert len(dist) == 1 << alg.dim
    assert search_lengths(alg) == dist
    best, witness = dict_bfs_max_length(alg)
    assert alg.max_symbol_length() == (best, SymbolVector(witness, alg.dim))


def test_pure_symbols_match_tuple_oracle():
    for label, s in standard_library(3):
        for n in (2, 3):
            alg = fresh_algebra(s, n)
            assert alg.pure_symbols() == tuple_pure_symbols(alg), (label, n)


def test_pure_symbols_match_gray_oracle():
    # the images of the class walk against the products of the pure
    # symbols one degree down
    cases = [(s, n) for _, s in standard_library(4) for n in (2, 3)]
    cases += [(build_from_text(rigid_label(6)), n) for n in (3, 4)]
    cases.append((build_from_text(LAURENT5_RC), 3))
    for s, n in cases:
        alg = kn_space(s, n)
        assert alg.pure_symbols() == gray_pure_symbols(alg), alg


def walk_triples(alg):
    """(image, prefix image, last slot) of each class of the walk of alg,
    in walk order: the prefix image is the entry of the images one degree
    down (1 alone in k_0) at the class's prefix position."""
    images = alg._walked()[0]
    below = (1,) if alg.n == 1 else alg.scheme._kn[alg.n - 2]._walked()[0]
    return [(image, below[k], c)
            for image, k, c in zip(images, alg._prefix, alg._last, strict=True)]


def test_walk_matches_row_oracle():
    # the table walk against a row per key: the same (image, prefix image,
    # last slot) triples, in order, as the oracle's link map items at every
    # degree up to 3, and the recorded head bases equal to those derived
    # from the tables, whether k_3 is read first, walking k_1 and k_2 on
    # its way up, or k_1 is, walking no degree above its own
    schemes = [s for _, s in standard_library(4)]
    schemes += [build_from_text(expr) for expr in (LAURENT5_RC, rigid_label(6))]
    for s in schemes:
        top_first = Scheme(s.d, s.eps, s.rows)
        kn_space(top_first, 3)._walked()
        bottom_first = Scheme(s.d, s.eps, s.rows)
        kn_space(bottom_first, 3)
        for n in (1, 2, 3):
            bottom_first._kn[n - 1]._walked()
            assert [low._images is not None for low in bottom_first._kn] == [
                k <= n for k in (1, 2, 3)], (s, n)
        for chain in (top_first._kn, bottom_first._kn):
            for low, oracle in zip(chain, row_walk_links(chain[-1])):
                assert walk_triples(low) == [
                    (image, x, c) for image, (x, c) in oracle.items()], low
                assert low._walked()[1] == derived_head_bases(low, oracle), low


def test_packed_rows_unpack_to_the_table_within_the_field_width():
    # each degree keeps row j of its table, mu_n(e_j, v) over v, only as one
    # int of milnor._FIELD-bit fields, entry v in field v: every packed row
    # has nothing above its last field, milnor._unpack gives its fields
    # read by shift and mask, which are linear in v with entries below
    # 2^dim k_n, and dim k_n <= 2^(d - 1) fits a field; on every degree of
    # the d <= 4 library up to n = 3 and of the fan laurent^5(RC) up to
    # n = 5 (dim k_4 = 31, dim k_5 = 32), where the walk of k_4 and k_5
    # also matches the list-row oracle
    fan = fresh_scheme(LAURENT5_RC)
    kn_space(fan, 5)
    assert [alg.dim for alg in fan._kn] == [6, 16, 26, 31, 32]
    chains = [fan._kn]
    for _, s in standard_library(4):
        kn_space(s, 3)
        chains.append(s._kn[:3])
    width = milnor._FIELD
    for chain in chains:
        for alg in chain:
            s = alg.scheme
            assert 2 * alg.dim <= 1 << s.d and alg.dim <= width, alg
            assert len(alg._packed) == (
                1 if alg.n == 1 else s._kn[alg.n - 2].dim), alg
            for packed, row in zip(alg._packed, packed_table(alg), strict=True):
                assert packed >> (width * s.size) == 0, alg
                assert milnor._unpack(packed, s.size) == row, alg
                for v in range(s.size):
                    unit_sum = 0
                    for i in iter_bits(v):
                        unit_sum ^= row[1 << i]
                    assert row[v] == unit_sum < 1 << alg.dim, (alg, v)
    for low, oracle in list(zip(fan._kn, row_walk_links(fan._kn[-1])))[3:]:
        assert walk_triples(low) == [
            (image, x, c) for image, (x, c) in oracle.items()], low
        assert low._walked()[1] == derived_head_bases(low, oracle), low


def test_layers_match_dict_bfs():
    # the last scheme has sl 3 in degree 2, so a wrong translate cannot hide
    # in a second layer that already covers everything left
    schemes = [s for _, s in standard_library(3)]
    schemes += [build_from_text(rigid_label(k)) for k in range(4, 6)]
    schemes.append(build_from_text("laurent(product(F1,laurent(product(F1,RC))))"))
    for s in schemes:
        assert_matches_oracles(fresh_algebra(s, 2))


def test_layers_match_full_pass_oracle():
    # the d <= 4 library at n = 2, 3, laurent^5(RC) and laurent^6(QC) at n = 2
    algebras = [fresh_algebra(s, n) for _, s in standard_library(4) for n in (2, 3)]
    algebras += [fresh_algebra(build_from_text(expr), 2)
                 for expr in (LAURENT5_RC, rigid_label(6))]
    assert [a.dim for a in algebras[-2:]] == [16, 15]
    for alg in algebras:
        assert alg.layers() == bfs_layers_by_full_passes(alg), alg


LARGE_KN = Path(__file__).resolve().parents[1] / "perfbench/reference/large-kn.json"


def test_layers_match_full_pass_oracle_on_large_kn_sample():
    # a seeded sample of the frozen d = 6 towers, with their frozen sl and
    # witness
    ops = json.loads(LARGE_KN.read_text(encoding="utf-8"))["ops"]
    for op in random.Random(22).sample(ops, 20):
        alg = fresh_algebra(build_from_text(op["scheme"]), op["n"])
        assert alg.layers() == bfs_layers_by_full_passes(alg), alg
        sl, witness = alg.max_symbol_length()
        assert (alg.dim, sl, witness.coords) == (
            op["expect"]["dim_kn"], op["expect"]["sl"], op["expect"]["witness"]), alg


def span(basis):
    out = {0}
    for w in basis:
        out |= {x ^ w for x in out}
    return out


def test_head_bases_span_the_pure_symbols():
    algebras = [fresh_algebra(s, n) for _, s in standard_library(4) for n in (1, 2, 3)]
    algebras += [kn_space(build_from_text(expr), n)
                 for expr in (LAURENT5_RC, rigid_label(6)) for n in (2, 3)]
    assert [a.dim for a in algebras[-4:]] == [16, 26, 15, 20]
    for alg in algebras:
        bases = alg._walked()[1]
        assert all(len(basis) <= alg.scheme.d for basis in bases), alg
        assert {0}.union(*map(span, bases)) == {0, *alg.pure_symbols()}, alg


def counted_swaps(monkeypatch):
    """The bit count of each translate of the search, in call order: a
    translate by w swaps once per set bit of w."""
    swaps = []

    def counted(s, w, masks, unit):
        swaps.append(w.bit_count())
        return _swap_runs(s, w, masks, unit)

    monkeypatch.setattr(milnor, "_swap_runs", counted)
    return swaps


def test_bfs_stops_without_an_empty_pass(monkeypatch):
    swaps = counted_swaps(monkeypatch)
    alg = fresh_algebra(build_from_text(LAURENT5_RC), 2)
    layers = alg.layers()
    assert [layer.bit_count() for layer in layers] == [1, 683, 23188, 41664]
    # layer 1 is the generator set; each later layer is at most one pass
    # over the head bases, and the last one stops once it covers the rest
    assert (len(swaps), sum(swaps)) == (188, 422)
    assert len(swaps) < (len(layers) - 2) * sum(map(len, alg._bases))


def test_head_bases_derived_once_per_search(monkeypatch):
    # passes 2 and 3 both saturate by the head bases, which the class walk
    # records: one kernel call per search, given the walk's own list, with
    # one basis per distinct head, and none when the memoized length is
    # read again
    calls = []

    def counted(dim, generators, bases):
        calls.append((dim, generators, bases))
        return cayley_layers(dim, generators, bases)

    monkeypatch.setattr(milnor, "cayley_layers", counted)
    alg = fresh_algebra(build_from_text(LAURENT5_RC), 2)
    assert alg.max_symbol_length()[0] == 3
    assert alg.max_symbol_length()[0] == 3
    assert len(calls) == 1
    dim, generators, bases = calls[0]
    assert (dim, generators) == (alg.dim, alg.pure_symbols())
    assert bases is alg._bases
    # the heads are the distinct prefixes
    assert len(bases) == len(set(alg._prefix))


def test_bfs_swap_count(monkeypatch):
    # the swaps are deterministic: the n = 2 searches of the two dim 15-16
    # towers and the n = 3 search of laurent^6(QC), translate calls and bit
    # swaps (a translate per generator took 1,480 and 1,276 bit swaps at
    # n = 2)
    swaps = counted_swaps(monkeypatch)
    cases = [(LAURENT5_RC, 2, 188, 422, [1, 683, 23188, 41664]),
             (rigid_label(6), 2, 186, 405, [1, 651, 18228, 13888]),
             (rigid_label(6), 3, 868, 2576, [1, 1395, 411804, 635376])]
    for expr, n, calls, bits, sizes in cases:
        alg = kn_space(build_from_text(expr), n)
        swaps.clear()
        layers = alg.layers()
        assert (len(swaps), sum(swaps)) == (calls, bits), (expr, n)
        assert [layer.bit_count() for layer in layers] == sizes, (expr, n)


def test_bfs_refuses_non_spanning_generators(monkeypatch):
    # the pure symbols 1 and 2 of laurent^3(QC) span 4 of its 8 classes;
    # with one line through each as the bases, the nonzero elements of
    # their spans are those two generators
    alg = fresh_algebra(build_from_text(rigid_label(3)), 2)
    gens = alg.pure_symbols()[:2]
    assert (gens, alg.dim) == ((1, 2), 3)
    message = "^pure symbols span only 4 of 8 classes$"
    with pytest.raises(VerificationFailure, match=message):
        cayley_layers(3, gens, [[1], [2]])
    monkeypatch.setattr(alg, "pure_symbols", lambda: gens)
    with pytest.raises(VerificationFailure, match=message):
        bfs_layers_by_full_passes(alg)


def set_bfs_layers(dim, generators):
    """The layers of the Cayley graph of F2^dim as sets, and the vectors
    reached: the plain reference for cayley_layers."""
    layers = [{0}]
    reached = {0}
    while True:
        nxt = {x ^ g for x in layers[-1] for g in generators} - reached
        if not nxt:
            return layers, reached
        reached |= nxt
        layers.append(nxt)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 7).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.lists(st.integers(0, (1 << dim) - 1), max_size=4), max_size=4))))
def test_cayley_layers_match_set_bfs(case):
    # the generators are the nonzero elements of the union of the spans
    dim, bases = case
    gens = sorted(set().union(*map(span, bases)) - {0})
    layers, reached = set_bfs_layers(dim, gens)
    if len(reached) < 1 << dim:
        message = "^pure symbols span only %d of %d classes$" % (len(reached), 1 << dim)
        with pytest.raises(VerificationFailure, match=message):
            cayley_layers(dim, gens, bases)
    else:
        assert cayley_layers(dim, gens, bases) == [
            sum(1 << x for x in layer) for layer in layers]


def test_cayley_layers_of_unit_vectors_are_weights():
    # plain data, no scheme: with the unit vectors as the generators and a
    # line through each as the bases, layer k is the vectors of weight k
    for dim in range(9):
        units = [1 << i for i in range(dim)]
        layers = cayley_layers(dim, units, [[u] for u in units])
        assert len(layers) == dim + 1
        for k, layer in enumerate(layers):
            assert layer.bit_count() == math.comb(dim, k), (dim, k)
            assert all(x.bit_count() == k for x in iter_bits(layer)), (dim, k)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(D4_EXPRESSIONS), st.sampled_from((2, 3)))
def test_random_d4_schemes_match_oracles(expr, n):
    assert_matches_oracles(fresh_algebra(build(expr), n))


def assert_images_match_projection(alg, tuples):
    for slots in tuples:
        image = alg.image_coords(slots)
        assert image == project_image(alg, slots), (alg, slots)
        assert image == alg.image_coords(tuple(sorted(slots)))
        assert last_slot_images(alg, slots[:-1])[slots[-1]] == image


def test_image_table_matches_projection():
    for _, s in standard_library(3):
        for n in (1, 2, 3):
            alg = kn_space(s, n)
            assert_images_match_table(alg, reduced_relations(s, n)[2])
            assert_images_match_projection(
                alg, itertools.product(range(s.size), repeat=n))


D56_EXPRESSIONS = ["laurent(laurent(laurent(laurent(laurent(QC)))))",
                   "laurent(laurent(laurent(laurent(F1))))",
                   "laurent(laurent(product(RC,Q2)))",
                   "laurent(laurent(laurent(laurent(laurent(laurent(QC))))))",
                   "laurent(laurent(Q2))",
                   "laurent(laurent(laurent(Q2)))",
                   "laurent(laurent(laurent(laurent(laurent(RC)))))"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(D56_EXPRESSIONS), st.sampled_from((2, 3)), st.data())
def test_random_d56_table_matches_projection(expr, n, data):
    s = build_from_text(expr)
    slot = st.integers(0, s.size - 1)
    tuples = data.draw(st.lists(st.tuples(*[slot] * n), min_size=1, max_size=20))
    assert_images_match_projection(kn_space(s, n), tuples)


def fresh_scheme(label):
    """An uncached copy of a library scheme, with no algebra built yet."""
    s = build_from_text(label)
    return Scheme(s.d, s.eps, s.rows)


def test_large_degree_builds_bottom_up():
    # far past the recursion limit: each degree reads the cached one below
    n = 5000
    rc = fresh_scheme("RC")
    alg = kn_space(rc, n)
    assert [low.n for low in rc._kn] == list(range(1, n + 1))
    assert alg.dim == 1
    assert sl_field(rc, n) == (1, SymbolVector(1, 1))
    assert alg.image_coords((0,) * n) == 1
    assert alg.image_coords((0,) * (n - 1) + (1,)) == 0
    qc = fresh_scheme("QC")
    assert kn_space(qc, n).dim == 0
    assert sl_field(qc, n) == (0, SymbolVector(0, 0))


def test_kn_space_is_the_one_builder(monkeypatch):
    # a cold kn_space(s, 4) is one call of kn_space, with no nested fetch:
    # it constructs each degree once, in order, each while scheme._kn holds
    # exactly the degrees below it
    calls = []
    built = []
    held = []
    original_kn_space = milnor.kn_space
    original_init = SymbolAlgebra.__init__

    def counted_kn_space(*args, **kwargs):
        calls.append(args)
        return original_kn_space(*args, **kwargs)

    def recorded_init(self, scheme, n):
        held.append(list(scheme._kn))
        original_init(self, scheme, n)
        built.append(self)

    monkeypatch.setattr(milnor, "kn_space", counted_kn_space)
    monkeypatch.setattr(SymbolAlgebra, "__init__", recorded_init)
    s = fresh_scheme("laurent(laurent(F2))")
    top = milnor.kn_space(s, 4)
    assert calls == [(s, 4)]
    assert built == s._kn and top is s._kn[-1]
    assert [alg.n for alg in s._kn] == [1, 2, 3, 4]
    assert held == [s._kn[:n - 1] for n in (1, 2, 3, 4)]
    # a warm call builds nothing
    assert milnor.kn_space(s, 2) is s._kn[1] and len(built) == 4


def test_class_maps_kept_per_degree(monkeypatch):
    # k_2's class map, cold, left by the walk of k_3's, and tuple by tuple:
    # the same least tuples in the same order; and no degree is walked
    # twice, whichever of k_2 and k_3 is asked for first
    cases = []
    for label, s in standard_library(4):
        low_first = Scheme(s.d, s.eps, s.rows)
        cold = kn_space(low_first, 2).classes()
        oracle = tuple_pfister_classes(kn_space(s, 2))
        high_first = Scheme(s.d, s.eps, s.rows)
        high = kn_space(high_first, 3).classes()
        cases.append((label, cold, oracle, high, low_first, high_first))
    walk = SymbolAlgebra._walk
    walked = []

    def walk_above_two(self, links):
        assert self.n > 2, "k_%d walked a second time" % self.n
        walked.append(self)
        return walk(self, links)

    monkeypatch.setattr(SymbolAlgebra, "_walk", walk_above_two)
    for name, cold, oracle, high, low_first, high_first in cases:
        left = kn_space(high_first, 2).classes()
        assert list(cold.items()) == list(left.items()) == list(oracle.items()), name
        assert kn_space(high_first, 2).pure_symbols() == tuple(sorted(cold)), name
        assert list(kn_space(low_first, 3).classes().items()) == list(high.items()), name
    # the guard is live: each low_first table walks its k_3 under it
    assert walked == [kn_space(low_first, 3) for *_, low_first, _ in cases]


def test_every_degree_walked_once_on_first_read(monkeypatch):
    # a cold chain walks nothing as it is built; the first read of k_3
    # walks each degree once, bottom up, and the searches, the class maps
    # and a decomposition walk nothing more
    walk = SymbolAlgebra._walk
    walked = []

    def counted(self, links):
        walked.append(self)
        return walk(self, links)

    monkeypatch.setattr(SymbolAlgebra, "_walk", counted)
    for label in ("laurent(laurent(F2))", rigid_label(4)):
        s = fresh_scheme(label)
        alg = kn_space(s, 3)
        assert walked == [], label
        assert all(low._images is None for low in s._kn), label
        alg.classes()
        chain = list(s._kn)
        assert walked == chain, label
        for low in chain:
            assert len(low._bases) <= len(low._images), low
        sl_field(s, 2)
        sl_field(s, 3)
        pfister_classes(s, 2)
        pfister_classes(s, 3)
        run_decomposition(s, make_sum(s, 3, [(1, 2, 3), (0, 1, 3)]))
        assert walked == chain, label
        walked.clear()


def test_walk_and_image_coords_independent_of_chain_state(monkeypatch):
    # over the 60 distinct d <= 3 tables at n = 2, 3: image_coords of every
    # sorted slot tuple is the projection of its tensor whether its first
    # call comes cold, after the degree above is built, or after the degree
    # above has answered image_coords; and a fresh SymbolAlgebra(s, n) on
    # the chain below walks to the chain's own images, head bases and class
    # map, walking each unwalked degree below once, bottom up, and no
    # walked one again
    walk = SymbolAlgebra._walk
    walked = []

    def counted(self, below):
        walked.append(self)
        return walk(self, below)

    monkeypatch.setattr(SymbolAlgebra, "_walk", counted)
    tables = sorted({(s.d, s.eps, s.rows) for _, s in standard_library(3)})
    assert len(tables) == 60
    for table in tables:
        for n in (2, 3):
            tuples = list(itertools.combinations_with_replacement(
                range(1 << table[0]), n))
            cold = kn_space(Scheme(*table), n)
            coords = [cold.image_coords(t) for t in tuples]
            assert coords == [project_image(cold, t) for t in tuples], (table, n)
            built_above = Scheme(*table)
            kn_space(built_above, n + 1)
            above_read = Scheme(*table)
            kn_space(above_read, n + 1).image_coords((0,) * (n + 1))
            for s in (built_above, above_read):
                alg = s._kn[n - 1]
                assert [alg.image_coords(t) for t in tuples] == coords, (table, n)

            chain = kn_space(Scheme(*table), n)
            expected = (chain._walked(), list(chain.classes().items()))
            for lower_walked in (False, True):
                s = Scheme(*table)
                lower = kn_space(s, n - 1)
                if lower_walked:
                    lower._walked()
                walked.clear()
                fresh = SymbolAlgebra(s, n)
                got = (fresh._walked(), list(fresh.classes().items()))
                assert got == expected, (table, n, lower_walked)
                assert walked == ([] if lower_walked else s._kn) + [fresh]
                assert len(s._kn) == n - 1


def test_degree_keeps_only_its_packed_rows():
    # building degree n on a built degree n - 1 of a fresh scheme leaves,
    # under tracemalloc, the packed rows of degree n and under 2 KiB more:
    # no list form of its table or of the one below (keeping them, k_3 of
    # laurent^6(QC) and k_3, k_4 of laurent^5(RC) left 15.9, 16.8 and
    # 42.3 KB against 4.6, 4.9 and 8.1 KB of packed rows)
    for label, n in ((rigid_label(6), 3), (LAURENT5_RC, 3), (LAURENT5_RC, 4)):
        s = fresh_scheme(label)
        kn_space(s, n - 1)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            alg = kn_space(s, n)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = sys.getsizeof(alg._packed) + sum(map(sys.getsizeof, alg._packed))
        assert kept <= rows + 2048, (label, n, kept, rows)


def test_walk_keeps_under_80_bytes_per_class():
    # the walk keeps, per class, its image, last slot and prefix position,
    # and per head a basis: under tracemalloc, what walking k_1..k_n of a
    # fresh tower leaves allocated, over the classes of all n degrees (a
    # dict of per-class (prefix image, last slot) tuples kept 143 and 146)
    for label, n in ((LAURENT5_RC, 2), (rigid_label(6), 3)):
        s = fresh_scheme(label)
        alg = kn_space(s, n)
        tracemalloc.start()
        try:
            # a full collection empties the free lists, so that a tuple the
            # walk keeps is allocated where tracemalloc sees it
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            alg._walked()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        classes = sum(len(low._walked()[0]) for low in s._kn)
        assert kept < 80 * classes, (label, n, kept / classes)


def test_search_keeps_its_answer_not_its_layers():
    # after the walk, the search leaves only its (sl, witness) pair
    # allocated: under tracemalloc, well under one 2^dim-bit layer of the
    # dim 16 and dim 20 towers (memoizing the layers and the sorted pure
    # symbols left 32,888 and 430,224 bytes)
    for label, n in ((LAURENT5_RC, 2), (rigid_label(6), 3)):
        alg = kn_space(fresh_scheme(label), n)
        alg._walked()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            sl = alg.max_symbol_length()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert alg.max_symbol_length() is sl
        assert kept < 1024, (label, n, alg.dim, kept)


def test_degree_above_tensor_cap_refused(monkeypatch):
    def no_reduction(*args):
        raise AssertionError("reduced relations past the tensor cap")

    # d^n is 1, but every degree up to n would be kept
    n = DEFAULT_TENSOR_CAP + 1
    rc = fresh_scheme("RC")
    monkeypatch.setattr(milnor, "rref_ints", no_reduction)
    with pytest.raises(TooLarge, match="n = %d" % n):
        kn_space(rc, n)
    with pytest.raises(TooLarge, match="n = %d" % n):
        sl_field(rc, n)
    assert rc._kn == []


def test_wrong_slot_count_raises():
    alg = kn_space(build_from_text("laurent(F2)"), 3)
    with pytest.raises(DegreeMismatch):
        alg.image_coords((1, 2))
    with pytest.raises(DegreeMismatch):
        last_slot_images(alg, (1,))
