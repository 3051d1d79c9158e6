"""Tests for the F2 linear algebra layer.

The counting formulas are checked against brute-force enumeration, which is
the independent oracle here: gaussian_count values are frozen from exhaustive
subspace listings done by hand or by the enumerator itself at tiny sizes.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import list_rref

from symlen.errors import (
    DependentInput,
    EnumerationTooLarge,
    InvalidCase,
    NotProperSubspace,
)
from symlen.f2space import (
    count_upper_bound,
    enumerate_subspaces,
    enumerate_superspaces,
    extend_basis,
    gaussian_count,
    in_span,
    mask_to_str,
    rank_ints,
    rref_ints,
    subspace_from_masks,
    superspace_count,
)


def brute_force_subspaces(d, m):
    """Independent oracle: all m-dim spans found by hashing every span."""
    seen = set()
    vectors = list(range(1 << d))
    for combo in itertools.combinations([v for v in vectors if v], m):
        rows = tuple(rref_ints(combo))
        if len(rows) == m:
            seen.add(rows)
    if m == 0:
        seen = {()}
    return seen


def test_display_convention():
    assert mask_to_str(1, 2) == "01"
    assert mask_to_str(2, 2) == "10"
    assert mask_to_str(0b110, 3) == "110"
    assert str(subspace_from_masks([0b011, 0b100], 3)) == "{100, 011}"


def test_rref_frozen_examples():
    # {100, 010, 110}: third row dependent
    assert rref_ints([0b100, 0b010, 0b110]) == [0b100, 0b010]
    assert rref_ints([0b11, 0b11]) == [0b11]
    assert rref_ints([]) == []
    # the new pivot 1 is cleared from the kept row 110, which gains bit 0
    assert rref_ints([0b110, 0b011]) == [0b101, 0b011]
    assert rank_ints([0b101, 0b011, 0b110]) == 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 70).flatmap(lambda width: st.lists(
    st.integers(0, (1 << width) - 1), max_size=24)), st.data())
def test_rref_matches_list_oracle(rows, data):
    # zero rows and repeats of drawn rows, in a drawn order
    extra = [0] * data.draw(st.integers(0, 2))
    if rows:
        extra += data.draw(st.lists(st.sampled_from(rows), max_size=8))
    rows = data.draw(st.permutations(rows + extra))
    assert rref_ints(rows) == list_rref(rows)


def test_rref_of_near_reduced_rows():
    # rref_ints returns rows that already are the reduced basis after one
    # check; each way of missing that shape must still be reduced
    rng = random.Random(25)
    for _ in range(300):
        d = rng.randrange(2, 12)
        a = rref_ints(rng.randrange(1 << d) for _ in range(rng.randrange(2, 8)))
        assert rref_ints(a) == a == list_rref(a)
        if len(a) < 2:
            continue
        i, j = sorted(rng.sample(range(len(a)), 2))
        same_span = [a[:i] + [a[j]] + a[i + 1:j] + [a[i]] + a[j + 1:],  # order
                     a[:i] + [a[i] ^ a[j]] + a[i + 1:],  # a sum
                     a + [0], [0] + a, a + [a[j]], a[:j] + a[j + 1:] + [a[j]]]
        for rows in same_span:
            assert rref_ints(rows) == list_rref(rows) == a, rows
        # a row that meets a lower pivot
        rows = a[:i] + [a[i] ^ (1 << (a[j].bit_length() - 1))] + a[i + 1:]
        assert rref_ints(rows) == list_rref(rows), rows


def test_rref_is_canonical():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randrange(1, 7)
        rows = [rng.randrange(1 << d) for _ in range(rng.randrange(5))]
        a = rref_ints(rows)
        rng.shuffle(rows)
        b = rref_ints(rows)
        assert a == b
        assert a == rref_ints(a)
        # RREF shape: decreasing pivots, pivot column cleared elsewhere
        pivots = [r.bit_length() - 1 for r in a]
        assert pivots == sorted(pivots, reverse=True)
        for i, r in enumerate(a):
            for j, s in enumerate(a):
                if i != j:
                    assert not (s >> pivots[i]) & 1


def test_canonicalize():
    z = subspace_from_masks([], 3)
    assert z.dim == 0 and z.ambient_dim == 3
    assert subspace_from_masks([0b101, 0b101], 3).dim == 1
    s = subspace_from_masks([0b100, 0b010, 0b110], 3)
    assert s.rows == (0b100, 0b010)
    assert s == subspace_from_masks([0b110, 0b010], 3)


def test_gaussian_count_frozen():
    assert gaussian_count(3, 1) == 7
    assert gaussian_count(4, 2) == 35
    assert gaussian_count(5, 2) == 155
    assert gaussian_count(6, 3) == 1395
    assert gaussian_count(5, 7) == 0
    assert gaussian_count(0, 0) == 1
    with pytest.raises(InvalidCase):
        gaussian_count(-1, 0)


def test_enumerate_subspaces_order_small():
    subs = enumerate_subspaces(2, 1)
    assert [s.rows for s in subs] == [(0b10,), (0b11,), (0b01,)]
    assert [s.rows for s in enumerate_subspaces(3, 0)] == [()]


def test_enumerate_matches_brute_force():
    for d in range(5):
        for m in range(d + 1):
            subs = enumerate_subspaces(d, m)
            assert len(subs) == gaussian_count(d, m)
            assert {s.rows for s in subs} == brute_force_subspaces(d, m)
            assert len({s.rows for s in subs}) == len(subs)


def test_enumerate_counts_d6():
    for d in range(7):
        for m in range(d + 1):
            assert len(enumerate_subspaces(d, m)) == gaussian_count(d, m)


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        enumerate_subspaces(24, 12)


def test_count_upper_bound():
    assert count_upper_bound(4, 2) == 64
    assert count_upper_bound(3, 0) == 1
    assert count_upper_bound(6, 3) == 4096
    for d in range(9):
        for m in range(d + 1):
            assert gaussian_count(d, m) <= count_upper_bound(d, m)


def test_superspace_count():
    assert superspace_count(3, 1) == 3
    assert superspace_count(5, 4) == 1
    with pytest.raises(NotProperSubspace):
        superspace_count(3, 3)


def contains_subspace(s, w):
    return all(in_span(r, list(s.rows)) for r in w.rows)


def test_enumerate_superspaces_against_filter():
    w = subspace_from_masks([0b100], 3)
    sup = enumerate_superspaces(w)
    assert len(sup) == 3
    planes = [s for s in enumerate_subspaces(3, 2) if contains_subspace(s, w)]
    assert {s.rows for s in sup} == {s.rows for s in planes}
    for d in range(1, 7):
        for m in range(d):
            for w in enumerate_subspaces(d, m)[: 8]:
                sup = enumerate_superspaces(w)
                assert len(sup) == superspace_count(d, m)
                assert len({s.rows for s in sup}) == len(sup)
                for s in sup:
                    assert s.dim == m + 1 and contains_subspace(s, w)


def test_extend_basis():
    assert extend_basis([], 2) == [1, 2]
    assert extend_basis([0b11], 2) == [0b11, 0b01]
    assert extend_basis([0b10, 0b01], 2) == [0b10, 0b01]
    with pytest.raises(DependentInput):
        extend_basis([0b11, 0b11], 2)
    rng = random.Random(3)
    for _ in range(50):
        d = rng.randrange(1, 8)
        k = rng.randrange(d + 1)
        rows = []
        while len(rref_ints(rows)) < k:
            rows.append(rng.randrange(1, 1 << d))
            rows = rref_ints(rows)
        full = extend_basis(rows, d)
        assert len(full) == d
        assert rank_ints(full) == d
        assert full[: len(rows)] == rows


def test_subspace_membership():
    s = subspace_from_masks([0b110, 0b011], 3)
    assert in_span(0b101, list(s.rows))
    assert not in_span(0b100, list(s.rows))
    assert [m for m in range(8) if in_span(m, list(s.rows))] == [0b000, 0b011, 0b101, 0b110]
    assert in_span(0, [])
