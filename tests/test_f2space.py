"""Tests for the F2 linear algebra layer.

The counting formulas are checked against brute-force enumeration, which is
the independent oracle here: gaussian_count values are frozen from exhaustive
subspace listings done by hand or by the enumerator itself at tiny sizes.
The subgroups of check 1, class masks enumerated by translates, are checked
against the RREF rows of every span.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import brute_force_subspaces, list_rref

from symlen.checks import subgroup_layers
from symlen.errors import InvalidInput
from symlen.f2space import (
    count_upper_bound,
    gaussian_count,
    mask_to_str,
    rank_ints,
    rref_ints,
)
from symlen.scheme import subgroup_rows


def test_display_convention():
    assert mask_to_str(1, 2) == "01"
    assert mask_to_str(2, 2) == "10"
    assert mask_to_str(0b110, 3) == "110"


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
    # rows that already are the reduced basis come back as they are, and
    # each way of missing that shape must still be reduced
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


def test_gaussian_count_frozen():
    assert gaussian_count(3, 1) == 7
    assert gaussian_count(4, 2) == 35
    assert gaussian_count(5, 2) == 155
    assert gaussian_count(6, 3) == 1395
    assert gaussian_count(5, 7) == 0
    assert gaussian_count(0, 0) == 1
    with pytest.raises(InvalidInput, match="^gaussian_count needs d >= 0, m >= 0$"):
        gaussian_count(-1, 0)


def test_enumerate_matches_brute_force():
    for d in range(5):
        for m, layer in enumerate(subgroup_layers(d)):
            rows = {tuple(subgroup_rows(w, d)) for w in layer}
            assert len(rows) == len(layer)
            assert rows == brute_force_subspaces(d, m)


def test_enumerate_counts_d6():
    for d in range(7):
        layers = subgroup_layers(d)
        assert [len(layer) for layer in layers] == [gaussian_count(d, m)
                                                    for m in range(d + 1)]


def test_count_upper_bound():
    assert count_upper_bound(4, 2) == 64
    assert count_upper_bound(3, 0) == 1
    assert count_upper_bound(6, 3) == 4096
    for d in range(9):
        for m in range(d + 1):
            assert gaussian_count(d, m) <= count_upper_bound(d, m)


def test_enumerate_superspaces_against_filter():
    # the extensions of W are exactly the one-larger subgroups containing it
    for d in range(7):
        layers = subgroup_layers(d)
        for m, layer in enumerate(layers):
            above = layers[m + 1] if m < d else {}
            for w, ext in layer.items():
                assert ext == {u for u in above if u & w == w}
    # in ambient 3, the planes through the line {000, 100}
    planes = ({0, 1, 4, 5}, {0, 2, 4, 6}, {0, 3, 4, 7})
    assert subgroup_layers(3)[1][0b10001] == {sum(1 << c for c in p) for p in planes}
