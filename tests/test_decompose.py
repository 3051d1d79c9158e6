"""Tests for basis chains, Pfister sum rewriting, merging, and certificates."""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symlen
from symlen import decompose
from symlen.builders import build, build_from_text, standard_expressions, standard_library
from symlen.decompose import (
    PfisterSum,
    build_basis_chain,
    certify,
    entry_stratum,
    find_linked_pair,
    make_sum,
    merge_linked,
    rewrite_to_basis,
    run_decomposition,
    strata_counts,
    sum_residue,
)
from symlen.errors import InvalidInput
from oracle_utils import (
    find_linked_pair_by_multisets,
    pfister_expand,
    rref_basis_chain,
    witt_decompose,
)
from symlen.milnor import SymbolAlgebra, kn_space
from symlen.scheme import Scheme


LAURENT6_QC = "laurent(laurent(laurent(laurent(laurent(laurent(QC))))))"
LAURENT5_RC = "laurent(laurent(laurent(laurent(laurent(RC)))))"


# ---------------------------------------------------------------------------
# basis chains

CHAIN_TABLE = [
    ("QC", (), (0,)),
    ("RC", (1,), (1,)),
    ("F1", (1,), (0, 1)),
    ("laurent(F2)", (1, 2), (1, 1, 2)),
    ("laurent(laurent(QC))", (1, 2), (0, 2)),
    ("laurent(laurent(laurent(QC)))", (1, 2, 4), (0, 3)),
    ("laurent(laurent(RC))", (1, 2, 4), (1,)),
    ("product(RC,laurent(F2))", (3, 1, 4), (1, 2, 3)),
]


@pytest.mark.parametrize("expr,basis,ranks", CHAIN_TABLE)
def test_chain_frozen(expr, basis, ranks):
    chain = build_basis_chain(build_from_text(expr))
    assert chain.basis == basis
    assert chain.ranks == ranks


def test_chain_structure():
    for _, s in standard_library(3):
        chain = build_basis_chain(s)
        assert len(chain.basis) == s.d
        prof = s.invariants()
        for m in range(prof.stabilization + 2):
            r = chain.rank(m)
            # the absorbed prefix spans exactly the group generated by
            # the classes represented up to sign at level m
            pm = s.pm_d2m(m)
            assert 1 << r == bin(pm).count("1")
            acc = {0}
            for a in chain.basis[:r]:
                acc |= {a ^ x for x in acc}
            assert acc == {c for c in range(s.size) if (pm >> c) & 1}
            assert len(chain.basis[r:]) == prof.d_m(m)
        assert chain.rank(0) <= chain.rank(1)


def test_chain_coordinates_roundtrip():
    for _, s in standard_library(3):
        chain = build_basis_chain(s)
        for c in range(s.size):
            coords = chain.coordinates[c]
            rebuilt = 0
            for i in range(len(chain.basis)):
                if (coords >> i) & 1:
                    rebuilt ^= chain.basis[i]
            assert rebuilt == c
        assert chain.coordinates[0] == 0
        assert build_basis_chain(s) is chain


def test_chain_matches_rref_oracle():
    # the class-mask span against RREF rows, on each distinct d <= 5 table
    tables = {(s.eps, s.rows): s for _, s in standard_library(5)}
    assert len(tables) == 1255
    for s in tables.values():
        chain = build_basis_chain(s)
        assert (chain.basis, chain.ranks, chain.coordinates) == rref_basis_chain(s)


# ---------------------------------------------------------------------------
# sums and strata

def test_entry_stratum():
    assert entry_stratum((0, 0, 3)) == 2
    assert entry_stratum((1, 2)) == 0
    assert entry_stratum((0,)) == 1
    assert entry_stratum(()) == 0
    assert entry_stratum((0, 0)) == 2


def test_make_sum_normalizes():
    q3 = build_from_text("laurent(F2)")
    psum = make_sum(q3, 2, [(2, 0), (3, 1)])
    assert psum.entries == ((0, 2), (1, 3))
    assert psum.length == 2
    assert strata_counts(psum.entries, 2) == (1, 1, 0)
    assert psum.as_lists() == [[0, 2], [1, 3]]


def test_make_sum_rejects_bad_input():
    q3 = build_from_text("laurent(F2)")
    with pytest.raises(InvalidInput,
                       match=r"^entry \(1, 2, 3\) has 3 slots, expected 2$"):
        make_sum(q3, 2, [(1, 2, 3)])
    # the merge reads its divisors in k_{n-1}, so n >= 2
    for n in (0, 1):
        with pytest.raises(InvalidInput,
                           match="^degree must be at least 2, got %d$" % n):
            make_sum(q3, n, [])
    with pytest.raises(InvalidInput, match="^slot 4 is not one of the 4 classes$"):
        make_sum(q3, 2, [(1, 4)])


def test_image_coords_refuses_slots_outside_the_classes():
    # a slot below 0 or at size is refused with make_sum's message, in
    # either place, through image_coords and through a sum that did not
    # pass make_sum (a slot of -1 read as a list index gave the image of
    # slot 7, and a slot of 8 raised IndexError)
    s = build_from_text("laurent(laurent(RC))")
    k2 = kn_space(s, 2)
    assert s.size == 8
    for a in (-1, s.size):
        message = "slot %r is not one of the 8 classes" % a
        for slots in ((a, 3), (3, a)):
            with pytest.raises(InvalidInput, match=message):
                k2.image_coords(slots)
            with pytest.raises(InvalidInput, match=message):
                sum_residue(k2, PfisterSum(2, ((0, 1), slots)))


# ---------------------------------------------------------------------------
# slot expansion

@pytest.mark.parametrize("expr,slots", [
    ("laurent(laurent(laurent(QC)))", (3, 4)),
    ("laurent(F2)", (3, 2)),
    ("product(RC,laurent(F2))", (7, 5)),
    ("product(RC,laurent(F2))", (2, 6)),
])
def test_expand_slot_preserves_residue(expr, slots):
    # the rewrite splits a composite slot into basis factors plus the
    # eps-corrected remainder; the symbol algebra residue must not move
    s = build_from_text(expr)
    k2 = kn_space(s, 2)
    whole = make_sum(s, 2, [slots])
    parts = rewrite_to_basis(k2, whole)
    assert sum_residue(k2, whole).coords == sum_residue(k2, parts).coords


# ---------------------------------------------------------------------------
# rewriting

def test_rewrite_rigid_splits_composite_slot():
    r3 = build_from_text("laurent(laurent(laurent(QC)))")
    out = rewrite_to_basis(kn_space(r3, 2), make_sum(r3, 2, [(3, 4)]))
    assert out.entries == ((1, 4), (2, 4))


def test_rewrite_maximizes_leading_ones():
    # <<ut, ut>> is anisotropic and isometric to the unique four
    # dimensional anisotropic form <<1, t>>
    q3 = build_from_text("laurent(F2)")
    out = rewrite_to_basis(kn_space(q3, 2), make_sum(q3, 2, [(3, 3)]))
    assert out.entries == ((0, 2),)


def test_rewrite_drops_hyperbolic_entries():
    q3 = build_from_text("laurent(F2)")
    assert rewrite_to_basis(kn_space(q3, 2), make_sum(q3, 2, [(1, 2)])).entries == ()


def test_rewrite_cancels_identical_pair():
    rc = build_from_text("RC")
    out = rewrite_to_basis(kn_space(rc, 2), make_sum(rc, 2, [(0, 0), (0, 0)]))
    assert out.entries == ()


def test_rewrite_keeps_settled_entries():
    rr = build_from_text("laurent(laurent(RC))")
    out = rewrite_to_basis(kn_space(rr, 2), make_sum(rr, 2, [(0, 2), (2, 4)]))
    assert out.entries == ((0, 2), (2, 4))


def test_rewrite_projects_each_unsettled_entry_once():
    # <<3, 3>> is in stratum 1 with the least tuple (0, 3), and <<2, 4>> in
    # stratum 0.  Each tuple is projected once per call: the unsettled
    # entries (3, 3), its parity slot (0, 0) and (2, 4), whose least tuples
    # are read off the class map, and the final entry (0, 2); the final
    # entries (0, 0) and (2, 4) reuse their projections as unsettled entries
    cached = build_from_text("laurent(laurent(RC))")
    alg = kn_space(Scheme(cached.d, cached.eps, cached.rows), 2)
    image_coords = alg.image_coords
    calls = []

    def recorded(slots):
        calls.append(slots)
        return image_coords(slots)

    alg.image_coords = recorded
    out = rewrite_to_basis(alg, make_sum(alg.scheme, 2, [(2, 4), (3, 3)]))
    assert out.entries == ((0, 0), (0, 2), (2, 4))
    assert calls == [(3, 3), (0, 0), (0, 2), (2, 4)]


def test_isotropic_decomposition_walks_no_degree(monkeypatch):
    # entries of image 0 read no class map, so a cold decomposition of a
    # sum of them walks no degree of the chain it builds
    walk = SymbolAlgebra._walk
    walked = []

    def counted(self, links):
        walked.append(self)
        return walk(self, links)

    monkeypatch.setattr(SymbolAlgebra, "_walk", counted)
    cached = build_from_text("laurent(F2)")
    s = Scheme(cached.d, cached.eps, cached.rows)
    for n, entries in ((2, [(1, 2), (2, 1), (1, 2)]), (3, [(1, 2, 3), (0, 1, 2)])):
        final, cert = run_decomposition(s, make_sum(s, n, entries))
        assert final.entries == () and cert.passed, n
    assert [alg.n for alg in s._kn] == [1, 2, 3]
    assert walked == []


def test_rewrite_empty_sum():
    q3 = build_from_text("laurent(F2)")
    assert rewrite_to_basis(kn_space(q3, 2), make_sum(q3, 2, [])).entries == ()


def test_rewrite_does_not_depend_on_earlier_sums():
    # the stratum 0 witness of a class is chosen within one call; a class
    # seen in an earlier sum on the same scheme must not carry its slots over
    cached = build_from_text("product(F1,product(RC,laurent(laurent(QC))))")
    s = Scheme(cached.d, cached.eps, cached.rows)
    earlier = make_sum(s, 2, [(13, 7), (14, 5), (13, 4), (15, 7), (0, 8),
                              (12, 5), (10, 6)])
    run_decomposition(s, earlier)
    final, cert = run_decomposition(s, make_sum(s, 2, [(13, 8), (14, 4)]))
    assert final.entries == ((1, 8),)
    assert cert.passed


def _assert_settled_shape(scheme, chain, psum):
    seen = set()
    for slots in psum.entries:
        assert slots not in seen
        seen.add(slots)
        m = entry_stratum(slots)
        tail = slots[m:]
        assert all(a == 0 for a in slots[:m])
        assert tail == tuple(sorted(tail))
        assert len(set(tail)) == len(tail)
        free = set(chain.basis[chain.rank(m):])
        assert set(tail) <= free
        assert witt_decompose(scheme, pfister_expand(slots)).index == 0


def test_rewrite_random_sums_settle():
    rng = random.Random(11)
    for _, s in standard_library(2):
        chain = build_basis_chain(s)
        for n in (2, 3):
            for k in range(4):
                entries = [
                    tuple(rng.randrange(s.size) for _ in range(n))
                    for _ in range(k)
                ]
                psum = make_sum(s, n, entries)
                kn = kn_space(s, n)
                out = rewrite_to_basis(kn, psum)
                assert sum_residue(kn, psum).coords == sum_residue(kn, out).coords
                _assert_settled_shape(s, chain, out)


# ---------------------------------------------------------------------------
# linkage merging

def test_merge_common_slot_pair():
    r4 = build_from_text("laurent(laurent(laurent(laurent(QC))))")
    out = merge_linked(kn_space(r4, 2), make_sum(r4, 2, [(1, 2), (1, 4)]))
    assert out.entries == ((1, 6),)


def test_merge_cross_stratum_pair():
    # <<1, s>> and <<s, t>> share the divisor <<s>>; the merged entry
    # carries the mandatory -1 twist on the free slot
    rr = build_from_text("laurent(laurent(RC))")
    psum = make_sum(rr, 2, [(0, 2), (2, 4)])
    assert find_linked_pair(rr, psum) == (0, 1, (2,), 0, 4)
    k2 = kn_space(rr, 2)
    out = merge_linked(k2, psum)
    assert out.entries == ((2, 5),)
    assert sum_residue(k2, psum).coords == sum_residue(k2, out).coords


def test_merge_identical_pair_cancels():
    rc = build_from_text("RC")
    out = merge_linked(kn_space(rc, 2), make_sum(rc, 2, [(0, 0), (0, 0)]))
    assert out.entries == ()


def test_merge_leaves_unlinked_pair():
    r4 = build_from_text("laurent(laurent(laurent(laurent(QC))))")
    psum = make_sum(r4, 2, [(1, 2), (4, 8)])
    assert find_linked_pair(r4, psum) is None
    assert merge_linked(kn_space(r4, 2), psum).entries == ((1, 2), (4, 8))


def test_merge_builds_no_divisor_map_below_two_nonzero_entries():
    # no pair of nonzero entries, nothing to link: the class map of k_2 is
    # left unbuilt; (1, 2, 4) has the slot -1 and image 0
    cached = build_from_text("laurent(laurent(RC))")
    for entries in ([], [(0, 2, 4)], [(1, 2, 4)], [(1, 2, 4), (0, 0, 2), (1, 1, 4)]):
        s = Scheme(cached.d, cached.eps, cached.rows)
        k3 = kn_space(s, 3)
        psum = make_sum(s, 3, entries)
        assert sum(map(bool, map(k3.image_coords, psum.entries))) <= 1
        assert merge_linked(k3, psum) == psum
        assert kn_space(s, 2)._classes is None, entries
    # two nonzero entries build it
    s = Scheme(cached.d, cached.eps, cached.rows)
    merge_linked(kn_space(s, 3), make_sum(s, 3, [(0, 2, 4), (0, 0, 2)]))
    assert kn_space(s, 2)._classes is not None


def test_find_linked_pair_at_d6_degree_four():
    # C(66, 3) = 45,760 divisor multisets; the class map of k_3 is searched
    r6 = build_from_text(LAURENT6_QC)
    psum = make_sum(r6, 4, [(1, 2, 4, 8), (1, 2, 4, 16)])
    hit = find_linked_pair(r6, psum)
    assert hit == (0, 1, (1, 2, 4), 8, 16)
    assert hit == find_linked_pair_by_multisets(r6, psum)
    final, cert = run_decomposition(r6, psum)
    assert cert.passed
    assert find_linked_pair(r6, final) is None


def random_sum(rng, s, n):
    """A sum of 2 to 5 random entries, some of them linked on purpose."""
    entries = [tuple(rng.randrange(s.size) for _ in range(n))
               for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.5:
        # the last entry shares its first n - 1 slots with an earlier one
        entries[-1] = rng.choice(entries[:-1])[:-1] + (rng.randrange(s.size),)
    rng.shuffle(entries)
    return make_sum(s, n, entries)


def test_linked_pair_matches_multiset_oracle():
    # the same pair, divisor and cofactors as the walk over all slot
    # multisets: on the d <= 4 library at n = 2, 3, then at d = 6
    rng = random.Random(1401)
    cases = [(label, s, n, 4) for label, s in standard_library(4) for n in (2, 3)]
    for expr in (LAURENT6_QC, LAURENT5_RC):
        s = build_from_text(expr)
        cases += [(expr, s, 3, 6), (expr, s, 4, 1)]
    hits = 0
    for label, s, n, count in cases:
        for _ in range(count):
            psum = random_sum(rng, s, n)
            hit = find_linked_pair(s, psum)
            assert hit == find_linked_pair_by_multisets(s, psum), (label, psum)
            hits += hit is not None
    assert hits > 1000, hits


def test_d6_degree_five_sum_certifies():
    r6 = build_from_text(LAURENT6_QC)
    psum = make_sum(r6, 5, [(1, 2, 4, 8, 16), (3, 5, 9, 17, 33)])
    final, cert = run_decomposition(r6, psum, merge=False)
    assert cert.passed and final.length == 5
    # the merge searches the class map of k_4, not C(67, 4) multisets
    final, cert = run_decomposition(r6, psum)
    assert cert.passed
    assert find_linked_pair(r6, final) is None


def test_decomposition_fetches_kn_once(monkeypatch):
    # every stage works in the one k_n fetched under the caller's cap
    r3 = build_from_text("laurent(laurent(laurent(QC)))")
    fetched = []

    def counted(*args):
        fetched.append(args)
        return kn_space(*args)

    monkeypatch.setattr(decompose, "kn_space", counted)
    psum = make_sum(r3, 2, [(3, 4), (5, 6), (7, 1), (3, 2)])
    final, cert = run_decomposition(r3, psum, tensor_cap=64)
    assert cert.passed and final.length < psum.length
    assert fetched == [(r3, 2, 64)]


def test_large_degree_sum_certifies():
    # every step is linear in n: the strata are counted once, and the
    # divisors are the one class of k_{n-1}
    rc = build_from_text("RC")
    n = 4000
    psum = make_sum(rc, n, [(0,) * n, (0,) * (n - 1) + (1,), (0,) * n])
    final, cert = run_decomposition(rc, psum)
    assert final.entries == ()
    assert cert.passed and cert.residue_coords == 0
    assert cert.strata_input[n] == 2 and cert.strata_input[n - 1] == 1


def test_large_degree_memory_is_linear_in_n():
    # each degree below n keeps two ints per class, not its least tuple:
    # with an n-slot tuple kept per degree this run peaked near 160 MB
    script = textwrap.dedent("""
        import resource
        from symlen.builders import build_from_text
        from symlen.decompose import make_sum, run_decomposition
        n = 6000
        rc = build_from_text("RC")
        final, cert = run_decomposition(rc, make_sum(rc, n, [(0,) * n]))
        assert cert.passed and final.entries == ((0,) * n,)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    # ru_maxrss is kept across exec, so the run is started from a small
    # process: a child of this one would report at least this one's peak
    launch = ("import subprocess, sys; "
              "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)")
    src = str(Path(symlen.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", launch, script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    # ru_maxrss is in KiB on Linux
    assert int(run.stdout) < 60 * 1024


# ---------------------------------------------------------------------------
# certificates

def test_certificate_passes_and_serializes():
    r3 = build_from_text("laurent(laurent(laurent(QC)))")
    psum = make_sum(r3, 2, [(3, 4)])
    final, cert = run_decomposition(r3, psum, merge=False)
    assert final.entries == ((1, 4), (2, 4))
    assert cert.passed
    assert cert.residues_equal and cert.counts_ok and cert.length_ok
    assert cert.strata_output == (2, 0, 0)
    data = cert.as_dict()
    assert set(data) == {
        "degree", "input", "output", "residue", "residues_equal",
        "strata", "counts_ok", "bounds", "length_ok", "passed",
    }
    json.dumps(data)


def test_merge_can_shorten_past_the_basis_form():
    # the two basis entries produced by the rigid split are themselves
    # linked through their common slot, so the merge collapses them back
    # into a single entry of length 1
    r3 = build_from_text("laurent(laurent(laurent(QC)))")
    psum = make_sum(r3, 2, [(3, 4)])
    final, cert = run_decomposition(r3, psum, merge=True)
    assert final.entries == ((3, 4),)
    assert final.length == 1
    assert cert.passed


def test_certify_detects_corruption():
    r3 = build_from_text("laurent(laurent(laurent(QC)))")
    psum = make_sum(r3, 2, [(3, 4)])
    bad = make_sum(r3, 2, [(1, 4)])
    cert = certify(kn_space(r3, 2), psum, bad)
    assert not cert.residues_equal
    assert not cert.passed


def test_certify_degree_mismatch():
    r3 = build_from_text("laurent(laurent(laurent(QC)))")
    with pytest.raises(InvalidInput, match=r"^certificate degree 3 does not "
                       r"match the sums \(2, 2\)$"):
        certify(kn_space(r3, 3), make_sum(r3, 2, [(3, 4)]), make_sum(r3, 2, []))


def test_seeded_decompositions_certify():
    rng = random.Random(2024)
    family = standard_library(3)
    checked = 0
    nonempty = 0
    for _ in range(60):
        _, s = family[rng.randrange(len(family))]
        n = rng.choice((2, 3))
        k = rng.randrange(4)
        entries = [
            tuple(rng.randrange(s.size) for _ in range(n))
            for _ in range(k)
        ]
        psum = make_sum(s, n, entries)
        final, cert = run_decomposition(s, psum)
        assert cert.passed
        if final.entries:
            nonempty += 1
            hit = find_linked_pair(s, final)
            assert hit is None
        checked += 1
    assert checked == 60
    assert nonempty >= 5


# ---------------------------------------------------------------------------
# the whole pipeline on random sums


@st.composite
def pfister_sums(draw):
    """A d <= 4 library scheme, a degree and a few random sums over it."""
    s = build(draw(st.sampled_from(standard_expressions(4))))
    n = draw(st.sampled_from((2, 3)))
    entry = st.tuples(*[st.integers(0, s.size - 1)] * n)
    sums = draw(st.lists(st.lists(entry, max_size=6), min_size=4, max_size=4))
    return s, [make_sum(s, n, entries) for entries in sums]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pfister_sums())
def test_random_sums_certify_and_do_not_depend_on_order(case):
    # d = 4 is included because on the d <= 3 library every stratum 0 class
    # rewrites alike from each of its members, so memo order cannot show;
    # the rewrite is compared too, as the merge often hides a difference
    s, sums = case
    warm = Scheme(s.d, s.eps, s.rows)
    for psum in sums:
        final, cert = run_decomposition(warm, psum)
        assert cert.passed
        assert find_linked_pair(warm, final) is None
        # each sum again on a scheme with cold memos
        cold = Scheme(s.d, s.eps, s.rows)
        n = psum.degree
        assert (rewrite_to_basis(kn_space(cold, n), psum)
                == rewrite_to_basis(kn_space(warm, n), psum))
        assert run_decomposition(cold, psum) == (final, cert)
