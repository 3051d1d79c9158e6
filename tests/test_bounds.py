"""Tests for the invariant-based symbol length bounds."""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import exponential_bound_by_cases
from symlen import bounds, builders, cli
from symlen.bounds import (
    BOUND_NOTES,
    RationalPolynomial,
    binom_poly,
    bound_sl_binomial,
    bound_sl_exponential,
    bound_sl_linked,
    bound_sl_paired,
    bound_sl_polynomial,
    bound_sl_split_basis,
    bound_strata_count,
    dm_estimate_for_profile,
    floor_pow2_sum,
    kaplansky_s,
    make_bound_report,
    poly_affine,
    poly_binom_sum,
    profile_bounds,
    split_basis_term,
)
from symlen.builders import build_from_text, standard_library
from symlen.decompose import make_sum, run_decomposition, strata_counts
from symlen.errors import InvalidInput, VerificationFailure
from symlen.milnor import sl_field
from symlen.scheme import Scheme, pfister_classes


class FakeProfile:
    """Minimal profile stand-in for exercising bounds on synthetic data."""

    def __init__(self, d, is_real, level_exponent, pythagoras, d_seq):
        self.d = d
        self.is_real = is_real
        self.level_exponent = level_exponent
        self.pythagoras = pythagoras
        self._d_seq = d_seq

    def d_m(self, m):
        return self._d_seq[min(m, len(self._d_seq) - 1)]


def profile_of(label):
    return build_from_text(label).invariants()


def test_kaplansky_s_frozen():
    assert [kaplansky_s(p) for p in (1, 2, 3, 4, 5, 8)] == [0, 1, 1, 2, 2, 3]
    with pytest.raises(InvalidInput,
                       match="^pythagoras number must be positive, got 0$"):
        kaplansky_s(0)


def test_dm_estimate_cases_frozen():
    def estimate(d, is_real, level_exponent, pythagoras, m):
        profile = FakeProfile(d, is_real, level_exponent, pythagoras, (d,))
        return dm_estimate_for_profile(profile, m)

    # below the stationary range, with the level-aware two-element term
    assert estimate(20, False, 3, 8, 1) == 16
    assert estimate(20, True, None, 8, 1) == 16
    # at the stationary index
    assert estimate(2, False, 1, 2, 1) == 1
    assert estimate(2, True, None, 2, 1) == 0
    # nonreal beyond the level is exactly zero
    assert estimate(5, False, 1, 2, 2) == 0
    # real beyond the stationary index, by pythagoras parity
    assert estimate(3, True, None, 2, 2) == 1
    assert estimate(3, True, None, 3, 2) == 0


def test_dm_estimate_dominates_family():
    for label, s in standard_library(3):
        prof = s.invariants()
        for m in range(5):
            assert dm_estimate_for_profile(prof, m) >= prof.d_m(m), (label, m)


def test_dm_estimate_tight_cases():
    q3 = profile_of("laurent(F2)")
    assert [dm_estimate_for_profile(q3, m) for m in range(3)] == [1, 1, 0]
    assert q3.d_seq == (1, 1, 0)
    mixed = profile_of("product(RC,laurent(F2))")
    assert dm_estimate_for_profile(mixed, 2) == mixed.d_m(2) == 0


def test_strata_count_frozen_and_dominant():
    q3 = build_from_text("laurent(F2)")
    prof = q3.invariants()
    # the m = 2 stratum dies at level two: too many slots equal to eps
    assert [bound_strata_count(prof, 2, m) for m in range(3)] == [4, 2, 0]
    assert bound_strata_count(prof, 3, 2) == 0
    for label, s in standard_library(3):
        p = s.invariants()
        for n in (2, 3):
            if s.size ** n > 1 << 10:
                continue
            strata = strata_counts(pfister_classes(s, n).values(), n)
            for m, count in enumerate(strata):
                assert bound_strata_count(p, n, m) >= count, (label, n, m)


def test_exponential_frozen():
    assert bound_sl_exponential(profile_of("laurent(F2)"), 2) == 3
    assert bound_sl_exponential(profile_of("Q2"), 2) == 6
    assert bound_sl_exponential(profile_of("RC"), 2) == 2
    assert bound_sl_exponential(profile_of("QC"), 2) == 0
    rigid3 = "laurent(laurent(laurent(QC)))"
    assert bound_sl_exponential(profile_of(rigid3), 2) == 20
    assert bound_sl_exponential(profile_of("laurent(%s)" % rigid3), 2) == 72


def test_exponential_synthetic_cases():
    # s > n: three stratum caps, all below the stationary range
    big = FakeProfile(10, False, 3, 8, (10,))
    assert bound_sl_exponential(big, 2) == 65536 + 64 + 1
    # real schemes distinguish pythagoras a power of two or not at m > s
    power = FakeProfile(6, True, None, 2, (6,))
    off = FakeProfile(6, True, None, 3, (6,))
    assert bound_sl_exponential(power, 3) == 512 + 64 + 16 + 1
    assert bound_sl_exponential(off, 3) == 512 + 64 + 8 + 1


def synthetic_profiles():
    """Real profiles, and nonreal ones at each level 2^sigma with
    2^sigma <= p <= 2^sigma + 1, for d 0..13 and p 1..39."""
    for d in range(14):
        for p in range(1, 40):
            yield FakeProfile(d, True, None, p, (d,))
            for sigma in range(p.bit_length()):
                if (1 << sigma) <= p <= (1 << sigma) + 1:
                    yield FakeProfile(d, False, sigma, p, (d,))


def test_exponential_matches_case_oracle():
    profiles = list(synthetic_profiles())
    assert len(profiles) == 714
    for prof in profiles:
        for n in range(1, 12):
            assert (bound_sl_exponential(prof, n)
                    == exponential_bound_by_cases(prof, n)), (vars(prof), n)
    for label, s in standard_library(4):
        prof = s.invariants()
        for n in range(1, 9):
            assert (bound_sl_exponential(prof, n)
                    == exponential_bound_by_cases(prof, n)), (label, n)
    rc = profile_of("RC")
    assert bound_sl_exponential(rc, 4000) == exponential_bound_by_cases(rc, 4000)


def test_linked_frozen():
    assert bound_sl_linked(profile_of("laurent(F2)"), 2) == 2
    assert bound_sl_linked(profile_of("laurent(F2)"), 2, True) == 2
    assert bound_sl_linked(profile_of("RC"), 2) == 3
    rigid4 = "laurent(laurent(laurent(laurent(QC))))"
    assert bound_sl_linked(profile_of(rigid4), 2) == 22
    assert bound_sl_linked(profile_of(rigid4), 2, True) == 6


def test_binomial_paired_split_frozen():
    table = [
        ("laurent(F2)", 2, 1, 1, 2),
        ("Q2", 2, 2, 3, 2),
        ("laurent(laurent(laurent(QC)))", 2, 3, 3, 2),
        ("laurent(laurent(laurent(laurent(QC))))", 2, 6, 4, 2),
        ("RC", 2, 1, 1, 1),
        ("RC", 3, 1, 1, 1),
    ]
    for label, n, b, pr, sp in table:
        prof = profile_of(label)
        assert bound_sl_binomial(prof, n) == b, label
        assert bound_sl_paired(prof, n) == pr, label
        assert bound_sl_split_basis(prof, n) == sp, label


def test_paired_covers_all_ones_stratum():
    # degree 2 over a real closed base: the only anisotropic form has all
    # slots equal to one, and the bound must still count it
    prof = profile_of("RC")
    sl, _ = sl_field(build_from_text("RC"), 2)
    assert sl == 1
    assert bound_sl_paired(prof, 2) == 1


def test_all_bounds_dominate_exact_sl():
    for _, s in standard_library(3):
        for n in (2, 3):
            sl, _ = sl_field(s, n)
            report = make_bound_report(s, n, exact_sl=sl)
            report.check_dominance()


def test_report_contents_and_failure():
    s = build_from_text("laurent(F2)")
    report = make_bound_report(s, 2, exact_sl=1)
    data = report.as_dict()
    assert data["bounds"]["binomial"] == 1
    assert data["tightness"]["split-basis"] == "2"
    assert data["bounds"]["paired"] == 1
    doctored = make_bound_report(s, 2, exact_sl=99)
    with pytest.raises(VerificationFailure):
        doctored.check_dominance()


def test_quotient_floor_base_comparison():
    assert ("base-change comparison for the linked cap holds for "
            "one-dimensional cofactors only") in BOUND_NOTES

    def linked_cap(base, k):
        # 2^((k+1)(b-k)) / (2^(b-k) - 1) over a base of dimension b, for
        # cofactor dimension k, as an exact rational
        return Fraction(1 << ((k + 1) * (base - k)), (1 << (base - k)) - 1)

    # one-dimensional cofactors: the full-group cap never beats the
    # reduced-base cap, matching the exact ratio identity
    for d in range(1, 13):
        for d_m in range(1, d + 1):
            full, reduced = linked_cap(d, 0), linked_cap(d_m, 0)
            assert full <= reduced
            ratio = Fraction((1 << d) - (1 << (d - d_m)), (1 << d) - 1)
            assert full / reduced == ratio
    # the comparison does not extend to larger cofactors
    assert linked_cap(4, 1) > linked_cap(3, 1)


def test_rational_polynomial_basics():
    p = RationalPolynomial.make([1, 0, Fraction(1, 2), 0])
    assert p.coeffs == (Fraction(1), Fraction(0), Fraction(1, 2))
    assert p.degree == 2 and p.coefficient(p.degree) == Fraction(1, 2)
    assert p(2) == 3
    q = RationalPolynomial.make([0, 1])
    assert (p + q)(3) == p(3) + 3
    assert (p * q).coeffs == (Fraction(0),) + p.coeffs
    assert (2 * q).coeffs == (Fraction(0), Fraction(2))
    assert binom_poly(3).coeffs == (0, Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6))
    assert binom_poly(3)(5) == math.comb(5, 3)
    shifted = poly_affine(binom_poly(2), 1, 1)
    assert all(shifted(k) == math.comb(k + 1, 2) for k in range(8))


def test_poly_binom_sum_frozen():
    plain0, shifted0 = poly_binom_sum(0)
    assert plain0.coeffs == (1,) and shifted0.coeffs == (1,)
    plain2, shifted2 = poly_binom_sum(2)
    assert plain2.coeffs == (0, -1, 1)  # 2 C(X,2) = X^2 - X
    assert shifted2.coeffs == (0, 0, 1)  # C(X+1,2) + C(X,2) = X^2
    with pytest.raises(InvalidInput, match="^need j >= 0, got j=-1$"):
        poly_binom_sum(-1)


def test_poly_binom_sum_claims_hold_through_ten():
    for j in range(11):
        plain, shifted = poly_binom_sum(j)
        cap = Fraction(2 ** j, 2 * math.factorial(j))
        for poly in (plain, shifted):
            assert poly.degree == (j if j >= 1 else 0)
            if j >= 1:
                assert poly.coefficient(j) <= cap
        # the degenerate sum is the constant 1, above the half cap
        if j == 0:
            assert plain.coefficient(0) == 1 > cap


def test_poly_binom_sum_matches_integer_sums():
    for j in range(8):
        plain, shifted = poly_binom_sum(j)
        for k in range(13):
            direct = sum(
                math.comb(k, 2 * r) * math.comb(k, j - 2 * r)
                for r in range(j // 2 + 1)
            )
            direct_shift = sum(
                math.comb(k, 2 * r) * math.comb(k + 1, j - 2 * r)
                for r in range(j // 2 + 1)
            )
            assert plain(k) == direct
            assert shifted(k) == direct_shift


def test_polynomial_bound_frozen():
    leading, f = bound_sl_polynomial(4, 2)
    assert leading.coeffs == (0, Fraction(1, 2))
    assert f.coeffs == (1,)
    _, f_odd = bound_sl_polynomial(5, 2)
    assert f_odd.coeffs == (Fraction(3, 2),)
    _, f3 = bound_sl_polynomial(4, 3)
    assert f3.coeffs == (1,)
    _, f3_odd = bound_sl_polynomial(5, 3)
    assert f3_odd.coeffs == (Fraction(7, 4),)
    with pytest.raises(InvalidInput,
                       match="^polynomial bound needs degree at least 2, got 1$"):
        bound_sl_polynomial(4, 1)
    with pytest.raises(InvalidInput, match="^d0 must be nonnegative, got -1$"):
        bound_sl_polynomial(-1, 2)


def test_polynomial_bound_matches_split_basis():
    for n in range(2, 5):
        for d0 in range(13):
            leading, f = bound_sl_polynomial(d0, n)
            value = leading(d0) + f(d0)
            profile = FakeProfile(d0, True, None, 1, (d0,))
            assert value == bound_sl_split_basis(profile, n), (n, d0)
            assert f.degree <= n - 2


def test_split_basis_term_direct():
    assert split_basis_term(4, 1) == 2
    assert split_basis_term(5, 2) == sum(
        math.comb(2, 2 * r) * math.comb(3, 2 - 2 * r) for r in range(2)
    )
    assert split_basis_term(0, 0) == 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-12, 6), max_size=12))
def test_floor_pow2_sum_matches_fractions(exponents):
    exact = sum(Fraction(2) ** e for e in exponents)
    assert floor_pow2_sum(exponents) == math.floor(exact)


def test_split_basis_term_matches_unclipped_sum():
    for d_m in range(13):
        for j in range(-2, 30):
            assert split_basis_term(d_m, j) == sum(
                math.comb(d_m // 2, 2 * r) * math.comb((d_m + 1) // 2, j - 2 * r)
                for r in range(j // 2 + 1) if j - 2 * r >= 0
            )


def test_real_bounds_at_large_degree():
    # the exponential terms reach 2^-(n^2 / 4): floored without fractions
    rc = profile_of("RC")
    n = 4000
    assert bound_sl_exponential(rc, n) == 2
    assert bound_sl_split_basis(rc, n) == 1
    assert bound_strata_count(rc, n, 0) == 0


# ---------------------------------------------------------------------------
# the bound record memoized per (profile, n)


BOUND_FUNCTIONS = ("bound_sl_exponential", "bound_sl_linked", "bound_sl_binomial",
                   "bound_sl_paired", "bound_sl_split_basis", "bound_strata_count")


def direct_bounds(profile, n):
    """The six report values evaluated on the profile, with no memo."""
    return {
        "exponential": bound_sl_exponential(profile, n),
        "linked-power": bound_sl_linked(profile, n),
        "linked-exact": bound_sl_linked(profile, n, True),
        "binomial": bound_sl_binomial(profile, n),
        "paired": bound_sl_paired(profile, n),
        "split-basis": bound_sl_split_basis(profile, n),
    }


def test_memo_never_changes_an_answer(monkeypatch, tmp_path):
    # every d <= 4 label at n = 2, 3, a raw table with a library profile,
    # and RC at n = 4000: with the memo warm, the report equals the six
    # bounds evaluated directly, and the report and a certificate equal
    # those of a cold Scheme in an empty cache
    monkeypatch.setattr(builders, "_CACHE", {})
    rng = random.Random(30)
    cases = [(label, s, n, [[rng.randrange(s.size) for _ in range(n)]
                            for _ in range(rng.randint(1, 6))])
             for label, s in standard_library(4) for n in (2, 3)]
    raw = build_from_text("laurent(Q2)")
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "name": "raw", "d": raw.d, "minus_one": raw.eps,
        "rows": [format(row, "b") for row in raw.rows],
    }))
    cases.append(cli.load_table_file(str(path)) + (3, [[1, 2, 4], [3, 5, 9]]))
    n = 4000
    cases.append(("RC", build_from_text("RC"), n,
                  [(0,) * n, (0,) * (n - 1) + (1,), (0,) * n]))
    for _, s, n, _ in cases:
        profile_bounds(s.invariants(), n)
    warm_cache = builders._CACHE
    for label, s, n, entries in cases:
        profile = s.invariants()
        assert (profile, n) in warm_cache
        exact = rng.choice((0, 1, 2))
        report = make_bound_report(s, n, exact).as_dict()
        assert report["exact_sl"] == exact, (label, n)
        direct = direct_bounds(profile, n)
        assert report["bounds"] == direct, (label, n)
        cert = run_decomposition(s, make_sum(s, n, entries))[1].as_dict()
        assert cert["bounds"] == {"binomial": direct["binomial"],
                                  "linked": direct["linked-power"]}
        assert cert["strata"]["caps"] == [bound_strata_count(profile, n, m)
                                          for m in range(n + 1)]
        cold = Scheme(s.d, s.eps, s.rows)
        monkeypatch.setattr(builders, "_CACHE", {})
        assert make_bound_report(cold, n, exact).as_dict() == report, (label, n)
        builders._CACHE.clear()
        cold_cert = run_decomposition(cold, make_sum(cold, n, entries))[1]
        assert cold_cert.as_dict() == cert, (label, n)
        monkeypatch.setattr(builders, "_CACHE", warm_cache)


def test_bounds_evaluated_once_per_profile_and_degree(monkeypatch):
    calls = Counter()

    def counted(name, func):
        def wrapper(profile, n, *rest):
            calls[(name, profile, n) + rest] += 1
            return func(profile, n, *rest)
        return wrapper

    for name in BOUND_FUNCTIONS:
        monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
    monkeypatch.setattr(builders, "_CACHE", {})
    library = standard_library(4)
    pairs = [(s, n) for _, s in library for n in (2, 3)]
    for s, n in pairs:
        profile_bounds(s.invariants(), n)
    keys = {(s.invariants(), n) for s, n in pairs}
    assert (len(pairs), len(keys)) == (1100, 112)
    # one call of each function per key: bound_sl_linked once per
    # numerator, bound_strata_count once per stratum m = 0..n
    assert set(calls.values()) == {1}
    per_key = Counter(key[1:3] for key in calls)
    assert per_key == {(profile, n): 6 + n + 1 for profile, n in keys}
    # a certificate reads the same record
    _, s = library[-1]
    run_decomposition(s, make_sum(s, 2, [(1, 2), (3, 5)]))
    assert set(calls.values()) == {1}
    # clearing the one cache clears the memo
    builders._CACHE.clear()
    profile_bounds(s.invariants(), 2)
    assert calls[("bound_sl_binomial", s.invariants(), 2)] == 2
    assert calls[("bound_strata_count", s.invariants(), 2, 2)] == 2
