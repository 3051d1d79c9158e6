"""Tests for the verification driver behind verify-paper."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from symlen import bounds, builders, checks, cli, decompose
from symlen import scheme as scheme_module
from symlen.milnor import SymbolAlgebra
from symlen.scheme import validate_scheme


def test_determinism_check_starts_cold(monkeypatch):
    cache_sizes = []
    validated = []

    def counted(s):
        validated.append(s.rows)
        return validate_scheme(s)

    def fake_report(max_d, seed, progress=None):
        # labels, and tables, cached when the pass starts
        cache_sizes.append((len(builders._CACHE),
                            sum(not isinstance(key, str) for key in builders._CACHE)))
        # laurent(QC) has the table of F1, so it is the scheme of F1
        for label in ("laurent(F2)", "F1", "laurent(QC)"):
            builders.build_from_text(label)
        return {"max_d": max_d, "seed": seed, "checks": []}

    # a private cache, so that the schemes other tests built stay cached
    monkeypatch.setattr(builders, "_CACHE", {})
    monkeypatch.setattr(checks, "build_report", fake_report)
    monkeypatch.setattr(scheme_module, "validate_scheme", counted)
    report = checks.run_verification(max_d=1)
    assert cache_sizes == [(0, 0), (0, 0)]
    # each pass validates the tables of laurent(F2) and F1 alone: the
    # sub-expressions F2 and QC are tables, not schemes
    assert validated == [(3, 15, 5, 9), (3, 3)] * 2
    # three labels and the two tables they name
    assert len(builders._CACHE) == 5
    assert report["all_passed"] and report["checks"][-1]["repeat_identical"]


def test_verbose_progress_times_each_check(monkeypatch, capsys):
    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[4:6])
    outputs = []
    for flags in ([], ["-v"]):
        assert cli.main(["verify-paper", "--max-d", "1"] + flags) == 0
        captured = capsys.readouterr()
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    lines = captured.err.splitlines()
    assert [line.split()[:4] for line in lines[:3]] == [
        ["check", "5", "small-field-facts", "ok"],
        ["check", "6", "polynomial-lemma", "ok"],
        ["check", "10", "deterministic-output", "ok"],
    ]
    assert all(re.fullmatch(r"\d+\.\d\ds", line.split()[4]) for line in lines[:3])
    assert lines[3].startswith("elapsed ")


def test_invariant_formulas_catch_a_wrong_dm_estimate(monkeypatch):
    # the drop m(2s+m+3)/2 in place of m(2s-m+1)/2 up to m = s, which the
    # bounds module rejects: it would assert d_1 <= -1 on laurent(F2)
    def wrong_drop(profile, m):
        s = bounds.kaplansky_s(profile.pythagoras)
        if m > s:
            return bounds.dm_estimate_for_profile(profile, m)
        sm = bounds._sm_exponent(profile, m)
        return profile.d - m * (2 * s + m + 3) // 2 - sm

    assert checks.check_invariant_formulas(max_d=3)["passed"]
    monkeypatch.setattr(checks, "dm_estimate_for_profile", wrong_drop)
    res = checks.check_invariant_formulas(max_d=3)
    assert not res["passed"]
    assert ["Q2", 1, "d_m estimate"] in [row[:3] for row in res["mismatches"]]
    assert ["laurent(F2)", 1, "d_m estimate", -1, 1] in res["mismatches"]


def test_subspace_counts_report_a_wrong_count(monkeypatch):
    # a formula off by one for (d, m) = (4, 2) is one mismatch, not a crash
    gaussian_count = checks.gaussian_count

    def off_by_one(d, m):
        return gaussian_count(d, m) + ((d, m) == (4, 2))

    assert checks.check_subspace_counts() == {
        "passed": True, "max_dim": 6, "cases": 28, "mismatches": []}
    monkeypatch.setattr(checks, "gaussian_count", off_by_one)
    res = checks.check_subspace_counts()
    assert not res["passed"]
    assert res["mismatches"] == [[4, 2, "count", 35, 36]]


def test_subspace_counts_name_a_subgroup_short_of_extensions(monkeypatch):
    # the classes 2 and 3 move the line {0, 1} as 4 does, so it misses the
    # extension by {2, 3} in every ambient that has the class 4; in F2^2,
    # which has not, the top layer gains a mask outside the group
    translate = checks.translate

    def merged(w, v):
        return translate(w, 4 if w == 0b11 and v in (2, 3) else v)

    monkeypatch.setattr(checks, "translate", merged)
    res = checks.check_subspace_counts()
    assert not res["passed"]
    assert res["mismatches"] == [[2, 2, "count", 2, 1]] + [
        [d, 1, "superspaces", "{%s1}" % ("0" * (d - 1)), (1 << (d - 1)) - 1]
        for d in range(3, 7)]


def test_subspace_counts_report_a_count_above_its_cap(monkeypatch):
    gaussian_count = checks.gaussian_count
    monkeypatch.setattr(checks, "count_upper_bound",
                        lambda d, m: gaussian_count(d, m) - ((d, m) == (5, 1)))
    assert checks.check_subspace_counts()["mismatches"] == [[5, 1, "cap", 31, 30]]


def test_invariant_formulas_report_a_wrong_profile(monkeypatch):
    # Q2 has q = (4, 2) and s_seq = (2, 2, 1): halving s_1 and q_1 breaks
    # the s_m rule at m = 1, the d_m identity from m = 1 on, one degree past
    # stabilization included, and the level bound q_1 >= 4
    q2 = builders.build_from_text("Q2")
    doctored = q2.invariants()._replace(q=(1, 2), s_seq=(2, 1, 1))

    class Doctored:
        def invariants(self):
            return doctored

    monkeypatch.setattr(checks, "standard_library", lambda max_d: [("Q2", Doctored())])
    assert checks.check_invariant_formulas(max_d=3) == {
        "passed": False, "max_d": 3, "schemes": 1, "mismatches": [
            ["Q2", 1, "s_m", 1, 2], ["Q2", 1, "d_m", 0, 3], ["Q2", 2, "d_m", 0, 2],
            ["Q2", 3, "d_m", 0, 2], ["Q2", 1, "q_k", 1, 4]]}


def test_bound_dominance_reports_an_exact_length_above_the_bounds(monkeypatch):
    sl_field = checks.sl_field
    q3 = builders.build_from_text("laurent(F2)")

    def too_long(s, n):
        best, witness = sl_field(s, n)
        return best + 5 * (s is q3), witness

    monkeypatch.setattr(checks, "sl_field", too_long)
    res = checks.check_bound_dominance(max_d=2)
    assert not res["passed"]
    assert res["violations"] == [
        ["laurent(F2)", 2, "bound exponential = 3 is below the exact symbol "
                           "length 6"],
        ["laurent(F2)", 2, "exact 6 > classes 1"],
        ["laurent(F2)", 3, "bound exponential = 1 is below the exact symbol "
                           "length 5"],
        ["laurent(F2)", 3, "exact 5 > classes 0"],
    ]


def test_rigid_oracle_reports_a_wrong_search_length(monkeypatch):
    # on the 3-fold tower k_2 has the pair images 1, 2, 4: x = 5 is the sum
    # of two of them, a matrix of rank 2 and symbol length 1.  The field
    # length is memoized first, so only the check's own read of the layers
    # finds x one layer too far out
    layers = SymbolAlgebra.layers
    checks.sl_field(builders.build_from_text(checks.rigid_tower_expr(3)), 2)

    def one_too_many(self, *args):
        out = layers(self, *args)
        if self.dim == 3:
            assert (out[1] >> 5) & 1 and len(out) == 2
            out = [out[0], out[1] ^ (1 << 5), 1 << 5]
        return out

    monkeypatch.setattr(SymbolAlgebra, "layers", one_too_many)
    assert checks.check_rigid_oracle_agreement(max_k=3) == {
        "passed": False, "max_k": 3, "towers": [[1, 0, 0], [2, 1, 1], [3, 3, 1]],
        "mismatches": [[3, 5, "rank", 2, "bfs", 2]]}


def test_rigid_oracle_reports_a_wrong_field_length(monkeypatch):
    sl_field = checks.sl_field
    monkeypatch.setattr(checks, "sl_field",
                        lambda s, n: (sl_field(s, n)[0] + (s.d == 2), None))
    res = checks.check_rigid_oracle_agreement(max_k=3)
    assert res["towers"] == [[1, 0, 0], [2, 1, 2], [3, 3, 1]]
    assert res["mismatches"] == [[2, "field length", 2, "expected", 1]]


def test_rigid_oracle_reports_pair_images_short_of_a_basis(monkeypatch):
    kn_space = checks.kn_space

    class OneImage:
        """k_2 with every pair image read as that of the first pair."""

        def __init__(self, alg):
            self.alg = alg
            self.dim = alg.dim
            self.layers = alg.layers

        def image_coords(self, slots):
            return self.alg.image_coords((1, 2))

    monkeypatch.setattr(checks, "kn_space", lambda s, n: OneImage(kn_space(s, n)))
    assert checks.check_rigid_oracle_agreement(max_k=4) == {
        "passed": False, "max_k": 4, "towers": [[1, 0, 0], [2, 1, 1]],
        "mismatches": [[3, "pair images are not a basis"],
                       [4, "pair images are not a basis"]]}


def test_polynomial_lemma_reports_a_violation(monkeypatch):
    # at j = 3 the shifted sum doubled: its X^3 coefficient 2/3 becomes 4/3,
    # above the cap 2^3 / (2 * 3!) = 2/3; at j = 2 an X^3 term in the plain
    # sum as well, and the degree is judged first, plain sum before shifted
    poly_binom_sum = checks.poly_binom_sum
    cube = bounds.RationalPolynomial.make([0, 0, 0, 1])

    def violated(j):
        plain, shifted = poly_binom_sum(j)
        if j == 2:
            return plain + cube, shifted * 2
        if j == 3:
            return plain, shifted * 2
        return plain, shifted

    monkeypatch.setattr(checks, "poly_binom_sum", violated)
    assert checks.check_polynomial_lemma(max_j=4) == {
        "passed": False, "max_j": 4, "exempt_edge": 0,
        "checked": [[0, 0, 0], [1, 1, 1], [4, 4, 4]],
        "failures": [[2, "degree 3 exceeds j=2"],
                     [3, "leading coefficient 4/3 exceeds 2/3 for j=3"]]}


def test_polynomial_checks_report_a_wrong_binomial_without_raising(monkeypatch):
    # C(X, 2) doubled reaches check 6 through poly_binom_sum and check 7
    # through bound_sl_polynomial; each reports it in its own payload
    binom_poly = bounds.binom_poly
    monkeypatch.setattr(bounds, "binom_poly",
                        lambda r: binom_poly(r) * (2 if r == 2 else 1))
    lemma = checks.check_polynomial_lemma()
    assert not lemma["passed"]
    assert lemma["checked"] == [[0, 0, 0], [1, 1, 1]]
    assert [j for j, _ in lemma["failures"]] == list(range(2, 11))
    assert lemma["failures"][0] == [2, "leading coefficient 2 exceeds 1 for j=2"]
    corollary = checks.check_constant_profile_corollary()
    assert (corollary["passed"], corollary["cases"]) == (False, 39)
    # degree 2 reads C(X, j) for j <= 1 only, so every failure has n >= 3
    assert corollary["failures"][:4] == [
        [3, 0, "remainder degree 2"], [3, 1, "remainder degree 2"],
        [3, 2, "remainder degree 2"], [3, 3, "poly 5 != direct 4"]]
    assert min(n for n, _, _ in corollary["failures"]) == 3


def test_constant_profile_corollary_reports_a_wrong_direct_bound(monkeypatch):
    split_basis = checks.bound_sl_split_basis
    monkeypatch.setattr(checks, "bound_sl_split_basis",
                        lambda p, n: split_basis(p, n) + ((n, p.d) == (3, 5)))
    res = checks.check_constant_profile_corollary(max_n=3, max_d0=6)
    assert (res["passed"], res["cases"]) == (False, 14)
    assert res["failures"] == [[3, 5, "poly 8 != direct 9"]]


def test_constant_profile_corollary_reports_a_wrong_polynomial(monkeypatch):
    # at (d0, n) = (2, 2) and (4, 3) a cube moved from the leading monomial
    # into the remainder: the same value, of too high a degree; every case
    # is counted, the wrong ones too
    polynomial = checks.bound_sl_polynomial
    cube = bounds.RationalPolynomial.make([0, 0, 0, 1])

    def wrong(d0, n):
        leading, f = polynomial(d0, n)
        if (d0, n) in ((2, 2), (4, 3)):
            return leading - cube, f + cube
        return leading, f

    monkeypatch.setattr(checks, "bound_sl_polynomial", wrong)
    res = checks.check_constant_profile_corollary(max_n=3, max_d0=6)
    assert (res["passed"], res["cases"]) == (False, 14)
    assert res["failures"] == [[2, 2, "remainder degree 3"],
                               [3, 4, "remainder degree 3"]]


def test_decomposition_certificates_report_a_failed_certificate(monkeypatch):
    certify = decompose.certify
    calls = []

    def failed_third(algebra, input_sum, output_sum):
        calls.append(input_sum)
        cert = certify(algebra, input_sum, output_sum)
        return cert._replace(passed=cert.passed and len(calls) != 3)

    monkeypatch.setattr(decompose, "certify", failed_third)
    res = checks.check_decomposition_certificates(runs=5, max_d=2)
    assert not res["passed"]
    assert res["failures"] == [[2, "F1", 3, "certificate failed"]]


def test_decomposition_certificates_report_a_surviving_link(monkeypatch):
    assert checks.check_decomposition_certificates(runs=30)["nonempty"] == 2
    monkeypatch.setattr(checks, "find_linked_pair", lambda s, psum: (0, 1))
    res = checks.check_decomposition_certificates(runs=30)
    assert not res["passed"]
    assert [row[3] for row in res["failures"]] == ["linked pair survived"] * 2


def test_rigid_strata_bijection_reports_a_wrong_count(monkeypatch):
    gaussian_count = checks.gaussian_count
    monkeypatch.setattr(checks, "gaussian_count",
                        lambda d, m: gaussian_count(d, m) + ((d, m) == (3, 2)))
    assert checks.check_rigid_strata_bijection(max_k=3, max_n=3) == {
        "passed": False, "max_k": 3, "max_n": 3, "cases": 21,
        "mismatches": [[3, 2, 0, 7, 8]]}


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("max_d", [4, 5])
def test_report_matches_golden_bytes(max_d):
    # a cold CLI run: the report is a fixed payload, byte for byte
    cmd = [sys.executable, "-m", "symlen", "verify-paper", "--max-d", str(max_d)]
    run = subprocess.run(cmd, capture_output=True)
    assert run.returncode == 0, run.stderr
    golden = GOLDEN / ("verify-paper-max-d-%d.json" % max_d)
    assert run.stdout == golden.read_bytes()
