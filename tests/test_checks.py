"""Tests for the verification driver behind verify-paper."""

import re

from symlen import bounds, builders, checks, cli
from symlen import scheme as scheme_module
from symlen.scheme import validate_scheme


def test_determinism_check_starts_cold(monkeypatch):
    cache_sizes = []
    validated = []

    def counted(s):
        validated.append(s.name)
        return validate_scheme(s)

    def fake_report(max_d, seed, progress=None):
        # labels, and tables, cached when the pass starts
        cache_sizes.append((len(builders._CACHE),
                            sum(not isinstance(key, str) for key in builders._CACHE)))
        # laurent(QC) has the table of F1, so it is F1 renamed
        for label in ("laurent(F2)", "F1", "laurent(QC)"):
            builders.build_from_text(label)
        return {"max_d": max_d, "seed": seed, "checks": []}

    # a private cache, so that the schemes other tests built stay cached
    monkeypatch.setattr(builders, "_CACHE", {})
    monkeypatch.setattr(checks, "build_report", fake_report)
    monkeypatch.setattr(scheme_module, "validate_scheme", counted)
    report = checks.run_verification(max_d=1)
    assert cache_sizes == [(0, 0), (0, 0)]
    # each pass validates laurent(F2) and F1 alone: the sub-expressions F2
    # and QC are tables, not schemes
    assert validated == ["laurent(F2)", "F1"] * 2
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
        sm = bounds._sm_exponent(m, profile.is_real, profile.level_exponent)
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
