"""Acceptance suite: the ten verification criteria, one test and one
printed pass/fail line each.

Each test recomputes its claims through symlen.checks at the full
advertised scale and enforces the runtime budget, so a green run here is
the complete evidence that the package does what it says.
"""

import json
import subprocess
import sys
import time

from symlen import checks


def _finish(cid, label, passed, t0, budget):
    elapsed = time.time() - t0
    print("criterion %2d (%s): %s in %.2fs" %
          (cid, label, "PASS" if passed else "FAIL", elapsed))
    assert passed
    assert elapsed < budget, "criterion %d exceeded %ds budget" % (cid, budget)


def test_criterion_01_subspace_counting():
    t0 = time.time()
    res = checks.check_subspace_counts()
    _finish(1, "subspace counts match the Gaussian formula, d <= 6",
            res["passed"] and not res["mismatches"], t0, 10)


def test_criterion_02_invariant_formulas():
    t0 = time.time()
    res = checks.check_invariant_formulas(max_d=4)
    assert res["schemes"] == 550
    _finish(2, "index identities and the d_m estimate, every library scheme, d <= 4",
            res["passed"], t0, 30)


def test_criterion_03_bound_dominance():
    t0 = time.time()
    res = checks.check_bound_dominance(max_d=4, degrees=(2, 3))
    assert res["schemes"] == 550
    assert not res["violations"], res["violations"]
    _finish(3, "exact lengths never exceed any bound, d <= 4, n in {2,3}",
            res["passed"], t0, 600)


def test_criterion_04_rigid_oracle_agreement():
    t0 = time.time()
    res = checks.check_rigid_oracle_agreement(max_k=5)
    assert [row[2] for row in res["towers"]] == [0, 1, 1, 2, 2]
    _finish(4, "search lengths equal alternating ranks on rigid towers, k <= 5",
            res["passed"], t0, 60)


def test_criterion_05_small_field_facts():
    t0 = time.time()
    res = checks.check_small_field_facts()
    _finish(5, "dyadic Laurent model of the 3-adics, all facts frozen",
            res["passed"], t0, 5)


def test_criterion_06_polynomial_lemma():
    t0 = time.time()
    res = checks.check_polynomial_lemma(max_j=10)
    assert len(res["checked"]) == 11
    assert all(dp <= j and ds <= j for j, dp, ds in res["checked"])
    _finish(6, "degree and leading coefficient caps, j <= 10",
            res["passed"], t0, 5)


def test_criterion_07_constant_profile_corollary():
    t0 = time.time()
    res = checks.check_constant_profile_corollary(max_n=4, max_d0=12)
    assert res["cases"] == 3 * 13
    _finish(7, "split-basis bound matches its polynomial form, n <= 4, d0 <= 12",
            res["passed"], t0, 5)


def test_criterion_08_decomposition_certificates():
    t0 = time.time()
    res = checks.check_decomposition_certificates(seed=2024, runs=200, max_d=3)
    assert res["runs"] == 200
    assert not res["failures"], res["failures"]
    _finish(8, "200 seeded certified decompositions, d <= 3, n in {2,3}",
            res["passed"], t0, 300)


def test_criterion_09_rigid_strata_bijection():
    t0 = time.time()
    res = checks.check_rigid_strata_bijection(max_k=4, max_n=3)
    _finish(9, "stratum class counts equal subspace counts on rigid towers, k <= 4",
            res["passed"], t0, 120)


def test_criterion_10_deterministic_report():
    t0 = time.time()
    cmd = [sys.executable, "-m", "symlen", "verify-paper", "--max-d", "2"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    passed = (first.returncode == 0 and second.returncode == 0
              and first.stdout == second.stdout)
    if passed:
        report = json.loads(first.stdout)
        passed = report["all_passed"] and len(report["checks"]) == 10
    _finish(10, "verify-paper output is byte-identical across runs",
            passed, t0, 60)
