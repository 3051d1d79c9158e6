"""End-to-end verification checks behind the verify-paper command.

Each check function recomputes one family of claims from scratch and
returns a JSON-ready dict with a "passed" flag and deterministic detail
fields (no timings, no environment data), so that two runs with the same
configuration serialize to identical bytes.  The final determinism check
rebuilds the whole report, every scheme included, and compares the
serialized payloads.
"""

from __future__ import annotations

import json
import random
import time

from .bounds import (
    _sm_exponent,
    bound_sl_binomial,
    bound_sl_polynomial,
    bound_sl_split_basis,
    dm_estimate_for_profile,
    kaplansky_s,
    make_bound_report,
    poly_binom_sum,
)
from . import builders
from .builders import build_from_text, standard_library
from .decompose import find_linked_pair, make_sum, run_decomposition
from .errors import (
    DegreeViolation,
    LemmaViolation,
    TooLarge,
    VerificationFailure,
)
from .f2space import count_upper_bound, gaussian_count, iter_bits, mask_to_str, rank_ints
from .milnor import SymbolVector, kn_space, sl_field
from .scheme import (
    SCHEME_DIM_CAP,
    enumerate_pfister_strata,
    pfister_classes,
    subgroup_rows,
    translate,
)


def rigid_tower_expr(k: int) -> str:
    expr = "QC"
    for _ in range(k):
        expr = "laurent(%s)" % expr
    return expr


# ---------------------------------------------------------------------------
# 1. subspace counting


def subgroup_layers(d: int) -> list[dict[int, set[int]]]:
    """For m = 0..d, the m-dimensional subgroups of F2^d as class masks,
    each mapped to its extensions: W + <v>, one for every class v outside
    W, counted once each.  Layer 0 is the trivial group {1}, and layer
    m + 1 is the union of the extensions of layer m."""
    layers = []
    layer = {1}
    for _ in range(d + 1):
        layers.append({w: {w | translate(w, v) for v in range(1 << d) if not w >> v & 1}
                       for w in sorted(layer)})
        layer = set().union(*layers[-1].values())
    return layers


def check_subspace_counts() -> dict:
    """Subgroup counts of F2^d, d <= SCHEME_DIM_CAP, enumerated by
    translates, against the Gaussian formula and its cap; and each proper
    subgroup's count of one-larger subgroups containing it against
    2^(d-m) - 1."""
    cases = 0
    mismatches = []
    for d in range(SCHEME_DIM_CAP + 1):
        for m, layer in enumerate(subgroup_layers(d)):
            g = gaussian_count(d, m)
            if len(layer) != g:
                mismatches.append([d, m, "count", len(layer), g])
            if g > count_upper_bound(d, m):
                mismatches.append([d, m, "cap", g, count_upper_bound(d, m)])
            if m < d:
                want = (1 << (d - m)) - 1
                for w, ext in layer.items():
                    if len(ext) != want:
                        rows = ", ".join(mask_to_str(r, d) for r in subgroup_rows(w, d))
                        mismatches.append([d, m, "superspaces", "{%s}" % rows, want])
                        break
            cases += 1
    return {
        "passed": not mismatches,
        "max_dim": SCHEME_DIM_CAP,
        "cases": cases,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# 2. invariant formulas


def check_invariant_formulas(max_d: int = 4) -> dict:
    """Index identities between the d_m, s_m and q_m sequences.

    For every library scheme, up to one degree past stabilization, where
    the three sequences hold still: d_m equals d minus the two-logs of s_m
    and of the chain indices q_1..q_m; s_m is 2 exactly when the scheme is
    real or m is below the level exponent; for finite level 2^sigma the
    index q_k is at least 2^(sigma+1-k) for k up to sigma; and the d_m
    estimate of the exponential bound is at least d_m up to
    m = max(s, stabilization) + 1, past which neither side changes.
    """
    schemes = 0
    mismatches = []
    for label, s in standard_library(max_d):
        prof = s.invariants()
        for m in range(prof.stabilization + 2):
            sm = prof.s_m(m)
            expected_sm = 2 if _sm_exponent(m, prof.is_real, prof.level_exponent) else 1
            if sm != expected_sm:
                mismatches.append([label, m, "s_m", sm, expected_sm])
            acc = prof.d - (sm.bit_length() - 1)
            for i in range(1, m + 1):
                acc -= prof.q_m(i).bit_length() - 1
            if prof.d_m(m) != acc:
                mismatches.append([label, m, "d_m", prof.d_m(m), acc])
        if not prof.is_real and prof.level_exponent is not None:
            sig = prof.level_exponent
            for k in range(1, sig + 1):
                if prof.q_m(k) < (1 << (sig + 1 - k)):
                    mismatches.append([label, k, "q_k", prof.q_m(k), 1 << (sig + 1 - k)])
        for m in range(max(kaplansky_s(prof.pythagoras), prof.stabilization) + 2):
            estimate = dm_estimate_for_profile(prof, m)
            if estimate < prof.d_m(m):
                mismatches.append([label, m, "d_m estimate", estimate, prof.d_m(m)])
        schemes += 1
    return {
        "passed": not mismatches,
        "max_d": max_d,
        "schemes": schemes,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# 3. bound dominance against the exact oracle


def check_bound_dominance(max_d: int = 4, degrees=(2, 3)) -> dict:
    """Exact symbol length never exceeds any bound, nor the class count."""
    schemes = 0
    comparisons = 0
    violations = []
    for label, s in standard_library(max_d):
        for n in degrees:
            exact, _ = sl_field(s, n)
            report = make_bound_report(s, n, exact)
            try:
                report.check_dominance()
            except VerificationFailure as exc:
                violations.append([label, n, str(exc)])
            classes = len(pfister_classes(s, n))
            if exact > classes:
                violations.append([label, n, "exact %d > classes %d" % (exact, classes)])
            comparisons += len(report.rows) + 1
        schemes += 1
    return {
        "passed": not violations,
        "max_d": max_d,
        "degrees": list(degrees),
        "schemes": schemes,
        "comparisons": comparisons,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# 4. independent oracle on rigid towers


def check_rigid_oracle_agreement(max_k: int = 5) -> dict:
    """Search lengths in degree 2 match alternating matrix ranks.

    On a k-fold rigid tower the degree 2 symbol space has one coordinate
    per unordered pair of tower generators, so each element is an
    alternating k by k matrix over GF(2) and its symbol length is half the
    matrix rank.  The breadth-first oracle must agree element by element,
    and the scheme-wide length must come out to floor(k/2).
    """
    towers = []
    mismatches = []
    for k in range(1, max_k + 1):
        s = build_from_text(rigid_tower_expr(k))
        alg = kn_space(s, 2)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        vecs = [alg.image_coords((1 << i, 1 << j)) for i, j in pairs]
        if alg.dim != len(pairs) or rank_ints(vecs) != len(pairs):
            mismatches.append([k, "pair images are not a basis"])
            continue
        # the pair images are a basis: each element x is their sum over the
        # bits of one mask t, whose matrix has the pairs at those bits
        for t in range(1 << alg.dim):
            x = 0
            mat = [0] * k
            for idx in iter_bits(t):
                x ^= vecs[idx]
                i, j = pairs[idx]
                mat[i] |= 1 << j
                mat[j] |= 1 << i
            r = rank_ints(mat)
            bfs = alg.symbol_length(SymbolVector(x, alg.dim))
            if r % 2 or bfs != r // 2:
                mismatches.append([k, x, "rank", r, "bfs", bfs])
        best, _ = sl_field(s, 2)
        if best != k // 2:
            mismatches.append([k, "field length", best, "expected", k // 2])
        towers.append([k, alg.dim, best])
    return {
        "passed": not mismatches,
        "max_k": max_k,
        "towers": towers,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# 5. known small field


def check_small_field_facts() -> dict:
    """The dyadic Laurent model of the 3-adic numbers, all facts frozen."""
    s = build_from_text("laurent(F2)")
    prof = s.invariants()
    exact, _ = sl_field(s, 2)
    facts = {
        "d": [prof.d, 2],
        "level": [prof.level, 2],
        "pythagoras": [prof.pythagoras, 3],
        "dim_k2": [kn_space(s, 2).dim, 1],
        "sl2": [exact, 1],
        "binomial_bound": [bound_sl_binomial(prof, 2), 1],
    }
    passed = all(got == want for got, want in facts.values())
    return {"passed": passed, "facts": facts}


# ---------------------------------------------------------------------------
# 6. polynomial lemma


def check_polynomial_lemma(max_j: int = 10) -> dict:
    """Degree and leading coefficient caps for both expansion variants.

    The construction itself raises on a violation; the degenerate j = 0
    sums are the constant 1, above the half cap, and stay exempt.
    """
    checked = []
    failures = []
    for j in range(max_j + 1):
        try:
            plain, shifted = poly_binom_sum(j + 1, 0)
        except (LemmaViolation, DegreeViolation) as exc:
            failures.append([j, str(exc)])
            continue
        checked.append([j, plain.degree, shifted.degree])
    return {
        "passed": not failures,
        "max_j": max_j,
        "exempt_edge": 0,
        "checked": checked,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# 7. constant-profile corollary


class _ConstantProfile:
    """Profile stub with every quotient dimension pinned to d0."""

    def __init__(self, d0: int):
        self.d = d0
        self.is_real = True
        self.level_exponent = None

    def d_m(self, m: int) -> int:
        return self.d


def check_constant_profile_corollary(max_n: int = 4, max_d0: int = 12) -> dict:
    """Split-basis bound matches its closed polynomial form in d0."""
    cases = 0
    failures = []
    for n in range(2, max_n + 1):
        for d0 in range(max_d0 + 1):
            direct = bound_sl_split_basis(_ConstantProfile(d0), n)
            try:
                leading, f = bound_sl_polynomial(d0, n)
            except DegreeViolation as exc:
                failures.append([n, d0, str(exc)])
                continue
            value = leading(d0) + f(d0)
            if value != direct:
                failures.append([n, d0, "poly %s != direct %d" % (value, direct)])
            if f.degree > n - 2:
                failures.append([n, d0, "remainder degree %d" % f.degree])
            cases += 1
    return {
        "passed": not failures,
        "max_n": max_n,
        "max_d0": max_d0,
        "cases": cases,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# 8. decomposition certificates


def check_decomposition_certificates(seed: int = 2024, runs: int = 200,
                                     max_d: int = 3, degrees=(2, 3)) -> dict:
    """Seeded random Pfister sums: rewrite, merge, certify, link-check."""
    rng = random.Random(seed)
    family = standard_library(max_d)
    failures = []
    nonempty = 0
    total_output = 0
    for run in range(runs):
        label, s = family[rng.randrange(len(family))]
        n = rng.choice(tuple(degrees))
        k = rng.randrange(4)
        entries = [
            tuple(rng.randrange(s.size) for _ in range(n)) for _ in range(k)
        ]
        psum = make_sum(s, n, entries)
        final, cert = run_decomposition(s, psum)
        if not cert.passed:
            failures.append([run, label, n, "certificate failed"])
            continue
        if final.entries:
            nonempty += 1
            if find_linked_pair(s, final) is not None:
                failures.append([run, label, n, "linked pair survived"])
        total_output += final.length
    return {
        "passed": not failures,
        "seed": seed,
        "runs": runs,
        "max_d": max_d,
        "nonempty": nonempty,
        "total_output_length": total_output,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# 9. strata bijection on rigid towers


def check_rigid_strata_bijection(max_k: int = 4, max_n: int = 3) -> dict:
    """Anisotropic class counts per stratum match subspace counts."""
    cases = 0
    mismatches = []
    for k in range(1, max_k + 1):
        s = build_from_text(rigid_tower_expr(k))
        prof = s.invariants()
        for n in range(2, max_n + 1):
            counts = enumerate_pfister_strata(s, n)
            for m in range(n + 1):
                dead = (not prof.is_real and prof.level_exponent is not None
                        and m > prof.level_exponent)
                expected = 0 if dead else gaussian_count(prof.d_m(m), n - m)
                if counts[m] != expected:
                    mismatches.append([k, n, m, counts[m], expected])
                cases += 1
    return {
        "passed": not mismatches,
        "max_k": max_k,
        "max_n": max_n,
        "cases": cases,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# report assembly


CHECKS = (
    (1, "subspace-counting", check_subspace_counts),
    (2, "invariant-formulas", check_invariant_formulas),
    (3, "bound-dominance", check_bound_dominance),
    (4, "rigid-oracle-agreement", check_rigid_oracle_agreement),
    (5, "small-field-facts", check_small_field_facts),
    (6, "polynomial-lemma", check_polynomial_lemma),
    (7, "constant-profile-corollary", check_constant_profile_corollary),
    (8, "decomposition-certificates", check_decomposition_certificates),
    (9, "rigid-strata-bijection", check_rigid_strata_bijection),
)


def build_report(max_d: int = 4, seed: int = 2024, progress=None) -> dict:
    """Run checks 1 through 9 and collect their payloads.

    progress, if given, is called with each entry and the seconds its
    check took; the times stay out of the report.
    """
    checks = []
    for cid, name, fn in CHECKS:
        start = time.perf_counter()
        if cid == 2 or cid == 3:
            result = fn(max_d=max_d)
        elif cid == 8:
            result = fn(seed=seed, max_d=min(max_d, 3))
        else:
            result = fn()
        entry = {"id": cid, "name": name}
        entry.update(result)
        checks.append(entry)
        if progress is not None:
            progress(entry, time.perf_counter() - start)
    return {"max_d": max_d, "seed": seed, "checks": checks}


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def run_verification(max_d: int = 4, seed: int = 2024, progress=None) -> dict:
    """Full report, with a second build from an empty scheme cache to
    certify deterministic output.  A max_d above the scheme dimension cap
    is refused before any check runs."""
    if max_d > SCHEME_DIM_CAP:
        raise TooLarge(
            "library dimension %d exceeds cap %d" % (max_d, SCHEME_DIM_CAP))
    first = build_report(max_d, seed, progress)
    builders._CACHE.clear()
    start = time.perf_counter()
    second = build_report(max_d, seed)
    identical = render_report(first) == render_report(second)
    entry = {
        "id": 10,
        "name": "deterministic-output",
        "passed": identical,
        "repeat_identical": identical,
    }
    first["checks"].append(entry)
    if progress is not None:
        progress(entry, time.perf_counter() - start)
    first["all_passed"] = all(c["passed"] for c in first["checks"])
    return first
