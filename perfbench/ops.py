"""The operations of each workload, and the checks on their outputs.

Each operation calls the public library functions behind one `symlen`
subcommand, in the order that subcommand calls them.  `run_op` returns the
raw library objects; `summarize` turns them into the plain values that are
frozen as the reference; `oracle_problems` applies the checks that do not
need a reference.  Summaries and oracles run outside the timed region.

This module imports `symlen`, so only the worker process and the
reference generator import it.
"""

from __future__ import annotations

from symlen.bounds import make_bound_report
from symlen.builders import build_from_text
from symlen.decompose import find_linked_pair, make_sum, run_decomposition
from symlen.milnor import kn_space, sl_field
from symlen.scheme import iter_bits, pfister_classes


def build_schemes(labels) -> dict:
    """Build and validate every scheme a workload uses, keyed by label."""
    schemes = {}
    for label in labels:
        scheme = build_from_text(label)
        if not scheme._validated:
            raise RuntimeError("scheme %s entered the run unvalidated" % label)
        schemes[label] = scheme
    return schemes


def _op_library_sl(scheme, op):
    n = op["n"]
    algebra = kn_space(scheme, n)
    best, witness = sl_field(scheme, n)
    report = make_bound_report(scheme, n, best)
    report.check_dominance()
    classes = len(pfister_classes(scheme, n))
    return algebra, best, witness, report, classes


def _op_large_kn(scheme, op):
    return sl_field(scheme, op["n"])


def _op_decompose(scheme, op):
    psum = make_sum(scheme, op["n"], [tuple(e) for e in op["entries"]])
    final, cert = run_decomposition(scheme, psum)
    return psum, final, cert


RUNNERS = {
    "library-sl": _op_library_sl,
    "large-kn": _op_large_kn,
    "decompose": _op_decompose,
}


def run_op(workload: str, scheme, op: dict):
    return RUNNERS[workload](scheme, op)


def summarize(workload: str, raw) -> dict:
    """Plain, comparable values of one op's output."""
    if workload == "library-sl":
        algebra, best, witness, report, classes = raw
        return {
            "dim_kn": algebra.dim,
            "sl": best,
            "witness": witness.coords,
            "bounds": {row.bound_id: row.value for row in report.rows},
            "classes": classes,
        }
    if workload == "large-kn":
        best, witness = raw
        return {"dim_kn": witness.dim, "sl": best, "witness": witness.coords}
    psum, final, cert = raw
    return {
        "output": [list(e) for e in final.entries],
        "residue": [cert.residue_coords, cert.residue_dim],
        "passed": cert.passed,
    }


# ---------------------------------------------------------------------------
# reference-free checks


def _rank(rows) -> int:
    """Rank over GF(2) of integer bitmask rows (independent of symlen)."""
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def alternating_rank_length(scheme, witness) -> int:
    """Symbol length of a k_2 element of a rigid tower laurent^k(QC).

    On these schemes -1 is a square and the degree 2 relations are the
    squares a (x) a, so k_2 is the alternating square of the class group:
    an element is an alternating matrix A = M + M^T and its symbol length
    is rank(A) / 2.
    """
    d = scheme.d
    mask = kn_space(scheme, 2).representative(witness)
    rows = [0] * d
    for e in iter_bits(mask):
        rows[e % d] |= 1 << (e // d)
    alt = [rows[i] ^ sum(((rows[j] >> i) & 1) << j for j in range(d))
           for i in range(d)]
    rank = _rank(alt)
    return rank // 2 if rank % 2 == 0 else -1


def rigid_tower_height(label: str):
    """k when the label is laurent^k(QC), else None."""
    k = 0
    while label.startswith("laurent(") and label.endswith(")"):
        label = label[len("laurent("):-1]
        k += 1
    return k if label == "QC" else None


def oracle_problems(workload: str, scheme, op: dict, raw) -> list[str]:
    """Violations of facts known without the frozen reference."""
    problems = []
    if workload in ("library-sl", "large-kn"):
        best, witness = raw[1:3] if workload == "library-sl" else raw
        k = rigid_tower_height(op["scheme"])
        if k is not None and op["n"] == 2:
            if best != k // 2:
                problems.append("sl %d on a rigid tower of height %d" % (best, k))
            if alternating_rank_length(scheme, witness) != best:
                problems.append("witness rank disagrees with sl %d" % best)
    if workload == "library-sl":
        _, best, _, report, classes = raw
        for row in report.rows:
            if row.value < best:
                problems.append("bound %s = %d below sl %d"
                                % (row.bound_id, row.value, best))
        if classes < best:
            problems.append("%d classes below sl %d" % (classes, best))
    if workload == "decompose":
        psum, final, cert = raw
        if not cert.passed:
            problems.append("certificate failed")
        if final.entries and find_linked_pair(scheme, final) is not None:
            problems.append("a linked pair survived the merge")
    return problems
