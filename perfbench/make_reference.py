"""Regenerate the frozen reference outputs under perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Each reference file lists the whole population a workload samples from,
with the inputs of every op, its expected output and its cold cost in
milliseconds (the op run alone on a freshly built scheme).  The benchmark
draws its op lists from these populations, compares every output with the
frozen one, and uses the cost only to stratify its samples.  Run this only
on a commit whose outputs are trusted: the files are the correctness gate.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from symlen import builders
from symlen.builders import expr_dim, expr_label, standard_expressions
from symlen.milnor import kn_space

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ops as bench_ops  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# large-kn: Laurent towers over the d <= 4 library whose k_2 is this large
LARGE_KN_DIMS = range(12, 17)
# decompose: the catalogue is drawn from this seed, this many sums per (d, n)
DECOMPOSE_SEED = 20210128
DECOMPOSE_COUNTS = {(4, 2): 300, (4, 3): 300, (5, 2): 300, (5, 3): 21}


def laurent_tower(label: str, k: int) -> str:
    for _ in range(k):
        label = "laurent(%s)" % label
    return label


def library_sl_population() -> list[dict]:
    return [{"scheme": expr_label(e), "d": expr_dim(e), "n": n}
            for e in standard_expressions(4) for n in (2, 3)]


def large_kn_population() -> list[dict]:
    towers = {}
    for e in standard_expressions(4):
        for k in range(2, 7):
            if expr_dim(e) + k in (5, 6):
                towers[laurent_tower(expr_label(e), k)] = expr_dim(e) + k
    out = []
    for label in sorted(towers):
        builders._CACHE.clear()
        dim = kn_space(builders.build_from_text(label), 2).dim
        if dim in LARGE_KN_DIMS:
            out.append({"scheme": label, "d": towers[label], "n": 2})
    return out


def decompose_population() -> list[dict]:
    libraries = {4: [], 5: []}
    for e in standard_expressions(5):
        if expr_dim(e) in libraries:
            libraries[expr_dim(e)].append(expr_label(e))
    rng = random.Random(DECOMPOSE_SEED)
    out = []
    for (d, n), count in sorted(DECOMPOSE_COUNTS.items()):
        for _ in range(count):
            label = rng.choice(libraries[d])
            k = rng.randint(1, 8)
            entries = [[rng.randrange(1 << d) for _ in range(n)] for _ in range(k)]
            out.append({"scheme": label, "d": d, "n": n, "entries": entries})
    return out


POPULATIONS = {
    "library-sl": library_sl_population,
    "large-kn": large_kn_population,
    "decompose": decompose_population,
}


def freeze(workload: str) -> None:
    ops = POPULATIONS[workload]()
    for i, op in enumerate(ops):
        builders._CACHE.clear()
        scheme = builders.build_from_text(op["scheme"])
        t0 = time.perf_counter()
        raw = bench_ops.run_op(workload, scheme, op)
        op["cost_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
        problems = bench_ops.oracle_problems(workload, scheme, op, raw)
        if problems:
            raise SystemExit("%s op %d (%s): %s"
                             % (workload, i, op["scheme"], "; ".join(problems)))
        op["expect"] = bench_ops.summarize(workload, raw)
        print("%s %d/%d %.1f ms" % (workload, i + 1, len(ops), op["cost_ms"]),
              file=sys.stderr, flush=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / ("%s.json" % workload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"workload": "%s", "ops": [\n' % workload)
        fh.write(",\n".join(json.dumps(op, sort_keys=True) for op in ops))
        fh.write("\n]}\n")


def main(argv) -> int:
    for workload in argv or list(POPULATIONS):
        freeze(workload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
