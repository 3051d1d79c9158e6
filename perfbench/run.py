"""The symlen benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

Workloads.  Each is one closed-loop client: a single-threaded process in a
fresh interpreter runs its op list one op after another, so every per-scheme
memo starts cold, as for one `symlen` command.  The op list is sampled from
a frozen population under reference/ by the seed; the library only sees the
sampled inputs.

* library-sl: distinct (scheme, n) pairs from the d <= 4 library, n in
  {2, 3}; each op is what `symlen sl` and `symlen bounds` compute.  Pure
  symbols and the Pfister-class Witt enumeration do the work.
* large-kn: Laurent towers laurent^k(B), k >= 2, over the d <= 4 library
  with d in {5, 6} and dim k_2 in 12..16; each op is sl_field(s, 2).  The
  Cayley-graph BFS does the work.  Every tower with a cold cost of 1 s or
  more is in every run: the 13 costliest, among them both dim 16 towers
  (laurent^5(RC) is one) and laurent^6(QC).
* decompose: random sums of 1..8 Pfister forms over the d = 4 and d = 5
  libraries, schemes drawn with replacement, n in {2, 3}; each op is
  `symlen decompose` (rewrite, merge, certify).  The Witt layer is reached
  through few forms per scheme.  The d = 5, n = 3 share is a fixed prefix
  of its frozen catalogue.

Sampling is stratified on the cold cost frozen with the reference: the
population (within a (d, n) class for decompose) is sorted by that cost and
cut into as many equal slices as ops are drawn, and the seed picks one op
from each slice.  Every op keeps about the same chance, but each run gets
the same mix of cheap and costly ops, so a metric moves with the program
and not with the seed.  Ops too costly to leave to the draw are in every run, as
above.  The op count is proportional to --seconds.  At --seconds 20,
library-sl runs 384 ops, large-kn 38 and decompose 138; at the reference
speed (below) ops and set-ups then take about 20 s on library-sl, 12 s on
decompose and 32 s on large-kn, whose fixed towers take 18 s alone.

Metrics (--trace 0).  One fresh process sets up and runs the op list;
SETUPS - 1 more fresh processes only set up.  Times are scaled to a
reference CPU speed (see worker.py): each process times a fixed probe task
every few milliseconds and between ops, and each op's latency is
multiplied by the probe's reference time over its times during and around
the op, with the probe time taken out.  This removes most of the host's
drift in CPU speed, which is larger than the effect of many program
changes.  wall_s, the time to finish the op list after set-up, is the sum
of the scaled latencies, and op_p50_ms and op_p90_ms their percentiles.
setup_s, the time from process start, through `import symlen`, to every
scheme of the op list built and validated, is scaled at the rate seen
during set-up; it is the median over the SETUPS processes.  peak_rss_mb is
the peak RSS of the process that ran the ops.  Failed ops (raised, or
output differs from the reference or an oracle) go to "failed";
fail_ratio = failed / attempted.

Traced run (--trace 1).  The same op list runs untraced and then traced,
each in a fresh process.  The traced process wraps the library's public
functions (see tracer.py) and reports each layer's self time, calls and
work counts.  Layer times are as measured, not scaled, with the probes
left out; trace.wall_s and trace.overhead_s, the traced minus the untraced
wall_s, are scaled like wall_s.

Every run writes its op list, metrics, metadata and any failures to
.perfbench_out/ in the checkout; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference"
DEADLINE_S = 170.0

# each run sets up this many times, each time in a fresh process, and runs
# its op list in the first of them
SETUPS = 3
# a run draws rate * --seconds ops of each kind.  More ops make a metric
# depend less on which ops the seed drew.
LIBRARY_SL_RATE = 19.2
LARGE_KN_RATE = 1.25
# every large-kn tower whose frozen cold cost is at least this runs every
# time; among them are both dim k_2 = 16 towers and laurent^6(QC).  These
# few towers take most of a run, so drawing them by seed would let the seed
# set wall_s and op_p90_ms.
LARGE_KN_ALWAYS_MS = 1000.0
# decompose, by (d, n).  A cold d = 5, n = 3 sum costs 0 to 15 s, so a
# seeded draw of a few would let the seed set wall_s: the run takes a fixed
# prefix of that frozen (seeded) catalogue instead.
DECOMPOSE_RATES = {(4, 2): 2.65, (4, 3): 2.65, (5, 2): 1.35}
DECOMPOSE_PREFIX_RATE = 0.25

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
RATIOS = {"milnor.generator_yield": ("milnor.generators", "milnor.projections"),
          "scheme.class_yield": ("scheme.anisotropic_classes", "scheme.slot_tuples")}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# op lists


def load_population(workload: str) -> list[dict]:
    with open(REFERENCE / ("%s.json" % workload), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def stratified(pool: list[dict], count: int, rng: random.Random) -> list[dict]:
    """One op from each of `count` equal slices of the pool sorted by cost."""
    if count > len(pool):
        raise BenchError("asked for %d ops from a pool of %d" % (count, len(pool)))
    ordered = sorted(pool, key=lambda op: op["cost_ms"])
    return [ordered[rng.randrange(b * len(ordered) // count,
                                  (b + 1) * len(ordered) // count)]
            for b in range(count)]


def make_ops(workload: str, seed: int, seconds: int) -> list[dict]:
    rng = random.Random("%s/%d" % (workload, seed))
    pool = load_population(workload)

    def count(rate):
        return max(1, round(rate * seconds))

    if workload == "library-sl":
        ops = stratified(pool, count(LIBRARY_SL_RATE), rng)
    elif workload == "large-kn":
        fixed = [op for op in pool if op["cost_ms"] >= LARGE_KN_ALWAYS_MS]
        rest = [op for op in pool if op["cost_ms"] < LARGE_KN_ALWAYS_MS]
        ops = fixed + stratified(rest, count(LARGE_KN_RATE), rng)
    else:
        ops = []
        for (d, n), rate in sorted(DECOMPOSE_RATES.items()):
            group = [op for op in pool if (op["d"], op["n"]) == (d, n)]
            ops += stratified(group, count(rate), rng)
        prefix = [op for op in pool if (op["d"], op["n"]) == (5, 3)]
        ops += prefix[:count(DECOMPOSE_PREFIX_RATE)]
    rng.shuffle(ops)
    return [{key: op[key] for key in ("scheme", "n", "entries", "expect")
             if key in op} for op in ops]


# ---------------------------------------------------------------------------
# processes


def spawn(mode: str, plan: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; its JSON result plus setup_s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), mode],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(json.dumps(plan),
                                  timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker (%s) ran past the deadline" % mode)
    if proc.returncode != 0:
        raise BenchError("worker (%s) exited with code %d" % (mode, proc.returncode))
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - started
    result["setup_s"] = ((result["setup_raw_s"] - result["setup_probe_s"])
                         * result["setup_rate"])
    return result


def metadata() -> dict:
    rev = ""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = 0
    for path in sorted((SRC / "symlen").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"git_revision": rev or None,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "src_symlen_lines": lines}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(runs: list[dict]) -> dict:
    med = statistics.median
    latency = runs[0]["scaled_ms"]
    values = {
        "wall_s": sum(latency) / 1e3,
        "op_p50_ms": med(latency),
        "op_p90_ms": statistics.quantiles(latency, n=10, method="inclusive")[8],
        "setup_s": med(r["setup_s"] for r in runs),
        "peak_rss_mb": runs[0]["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(untraced: dict, traced: dict) -> dict:
    layers, counts = traced["layers"], traced["counts"]
    out = {}
    for layer, entry in layers.items():
        if layer != "op":
            out[layer + "_s"] = {"value": entry["self_s"], "unit": "s"}
            out[layer + "_calls"] = {"value": entry["calls"], "unit": "count"}
    for name, value in counts.items():
        out[name] = {"value": value, "unit": "count"}
    for name, (num, den) in RATIOS.items():
        value = counts[num] / counts[den] if counts[den] else 0.0
        out[name] = {"value": value, "unit": "ratio"}
    out["bench.op_self_s"] = {"value": layers["op"]["self_s"], "unit": "s"}
    walls = [sum(r["scaled_ms"]) / 1e3 for r in (untraced, traced)]
    out["trace.wall_s"] = {"value": walls[1], "unit": "s"}
    out["trace.overhead_s"] = {"value": walls[1] - walls[0], "unit": "s"}
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool,
            corrupt: bool = False) -> dict:
    """Run one benchmark configuration; the result object and its record."""
    deadline = time.monotonic() + DEADLINE_S
    ops = make_ops(workload, seed, seconds)
    if corrupt:
        expect = ops[0]["expect"]
        if "residue" in expect:
            expect["residue"][0] ^= 1
        else:
            expect["dim_kn"] += 1
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    plan = {"workload": workload, "ops": ops,
            "schemes": sorted({op["scheme"] for op in ops}),
            "spans_path": str(OUT / (stem + "-spans.jsonl"))}
    if trace:
        runs = [spawn("run", plan, deadline), spawn("trace", plan, deadline)]
        metrics = per_layer(*runs)
    else:
        runs = [spawn("run", plan, deadline)]
        runs += [spawn("run", dict(plan, ops=[]), deadline)
                 for _ in range(SETUPS - 1)]
        metrics = end_to_end(runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "meta": metadata(),
              "op_count": len(ops), "processes": len(runs),
              "fail_ratio": failed / attempted, "result": result,
              "problems": [p for r in runs for p in r["problems"]],
              "runs": [{k: r[k] for k in ("setup_s", "setup_raw_s", "wall_s",
                                          "peak_rss_mb", "probes", "latencies_ms",
                                          "scaled_ms")} for r in runs],
              "ops": [{k: v for k, v in op.items() if k != "expect"} for op in ops]}
    with open(OUT / (stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


# ---------------------------------------------------------------------------
# entry points


def self_test() -> int:
    """Tiny runs of every workload: print each metric, prove the gate live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            record = measure(workload, seed=1, seconds=1, trace=bool(trace))
            metrics = record["result"]["metrics"]
            for name, m in metrics.items():
                print("%-11s trace=%d %-30s %14.6g %s"
                      % (workload, trace, name, m["value"], m["unit"]))
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != declared[trace]:
                print("%s trace=%d: metrics differ from BENCHMARK.json"
                      % (workload, trace))
                ok = False
            print("%-11s trace=%d fail_ratio %.3f" % (workload, trace,
                                                      record["fail_ratio"]))
            ok &= record["fail_ratio"] == 0
        record = measure(workload, seed=1, seconds=1, trace=False, corrupt=True)
        print("%-11s corrupted reference: fail_ratio %.3f (%s)"
              % (workload, record["fail_ratio"],
                 record["problems"][0]["problems"] if record["problems"] else "-"))
        ok &= record["fail_ratio"] > 0
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("library-sl", "large-kn", "decompose"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "symlen" / "__init__.py").is_file():
        print("no symlen sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 3
    print(json.dumps({key: record[key] for key in (
        "meta", "op_count", "processes", "fail_ratio")}
        | {"problems": record["problems"][:5]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
