"""One benchmark process: set up, run one op list, check every output.

    python3 perfbench/worker.py run|trace < plan.json

The plan (written by run.py) names the schemes to build and the ops, each
with its frozen expected output.  The process starts with cold caches, as
a `symlen` command does.  It reports on stdout one JSON object: the
monotonic clock reading when set-up finished, the run's wall time and
per-op latencies, peak RSS, failures, and in `trace` mode the per-layer
totals.

The CPU this runs on changes speed by up to a third within seconds, as
other work on the host comes and goes.  So the process samples its own
speed: a timer interrupts it every SAMPLE_INTERVAL_S to time a fixed probe
task, and a probe also runs between ops.  Each op's latency is reported
as measured and scaled to the speed at which the probe takes PROBE_REF_S,
with the time spent in probes left out.  For set-up, which starts before
this process can time anything, it reports the probe time and the rate
for the parent to apply to the set-up time it measures.
"""

from __future__ import annotations

import bisect
import json
import resource
import signal
import statistics
import sys
import time

PROBE_STEPS = 1000
# about the probe's median time on the 2-vCPU VM the benchmark was tuned on
PROBE_REF_S = 0.35e-3
SAMPLE_INTERVAL_S = 0.02


def monotonic() -> float:
    # CLOCK_MONOTONIC is system wide, so the parent can subtract its own
    # reading taken before it started this process
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_task() -> int:
    """A fixed pure-Python task of integer, dict and loop work."""
    table = {}
    x = 1
    for _ in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = x >> 22
        table[key] = table.get(key, 0) ^ x
    return len(table)


class Speedometer:
    """Samples the CPU's speed by timing probe_task, on a timer and on demand.

    The timer's handler runs in the main thread between bytecodes, so a
    sample measures the CPU the measured code is running on.  Samples are
    (start, end) perf_counter pairs in time order.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.starts: list[float] = []
        self.tracer = None

    def sample(self, *_):
        span = self.tracer.begin("probe") if self.tracer is not None else None
        t0 = time.perf_counter()
        probe_task()
        t1 = time.perf_counter()
        if span is not None:
            self.tracer.end(span)
        self.samples.append((t0, t1))
        self.starts.append(t0)

    def mark(self) -> None:
        """Take a sample now, holding the timer's samples back meanwhile."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(probe seconds inside [t0, t1], reference seconds per second there).

        The rate averages PROBE_REF_S / probe time over the samples inside
        the interval and the nearest one on each side; with samples evenly
        spread in time, this weights each stretch by its length.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.samples[lo:hi]
        if inside and inside[-1][1] > t1:  # started inside, ended after
            inside = inside[:-1]
            hi -= 1
        around = inside + self.samples[max(lo - 1, 0):lo] + self.samples[hi:hi + 1]
        busy = sum(e - s for s, e in inside)
        rate = statistics.fmean(PROBE_REF_S / (e - s) for s, e in around)
        return busy, rate


def main(mode: str) -> int:
    plan = json.load(sys.stdin)
    workload = plan["workload"]
    speed = Speedometer()
    speed.start()
    speed.mark()
    setup_from = time.perf_counter()
    import ops

    tracer = None
    if mode == "trace":
        from tracer import COUNTS, LAYERS, Tracer

        tracer = Tracer()
        tracer.install([ops])
        speed.tracer = tracer
        setup_span = tracer.begin("setup")
    schemes = ops.build_schemes(plan["schemes"])
    if tracer is not None:
        tracer.end(setup_span)
    result = {"ready": monotonic()}
    setup_to = time.perf_counter()
    # the parent's set-up time also covers interpreter start, before the
    # first sample; it is scaled at the rate seen over the rest of set-up
    result["setup_probe_s"], result["setup_rate"] = speed.scale(setup_from, setup_to)

    raws, intervals, errors = [], [], {}
    speed.mark()
    start = time.perf_counter()
    for i, op in enumerate(plan["ops"]):
        if tracer is not None:
            tracer.op = i
            op_span = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            raw = ops.run_op(workload, schemes[op["scheme"]], op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            raw = None
            errors[i] = "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(op_span)
        speed.mark()
        raws.append(raw)
        intervals.append((t0, t1))
    result["wall_s"] = time.perf_counter() - start
    speed.stop()
    result["latencies_ms"] = [(t1 - t0) * 1e3 for t0, t1 in intervals]
    result["scaled_ms"] = []
    for t0, t1 in intervals:
        busy, rate = speed.scale(t0, t1)
        result["scaled_ms"].append((t1 - t0 - busy) * rate * 1e3)
    result["probes"] = len(speed.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False
        totals = tracer.layer_totals()
        result["layers"] = {name: totals.get(name, {"calls": 0, "self_s": 0.0})
                            for name in LAYERS + ("op",)}
        result["counts"] = {name: tracer.counts[name] for name in COUNTS}
        tracer.write(plan["spans_path"])

    problems = []
    for i, (op, raw) in enumerate(zip(plan["ops"], raws)):
        if raw is None:
            found = [errors[i]]
        else:
            scheme = schemes[op["scheme"]]
            found = ops.oracle_problems(workload, scheme, op, raw)
            if ops.summarize(workload, raw) != op["expect"]:
                found.append("output differs from the reference")
        if found:
            problems.append({"op": i, "scheme": op["scheme"], "n": op["n"],
                             "problems": found})
    result["attempted"] = len(plan["ops"])
    result["failed"] = len(problems)
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
