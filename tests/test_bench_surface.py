"""The library surface that the benchmark under perfbench/ relies on.

The benchmark wraps the functions named in its tracer and calls the op
code in perfbench/ops.py; a rename or a changed output there would only
show when the benchmark runs.  These tests read perfbench/ and change
nothing in it: the tracer is installed only in a child process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import symlen

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("layer,owner,attr", tracer.TRACED)
def test_traced_names_resolve(layer, owner, attr):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("workload", ["library-sl", "large-kn", "decompose"])
def test_cheapest_reference_ops(workload):
    with open(BENCH / "reference" / ("%s.json" % workload)) as fh:
        reference = json.load(fh)
    cheapest = sorted(reference["ops"], key=lambda op: op["cost_ms"])[:5]
    schemes = ops.build_schemes({op["scheme"] for op in cheapest})
    for op in cheapest:
        scheme = schemes[op["scheme"]]
        raw = ops.run_op(workload, scheme, op)
        assert ops.summarize(workload, raw) == op["expect"], op
        assert ops.oracle_problems(workload, scheme, op, raw) == [], op


# one op under the installed tracer, as a traced benchmark process runs it,
# without the timer that samples the CPU's speed
TRACED_OP = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import ops, tracer
    workload = sys.argv[2]
    with open("%s/reference/%s.json" % (sys.argv[1], workload)) as fh:
        op = min(json.load(fh)["ops"], key=lambda op: op["cost_ms"])
    trace = tracer.Tracer()
    trace.install([ops])
    span = trace.begin("setup")
    scheme = ops.build_schemes([op["scheme"]])[op["scheme"]]
    trace.end(span)
    trace.op = 0
    span = trace.begin("op")
    raw = ops.run_op(workload, scheme, op)
    trace.end(span)
    trace.active = False
    print(json.dumps({"same": ops.summarize(workload, raw) == op["expect"],
                      "layers": trace.layer_totals(),
                      "counts": dict(trace.counts)}))
""")


@pytest.mark.parametrize("workload", ["library-sl", "large-kn", "decompose"])
def test_tracer_sees_the_cheapest_op(workload):
    src = str(Path(symlen.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", TRACED_OP, str(BENCH), workload],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["same"]
    assert result["layers"]["op"]["calls"] == 1
    if workload != "decompose":
        # the BFS took its generators through the traced pure_symbols
        assert result["layers"]["milnor.pure_symbols"]["calls"] >= 1
        assert result["counts"]["milnor.generators"] > 0
    else:
        # the tracer reads the sum as the second argument of the rewrite
        # and the merge
        assert result["counts"]["decompose.entries_in"] > 0
        assert "decompose.entries_rewritten" in result["counts"]
        assert "decompose.entries_out" in result["counts"]
