"""The library surface that the benchmark under perfbench/ relies on.

The benchmark wraps the functions named in its tracer and calls the op
code in perfbench/ops.py; a rename or a changed output there would only
show when the benchmark runs.  These tests read perfbench/ and change
nothing in it: the tracer is imported but never installed.
"""

import json
import sys
from pathlib import Path

import pytest

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
