"""Golden bound records: the six report rows and the stratum caps of every
distinct invariant profile of the d <= 5 library at n = 1..9, compared
with tests/golden/bound-records.json.

Each profile is named by the first library label that has it.  A record
is [label, n, row values in report order, caps for m = 0..n].  Refactors
of the bounds keep every record identical; a change that means to alter
one rewrites the file on purpose, with

    PYTHONPATH=src python tests/test_bound_records.py
"""

import json
from pathlib import Path

from symlen.bounds import profile_bounds
from symlen.builders import standard_library

GOLDEN = Path(__file__).parent / "golden" / "bound-records.json"
MAX_D = 5
DEGREES = range(1, 10)


def records():
    """(bound ids in report order, one record per distinct profile and n)."""
    first = {}
    for label, s in standard_library(MAX_D):
        first.setdefault(s.invariants(), label)
    ids = None
    out = []
    for profile, label in first.items():
        for n in DEGREES:
            bounds = profile_bounds(profile, n)
            ids = [row.bound_id for row in bounds.rows]
            out.append([label, n, [row.value for row in bounds.rows],
                        list(bounds.strata_caps)])
    return ids, out


def test_bound_records_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ids, got = records()
    assert len(got) == 1242
    assert ids == golden["bound_ids"]
    for want, have in zip(golden["records"], got):
        assert have == want
    assert len(golden["records"]) == len(got)


if __name__ == "__main__":
    ids, recs = records()
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in recs)
    GOLDEN.write_text('{"bound_ids":%s,\n"records":[\n%s\n]}\n'
                      % (json.dumps(ids, separators=(",", ":")), lines),
                      encoding="utf-8")
