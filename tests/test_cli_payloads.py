"""Golden CLI payloads: exit code, stdout and stderr of fixed in-process
calls of cli.main, compared byte for byte with tests/golden/cli-payloads.json.

The calls are build, invariants, sl and bounds at --n 2 and 3, and
decompose with one fixed form, with and without --no-merge, on labels from
QC up to d = 6, all with --format json; one label runs them in the table
and csv formats too.  Refactors keep every payload identical; a change
that means to alter one rewrites the file on purpose, with

    PYTHONPATH=src python tests/test_cli_payloads.py
"""

import contextlib
import io
import json
from pathlib import Path

from symlen import builders, cli
from symlen.builders import build_from_text

GOLDEN = Path(__file__).parent / "golden" / "cli-payloads.json"

LABELS = (
    "QC",
    "RC",
    "Q2",
    "laurent(F2)",
    "laurent(laurent(laurent(QC)))",
    "laurent(product(RC,Q2))",
    "laurent(laurent(laurent(laurent(laurent(laurent(QC))))))",
)
ALL_FORMATS = "laurent(F2)"
# the slots of the fixed form as coordinate masks over the chain basis,
# cut to the scheme's dimension
FORM = ((1, 2), (3, 1), (2, 6), (7, 5))


def form_text(d):
    mask = (1 << d) - 1
    return ";".join(",".join(format(c & mask, "0%db" % d) if d else ""
                             for c in entry) for entry in FORM)


def calls():
    out = []
    for label in LABELS:
        form = form_text(build_from_text(label).d)
        for fmt in ("json", "table", "csv") if label == ALL_FORMATS else ("json",):
            common = ["--scheme", label, "--format", fmt]
            out += [["build"] + common, ["invariants"] + common]
            out += [[cmd] + common + ["--n", n]
                    for cmd in ("sl", "bounds") for n in ("2", "3")]
            out += [["decompose"] + common + ["--form", form] + extra
                    for extra in ([], ["--no-merge"])]
    return out


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def test_cli_payloads_match_golden(monkeypatch):
    # a cache of its own: the calls start cold, and leave the searches of
    # the shared cache to the tests that count their work
    monkeypatch.setattr(builders, "_CACHE", {})
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == calls()
    for entry in golden:
        assert run(entry["argv"]) == entry


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in calls()], indent=1) + "\n",
                      encoding="utf-8")
