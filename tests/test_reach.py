"""Reachability guard: a fixed CLI sweep calls every function of symlen.

Code that no command reaches is moved under verify-paper when it states a
claim of the paper, and deleted otherwise.  The sweep runs in a child
process, so that the scheme cache starts cold and every check builds what
it reads, and records each called code object under sys.setprofile.  A
function the sweep does not call must be named in ALLOWED with its reason.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "symlen"

ALLOWED = {
    "__repr__": "debugging aid, printed by no command",
    "milnor.py:representative": "called by the benchmark ops, perfbench/ops.py",
}

TABLE = '{"name": "rc-table", "d": 1, "minus_one": 1, "rows": [1, 3]}'

RIGID3 = "laurent(laurent(laurent(QC)))"


def sweep(tmp):
    table = tmp / "table.json"
    table.write_text(TABLE)
    config = tmp / "run.cfg"
    config.write_text("# options\nscheme = laurent(F2)\nformat = csv\n\nn = 3\n")
    # (expected exit code, argv)
    return [
        (0, ["build", "--unsafe-table", str(table), "--format", "json"]),
        (1, ["build", "--scheme", "laurent(F2"]),
        (0, ["invariants", "--scheme", "Q2", "--format", "csv"]),
        (0, ["sl", "--config", str(config)]),
        (0, ["bounds", "--scheme", RIGID3]),
        (0, ["decompose", "--scheme", RIGID3, "--form", "011,100;001,110;010,101"]),
        (0, ["verify-paper", "--max-d", "2", "-v"]),
        # refusals: both scheme sources, an abbreviation, --max-d out of range
        (1, ["build", "--scheme", "RC", "--unsafe-table", str(table)]),
        (1, ["sl", "--sch", "RC"]),
        (1, ["verify-paper", "--max-d", "-1"]),
        (2, ["verify-paper", "--max-d", "7"]),
    ]


CHILD = """
import contextlib, io, json, sys
from symlen import checks, cli

called = set()


def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


# check 10 builds the report a second time from a cold cache, through the
# same functions as the first: that pass runs unrecorded
build_report = checks.build_report
built = []


def build_report_recorded_once(*args, **kwargs):
    hook = sys.getprofile()
    if built:
        sys.setprofile(None)
    built.append(True)
    try:
        return build_report(*args, **kwargs)
    finally:
        sys.setprofile(hook)


checks.build_report = build_report_recorded_once

codes = []
for argv in json.loads(sys.argv[1]):
    sys.setprofile(record)
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    sys.setprofile(None)
print(json.dumps({
    "codes": codes,
    "called": sorted([c.co_filename, c.co_firstlineno] for c in called),
}))
"""


def defined_functions():
    """(file, first line) -> label, for every def in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    stack.append(const)
            # class bodies run at import and are not functions
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                out[(str(path), code.co_firstlineno)] = "%s:%s" % (path.name,
                                                                   code.co_name)
    return out


def test_cli_sweep_reaches_every_function(tmp_path):
    runs = sweep(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([argv for _, argv in runs])],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for code, _ in runs]
    called = {(path, line) for path, line in result["called"]}
    unreached = sorted(label for key, label in defined_functions().items()
                       if key not in called)

    def allowed_as(label):
        return {label, label.split(":")[1]} & ALLOWED.keys()

    assert [label for label in unreached if not allowed_as(label)] == []
    # an entry the sweep reaches has no reason left to be listed
    used = set().union(*map(allowed_as, unreached))
    assert sorted(ALLOWED.keys() - used) == []
