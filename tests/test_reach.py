"""Reachability guard: a fixed CLI sweep runs every line of symlen.

Code that no command reaches is moved under verify-paper when it states a
claim of the paper, and deleted otherwise.  The sweep runs in a child
process, so that the scheme cache starts cold and every check builds what
it reads, and records under sys.settrace each line it runs.  Every
executable line of a function in the package (a line of a function code
object, not its def line) must be run by the sweep, or be of one of three
kinds that run only on a wrong input or a wrong answer, or for a person:

* refusal: a raise; an if or elif test, with its block, whose block always
  ends in a raise; an except body that ends in a raise or in returning an
  EXIT_ code, with its except line;
* mismatch report: a checks.py block that appends to a check's
  mismatches, failures or violations list (the mutation tests in
  test_checks.py run each one);
* debugging aid: a __repr__ body.

A function the sweep does not reach at all, beyond these kinds, must be
named in ALLOWED with its reason.  Class bodies and module code run at
import, before the trace starts, and are not counted.

A second guard reads the imports: every name a module of the package
imports is read somewhere in that module, so a deletion leaves no import
behind, unless it is named in REEXPORTED with the file that imports it
from that module.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "symlen"

ALLOWED = {
    "milnor.py:representative": "called by the benchmark ops, perfbench/ops.py",
}

# a name a module imports for another file to import from that module, so
# the module keeps it even if it stops reading it: the file that imports it
REEXPORTED = {
    "scheme.py:iter_bits": "perfbench/ops.py",
}

REPORT_LISTS = {"mismatches", "failures", "violations"}
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

TABLE = '{"name": "rc-table", "d": 1, "minus_one": 1, "rows": [1, 3]}'
# laurent(F2) with bitstring rows, unnamed
BIT_TABLE = '{"d": 2, "minus_one": 1, "rows": ["0011", "1111", "0101", "1001"]}'
# the ternary value set of (0, 1, 2) depends on the order
UNORDERED_TABLE = '{"d": 2, "minus_one": 0, "rows": [15, 3, 13, 13]}'

RIGID3 = "laurent(laurent(laurent(QC)))"


def sweep(tmp):
    table = tmp / "table.json"
    table.write_text(TABLE)
    bit_table = tmp / "bits.json"
    bit_table.write_text(BIT_TABLE)
    unordered = tmp / "unordered.json"
    unordered.write_text(UNORDERED_TABLE)
    config = tmp / "run.cfg"
    config.write_text("# options\nscheme = laurent(F2)\nformat = csv\n\nn = 3\n")
    # (expected exit code, argv)
    return [
        (0, ["build", "--unsafe-table", str(table), "--format", "json"]),
        (0, ["build", "--unsafe-table", str(bit_table)]),
        (1, ["build", "--scheme", "laurent(F2"]),
        (0, ["invariants", "--scheme", "Q2", "--format", "csv"]),
        (0, ["invariants", "--scheme", "RC"]),
        (0, ["sl", "--config", str(config)]),
        (0, ["sl", "--scheme", " product( RC , laurent(F2) ) "]),
        (0, ["bounds", "--scheme", RIGID3]),
        (0, ["bounds", "--scheme", "laurent(laurent(laurent(laurent(RC))))"]),
        (0, ["decompose", "--scheme", RIGID3,
             "--form", "011,100;001,110;;010,101"]),
        (0, ["decompose", "--scheme", "QC", "--form", ","]),
        (0, ["verify-paper", "--max-d", "3", "-v"]),
        # refusals: a table axiom, both scheme sources, an abbreviation,
        # --max-d out of range
        (1, ["build", "--unsafe-table", str(unordered)]),
        (1, ["build", "--scheme", "RC", "--unsafe-table", str(table)]),
        (1, ["sl", "--sch", "RC"]),
        (1, ["verify-paper", "--max-d", "-1"]),
        (2, ["verify-paper", "--max-d", "7"]),
    ]


CHILD = """
import contextlib, io, json, sys
from symlen import checks, cli

package = sys.argv[2]
# code object -> its lines that have not run yet, the def line left out;
# a code object with none left is no longer traced
remaining = {}
reached = set()


def local(frame, event, arg):
    if event == "line":
        remaining[frame.f_code].discard(frame.f_lineno)
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def record(frame, event, arg):
    code = frame.f_code
    todo = remaining.get(code)
    if todo is None:
        if not code.co_filename.startswith(package):
            todo = remaining[code] = set()
        else:
            todo = remaining[code] = {line for _, _, line in code.co_lines()
                                      if line is not None} - {code.co_firstlineno}
    return local if todo else None


# check 10 builds the report a second time from a cold cache, through the
# same functions as the first: that pass runs untraced
build_report = checks.build_report
built = []


def build_report_traced_once(*args, **kwargs):
    hook = sys.gettrace()
    if built:
        sys.settrace(None)
    built.append(True)
    try:
        return build_report(*args, **kwargs)
    finally:
        sys.settrace(hook)


checks.build_report = build_report_traced_once

codes = []
for argv in json.loads(sys.argv[1]):
    sys.settrace(record)
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    sys.settrace(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def function_lines(path):
    """The executable lines of the functions of a module: the lines of
    its function code objects, each without its def line."""
    lines = set()
    # (code object, whether it is function code)
    stack = [(compile(path.read_text(), str(path), "exec"), False)]
    while stack:
        code, in_function = stack.pop()
        if in_function:
            lines |= {line for _, _, line in code.co_lines() if line is not None}
            lines.discard(code.co_firstlineno)
        # module and class bodies, and the comprehensions in them, run at
        # import; a def or lambda in them is function code
        stack.extend((c, bool(c.co_flags & inspect.CO_OPTIMIZED)
                      and (in_function or c.co_name not in COMPREHENSIONS))
                     for c in code.co_consts if inspect.iscode(c))
    return lines


def span(node):
    return set(range(node.lineno, node.end_lineno + 1))


def block_span(body):
    return set().union(*map(span, body))


def ends_in_raise(body):
    return isinstance(body[-1], ast.Raise)


def returns_exit_code(body):
    last = body[-1]
    return (isinstance(last, ast.Return) and isinstance(last.value, ast.Name)
            and last.value.id.startswith("EXIT_"))


def appends_to_report(body):
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "append" and isinstance(node.func.value, ast.Name)
               and node.func.value.id in REPORT_LISTS
               for stmt in body for node in ast.walk(stmt))


def allowed_lines(path):
    """The lines of a module that are refusals, mismatch reports or
    debugging aids."""
    reports = path.name == "checks.py"
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            lines |= span(node)
        elif isinstance(node, ast.If):
            if ends_in_raise(node.body):
                lines |= set(range(node.lineno, node.test.end_lineno + 1))
            if ends_in_raise(node.body) or reports and appends_to_report(node.body):
                lines |= block_span(node.body)
        elif isinstance(node, ast.ExceptHandler):
            if (ends_in_raise(node.body) or returns_exit_code(node.body)
                    or reports and appends_to_report(node.body)):
                lines |= span(node)
        elif isinstance(node, ast.FunctionDef) and node.name == "__repr__":
            lines |= span(node)
    return lines


def named_functions(path):
    """'file:name' -> the lines of each def in a module."""
    return {"%s:%s" % (path.name, node.name): block_span(node.body)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)}


def test_cli_sweep_reaches_every_line(tmp_path):
    runs = sweep(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([argv for _, argv in runs]),
         str(PACKAGE)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for code, _ in runs]
    reached = {(path, line) for path, line in result["reached"]}
    unreached = []
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = function_lines(path) - {line for p, line in reached if p == str(path)}
        lines -= allowed_lines(path)
        for name, body in named_functions(path).items():
            if name in ALLOWED and lines & body:
                used.add(name)
                lines -= body
        source = path.read_text().splitlines()
        unreached += ["%s:%d  %s" % (path.name, line, source[line - 1].strip())
                      for line in sorted(lines)]
    assert unreached == []
    # an entry the sweep reaches has no reason left to be listed
    assert sorted(ALLOWED.keys() - used) == []


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        # annotations are parsed too, though not evaluated at run time
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and \
                            "%s:%s" % (path.name, name) not in REEXPORTED:
                        unread.append("%s:%d %s" % (path.name, node.lineno, name))
    assert unread == []
    # an entry whose file no longer imports the name from there has no
    # reason left to be listed
    stale = []
    for entry, importer in REEXPORTED.items():
        module, name = entry.split(":")
        tree = ast.parse((SRC.parent / importer).read_text())
        if not any(isinstance(node, ast.ImportFrom)
                   and node.module == "symlen." + module.removesuffix(".py")
                   and name in (alias.name for alias in node.names)
                   for node in ast.walk(tree)):
            stale.append(entry)
    assert stale == []
