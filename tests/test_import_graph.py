"""Import guard: the modules of symlen import one another without a cycle.

An edge is an import of one package module by another, `from .x import`
or `from . import x`, at module level or inside a function.  Imports under
`if TYPE_CHECKING:` never run and are left out.  A function-level import
that closes no cycle is allowed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "symlen"


def is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def package_imports(tree):
    """The package modules that a module's code imports when it runs."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_module_imports_are_acyclic():
    remaining = {path.stem: package_imports(ast.parse(path.read_text()))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert set().union(*remaining.values()) <= remaining.keys()
    # take away the modules whose imports are all taken away already: a
    # module on a cycle, or one that imports one, is never taken away
    while ready := [m for m, deps in remaining.items() if not deps & remaining.keys()]:
        for module in ready:
            del remaining[module]
    assert remaining == {}


def test_milnor_loads_neither_scheme_nor_builders():
    code = ("import json, sys, symlen.milnor; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('symlen'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "symlen.milnor" in loaded
    assert "symlen.scheme" not in loaded and "symlen.builders" not in loaded
