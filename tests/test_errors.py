"""Error guard: one exception class per exit code of cli.main.

errors.py defines the base class SymlenError and one class below it per
nonzero exit code: InvalidInput (1), TooLarge (2) and VerificationFailure
(3).  No other module of the package defines an exception class, and every
raise of a package class names one of the three; the message, not the
class, tells one refusal from another.  The scan reads the source, so no
module, __main__ included, is run.
"""

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "symlen"
EXIT_CLASSES = {"InvalidInput", "TooLarge", "VerificationFailure"}


def is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def exception_classes():
    """{class name: module file name} of the package's exception classes:
    those with a builtin exception or a package exception class as a base."""
    classes = [(node, path.name) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    found = {}
    grew = True
    while grew:
        grew = False
        for node, module in classes:
            bases = [base.id for base in node.bases if isinstance(base, ast.Name)]
            if node.name not in found and any(
                    is_builtin_exception(b) or b in found for b in bases):
                found[node.name] = module
                grew = True
    return found


def test_errors_defines_one_class_per_exit_code():
    assert exception_classes() == {name: "errors.py" for name in
                                   EXIT_CLASSES | {"SymlenError"}}


def test_every_raise_names_an_exit_class():
    package_classes = exception_classes().keys()
    raised = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name in package_classes:
                raised.append(name)
    # the three are raised, and nothing else of the package is
    assert set(raised) == EXIT_CLASSES
