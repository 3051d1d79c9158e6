"""Exception hierarchy for the symlen package: one class per exit code of
cli.main, under the base class SymlenError.

* 1, InvalidInput: malformed text, tables, arguments or options.
* 2, TooLarge: a request exceeds a resource cap.
* 3, VerificationFailure: a certificate or cross-check did not validate.
"""


class SymlenError(Exception):
    """Base class for all symlen errors."""


class InvalidInput(SymlenError):
    """Unusable input: a malformed expression, table file or option, a
    table that fails the scheme axioms or is not an elementary 2-group,
    or a degree, slot or parameter outside what its function accepts.
    The message names the fault."""


class TooLarge(SymlenError):
    """A request exceeds a resource cap: the scheme dimension cap, the
    nesting bound of scheme expressions, or a cap on a derived object
    (tensor space, search frontier)."""


class VerificationFailure(SymlenError):
    """A certificate or cross-check did not validate."""
