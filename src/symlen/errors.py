"""Exception hierarchy for the symlen package.

Every error raised deliberately by the library derives from SymlenError, so
callers can catch one type at the CLI boundary.  The classes are grouped by
the exit code cli.main gives them:

* 1, invalid input: every SymlenError not listed below.  Besides malformed
  text, tables and arguments, this covers the consistency errors
  (AxiomViolation, ProfileInconsistency, LemmaViolation, DegreeViolation,
  ChainInconsistency); verify-paper catches the two polynomial ones and
  reports them as failed checks.
* 2, a resource cap: TooLarge alone.
* 3, a verification failure: VerificationFailure alone.
"""


class SymlenError(Exception):
    """Base class for all symlen errors."""


# ---------------------------------------------------------------------------
# exit code 1


class IsotropicInput(SymlenError):
    """An operation requiring an anisotropic input received an isotropic one."""


class DegreeMismatch(SymlenError):
    """A symbol degree, slot count or coordinate mask that does not fit
    its algebra or Pfister sum."""


class InvalidCase(SymlenError):
    """Parameters fall outside every case of a piecewise formula."""


class ParseError(SymlenError):
    """A textual expression could not be parsed.

    Carries the character position at which parsing failed.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class AxiomViolation(SymlenError):
    """A value set table fails one of the scheme axioms."""


class NotAGroup(SymlenError):
    """The proposed square class group data is not an elementary 2-group."""


class ProfileInconsistency(SymlenError):
    """Two independent routes to an invariant disagree."""


class LemmaViolation(SymlenError):
    """A polynomial identity check failed."""


class DegreeViolation(SymlenError):
    """A polynomial has the wrong degree or leading coefficient."""


class ChainInconsistency(SymlenError):
    """The rewrite left a slot remainder outside the +-D(2^m) of its basis
    chain."""


# ---------------------------------------------------------------------------
# exit code 2


class TooLarge(SymlenError):
    """A request exceeds a resource cap: the scheme dimension cap, or a
    cap on a derived object (tensor space, search frontier)."""


# ---------------------------------------------------------------------------
# exit code 3


class VerificationFailure(SymlenError):
    """A certificate or cross-check did not validate."""
