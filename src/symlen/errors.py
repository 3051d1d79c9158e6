"""Exception hierarchy for the symlen package.

Every error raised deliberately by the library derives from SymlenError, so
callers can catch one type at the CLI boundary.  The subclasses are split into
three rough families: bad input (wrong dimensions, malformed text), resource
caps (enumerations that would be too large), and verification failures (a
structure failed an internal consistency check).
"""


class SymlenError(Exception):
    """Base class for all symlen errors."""


# ---------------------------------------------------------------------------
# bad input


class IsotropicInput(SymlenError):
    """An operation requiring an anisotropic input received an isotropic one."""


class DegreeMismatch(SymlenError):
    """Polynomial arithmetic with incompatible degrees or slot counts."""


class InvalidCase(SymlenError):
    """Parameters fall outside every case of a piecewise formula."""


class ParseError(SymlenError):
    """A textual expression could not be parsed.

    Carries the character position at which parsing failed.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# resource caps


class EnumerationTooLarge(SymlenError):
    """An exact enumeration would exceed the configured cap."""


class TooLarge(EnumerationTooLarge):
    """A derived object (tensor space, search frontier) exceeds its cap."""


class DimensionCapExceeded(SymlenError):
    """A construction would exceed the square class dimension cap."""


# ---------------------------------------------------------------------------
# verification failures


class AxiomViolation(SymlenError):
    """A value set table fails one of the scheme axioms."""


class NotAGroup(SymlenError):
    """The proposed square class group data is not an elementary 2-group."""


class ProfileInconsistency(SymlenError):
    """Two independent routes to an invariant disagree."""


class DegenerateDenominator(SymlenError):
    """A quotient bound hit a zero denominator outside its guarded cases."""


class LemmaViolation(SymlenError):
    """A polynomial identity check failed."""


class DegreeViolation(SymlenError):
    """A polynomial has the wrong degree or leading coefficient."""


class ChainInconsistency(SymlenError):
    """The rewrite left a slot remainder outside the +-D(2^m) of its basis
    chain."""


class VerificationFailure(SymlenError):
    """A certificate or cross-check did not validate."""
