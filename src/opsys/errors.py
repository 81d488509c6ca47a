"""Exception hierarchy for the opsys package."""


class OpsysError(Exception):
    """Base class for all package errors."""


class DimensionError(OpsysError, ValueError):
    """Shapes of the operands do not fit together."""


class NumericalError(OpsysError, RuntimeError):
    """A numerical backend (eigensolver, linear solve) failed to converge."""


class HermitianError(OpsysError, ValueError):
    """An operation that requires a Hermitian input received a
    matrix whose anti-Hermitian part is too large."""


class MembershipError(OpsysError, ValueError):
    """An element was expected to lie in a given operator system but its
    projection residual exceeds the tolerance."""


class ValidationError(OpsysError, ValueError):
    """A constructed object (system, tower, embedding) violates one of its
    structural invariants.  The message names the failed check."""


class InconsistentThreadError(OpsysError, ValueError):
    """A functional/element thread violates stage compatibility, e.g. the
    pairing value is not constant along the tower."""


class UndecidedError(OpsysError, RuntimeError):
    """A solver returned an undecided verdict where a boolean answer was
    required; callers may retry with a larger budget."""


class ParseError(OpsysError, ValueError):
    """Malformed JSON input (matrix, system, functional or tower spec)."""
