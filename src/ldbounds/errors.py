"""Exception hierarchy for ldbounds.

Validation errors (bad arguments, malformed inputs) and runtime errors
(numerical failures mid-computation) are kept in separate branches so the
CLI can map them to distinct exit codes.
"""


class LdboundsError(Exception):
    """Base class for all package errors."""


class ValidationError(LdboundsError):
    """Input rejected before any computation ran."""


class EntryOutOfRange(ValidationError):
    """A data or query entry lies outside its legal interval."""


class ShapeMismatch(ValidationError):
    """Array has the wrong shape for the requested construction."""


class SizeMismatch(ValidationError):
    """Datasets must have equal record counts here."""


class DimensionMismatch(ValidationError):
    """Query and dataset dimensionality disagree."""


class InvalidParams(ValidationError):
    """Parameter combination outside the operation's precondition."""


class InvalidRequest(ValidationError):
    """Bound or inversion request names an unsupported combination."""


class FamilyTooLarge(ValidationError):
    """More distinct members requested than the construction can supply."""


class CdfNotMonotone(ValidationError):
    """Supplied distribution function is not non-decreasing on [0, 1]."""


class IndexOutOfRange(ValidationError):
    """Encoded index exceeds the size of its code space."""


class FormatError(ValidationError):
    """Serialized payload violates the container format."""


class RuntimeFailure(LdboundsError):
    """Computation started but could not finish."""


class RejectionStarvation(RuntimeFailure):
    """Rejection sampler's acceptance probability is too small to proceed."""


class DivergenceDetected(RuntimeFailure):
    """Training loss became non-finite."""


class NoCollision(RuntimeFailure):
    """No two family members shared a code (precondition was violated)."""
