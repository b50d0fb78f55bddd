"""Exception hierarchy shared by all duet modules."""

from __future__ import annotations


class DuetError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DuetError, ValueError):
    """A hyperparameter or option lies outside its allowed range.  Also a
    ``ValueError``, so callers that catch that keep working."""


class ShapeError(DuetError):
    """Tensor shapes (or dtypes) are incompatible for the requested operation."""


class DTypeError(DuetError):
    """Unsupported or inconsistent element type."""


class CheckpointFormatError(DuetError):
    """The on-disk checkpoint container is malformed."""


class PartitionError(DuetError):
    """A tensor name is not covered exactly once by the partition manifest."""


class KeyMismatchError(DuetError):
    """Two named-tensor maps do not carry the same key set."""


class BaseMismatchError(DuetError):
    """A task vector was computed against a different base checkpoint."""


class AxisError(DuetError):
    """Concatenation axis out of range for a tensor."""


class EmptyInputError(DuetError):
    """An operation that requires data received an empty input."""


class DegenerateBaselineError(DuetError):
    """A ratio metric received a zero or negative denominator."""


class ProtocolError(DuetError):
    """An evaluation protocol or record set is inconsistent."""
