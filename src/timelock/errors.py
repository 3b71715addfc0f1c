"""Exception types for trial validation, resampling, metrics, and batch alignment."""


class TimelockError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TimelockError):
    """A trial file, events sidecar, or config file could not be parsed."""


# trial validation

class EmptySignalError(TimelockError):
    """Trial has no samples."""


class NonFiniteError(TimelockError):
    """Trial contains NaN or infinite samples."""


class BadRateError(TimelockError):
    """Sampling frequency is not a positive finite number."""


class BadEventsError(TimelockError):
    """Event markers are out of order or outside the signal bounds."""


# partitioning

class MissingEventError(TimelockError):
    """No event marker carries the requested label."""


class DuplicateEventError(TimelockError):
    """More than one event marker carries the requested label."""


class DegenerateIntervalError(TimelockError):
    """A warpable interval is empty."""


# resampling

class SegmentTooShortError(TimelockError):
    """Segment has fewer than two samples."""


class BadOutputLengthError(TimelockError):
    """Requested output length is not a positive integer."""


class RangeOutOfBoundsError(TimelockError):
    """Index range or padding amount does not fit the signal."""


# warp planning and batches

class BadTargetError(TimelockError):
    """Target interval lengths are invalid or break length preservation."""


class EmptyBatchError(TimelockError):
    """Batch alignment called with no trials."""


class InconsistentTrialsError(TimelockError):
    """Trials in a batch disagree on onset index or warpable length."""


# metrics

class LengthMismatchError(TimelockError):
    """Sequences must have equal length of at least two samples."""


class ZeroVarianceError(TimelockError):
    """Correlation is undefined for a constant sequence."""


class EmptyInputError(TimelockError):
    """Metric input must be nonempty."""


class MatrixTooLargeError(TimelockError):
    """The full DTW cost matrix would exceed the cell budget."""


# synthesis

class NyquistViolationError(TimelockError):
    """Component frequency is not below half the sampling frequency."""


class BadEventFracsError(TimelockError):
    """Event fractions must be strictly increasing within (0, 1)."""
