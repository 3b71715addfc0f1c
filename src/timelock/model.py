"""Domain types shared across the package: trials, event markers, partitions."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadEventsError,
    BadRateError,
    ConfigError,
    DegenerateIntervalError,
    DuplicateEventError,
    EmptySignalError,
    MissingEventError,
    NonFiniteError,
)

ONSET = "onset"
TRANSITION = "transition"
OFFSET = "offset"

MAX_SAMPLES = 1 << 24  # longest trial or resampled output built or read: 128 MiB of float64


def is_integer(value) -> bool:
    """Whether value is a sample count or index: a numbers.Integral, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """Whether value is a finite real number: math.isfinite, with False in
    place of its TypeError for a string, None or other non-number."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def event_index_from_seconds(t_seconds: float, f_samp: float) -> int:
    """Convert an event time in seconds to a sample index.

    Rounds to the nearest sample; an exact half-sample tie resolves toward the
    earlier sample so partitioning stays deterministic. Raises BadEventsError
    when t_seconds * f_samp is NaN or infinite, as for a NaN, infinite or
    too large t_seconds.
    """
    if not (is_finite(f_samp) and f_samp > 0):
        raise BadRateError(f"f_samp must be positive and finite, got {f_samp}")
    if not (is_finite(t_seconds) and math.isfinite(t_seconds * f_samp)):
        raise BadEventsError(
            f"event time {t_seconds} s at {f_samp} Hz is not a finite sample position")
    return int(math.ceil(t_seconds * f_samp - 0.5))


@dataclass(frozen=True)
class EventMarker:
    """A labelled sample position inside a trial."""

    index: int
    label: str

    def __post_init__(self) -> None:
        if not is_integer(self.index):
            raise BadEventsError(f"event index must be an integer, got {self.index!r}")
        if self.index < 0:
            raise BadEventsError(f"event index must be >= 0, got {self.index}")


@dataclass(frozen=True)
class Trial:
    """A uniformly sampled signal plus its sampling rate and event markers.

    Samples are copied into a read-only float64 array on construction, so a
    Trial is an immutable value that can be shared between threads. Every
    invariant is checked there: samples nonempty and finite, f_samp positive
    and finite, event indices inside the signal and strictly increasing.
    """

    samples: np.ndarray
    f_samp: float
    events: tuple[EventMarker, ...] = ()

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ConfigError(f"samples must be one-dimensional, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        try:
            object.__setattr__(self, "f_samp", float(self.f_samp))
        except (TypeError, ValueError):
            raise BadRateError(f"f_samp must be a number, got {self.f_samp!r}") from None
        try:
            object.__setattr__(self, "events", tuple(self.events))
        except TypeError:
            raise BadEventsError(f"events must be a sequence, got {self.events!r}") from None
        if len(arr) == 0:
            raise EmptySignalError("trial has no samples")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("trial contains NaN or infinite samples")
        if not (math.isfinite(self.f_samp) and self.f_samp > 0):
            raise BadRateError(f"f_samp must be positive and finite, got {self.f_samp}")
        prev = -1
        for e in self.events:
            if not isinstance(e, EventMarker):
                raise BadEventsError(f"events must be EventMarker instances, got {type(e).__name__}")
            if not 0 <= e.index < len(arr):
                raise BadEventsError(
                    f"event {e.label!r} at index {e.index} outside signal of length {len(arr)}"
                )
            if e.index <= prev:
                raise BadEventsError("event indices must be strictly increasing")
            prev = e.index

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def f_nyq(self) -> float:
        """Nyquist frequency, half the sampling rate."""
        return self.f_samp / 2.0

    def event(self, label: str) -> EventMarker:
        """Return the unique marker with the given label."""
        hits = [e for e in self.events if e.label == label]
        if not hits:
            raise MissingEventError(f"no event labelled {label!r}")
        if len(hits) > 1:
            raise DuplicateEventError(f"{len(hits)} events labelled {label!r}")
        return hits[0]


@dataclass(frozen=True)
class Partition:
    """Decomposition of a trial into pre / t1 / t2 / post index ranges.

    The boundaries are the onset, transition, and offset sample indices; the
    four half-open ranges tile [0, n_samples) exactly, with the transition
    sample belonging to t2. A bound that is not an integer raises
    ConfigError.
    """

    onset: int
    transition: int
    offset: int
    n_samples: int

    def __post_init__(self) -> None:
        bounds = (self.onset, self.transition, self.offset, self.n_samples)
        if not all(map(is_integer, bounds)):
            raise ConfigError(f"partition bounds must be integers, got {bounds}")
        if not 0 <= self.onset <= self.transition <= self.offset <= self.n_samples:
            raise ConfigError(
                "partition bounds must satisfy 0 <= onset <= transition <= offset <= n_samples, "
                f"got ({self.onset}, {self.transition}, {self.offset}, {self.n_samples})"
            )
        if self.transition == self.onset:
            raise DegenerateIntervalError("interval t1 is empty")
        if self.offset == self.transition:
            raise DegenerateIntervalError("interval t2 is empty")

    @property
    def pre(self) -> tuple[int, int]:
        return (0, self.onset)

    @property
    def t1(self) -> tuple[int, int]:
        return (self.onset, self.transition)

    @property
    def t2(self) -> tuple[int, int]:
        return (self.transition, self.offset)

    @property
    def post(self) -> tuple[int, int]:
        return (self.offset, self.n_samples)

    @property
    def len_t1(self) -> int:
        return self.transition - self.onset

    @property
    def len_t2(self) -> int:
        return self.offset - self.transition


def partition_from_events(trial: Trial) -> Partition:
    """Partition a trial at its onset, transition, and offset markers."""
    a, b, c = (trial.event(label).index for label in (ONSET, TRANSITION, OFFSET))
    if not a < b < c:
        raise DegenerateIntervalError(
            f"event indices must satisfy onset < transition < offset, got ({a}, {b}, {c})"
        )
    return Partition(onset=a, transition=b, offset=c, n_samples=len(trial))
