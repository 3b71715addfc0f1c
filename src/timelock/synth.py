"""Deterministic two-tone demonstration trial and parametric variants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadEventFracsError, BadRateError, ConfigError, NyquistViolationError
from .model import MAX_SAMPLES as _MAX_SAMPLES  # longest trial generate builds
from .model import OFFSET, ONSET, TRANSITION, EventMarker, Trial, is_finite


def _holds(value, n: int) -> bool:
    """Whether value has n entries: False for one without a length, such as
    None, a number or a 0-d array, whose len() raises TypeError."""
    try:
        return len(value) == n
    except TypeError:
        return False


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for the demonstration trial.

    Defaults give a 4 s trial at 2048 Hz mixing unit-amplitude sines at
    5/pi Hz and 5/2 Hz (mutually non-divisible, so the mix never repeats)
    with onset/transition/offset markers at the quarter points. A trial
    holds at most 2**24 samples, round(duration_s * f_samp).
    """

    f_samp: float = 2048.0
    f1: float = 5.0 / math.pi
    f2: float = 5.0 / 2.0
    duration_s: float = 4.0
    event_fracs: tuple[float, float, float] = (0.25, 0.50, 0.75)
    amplitudes: tuple[float, float] = (1.0, 1.0)
    phases: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (is_finite(self.f_samp) and self.f_samp > 0):
            raise BadRateError(f"f_samp must be positive and finite, got {self.f_samp}")
        if not (is_finite(self.duration_s) and self.duration_s > 0):
            raise ConfigError(f"duration_s must be positive, got {self.duration_s}")
        n = self.duration_s * self.f_samp
        if not (math.isfinite(n) and round(n) <= _MAX_SAMPLES):
            raise ConfigError(
                f"duration_s * f_samp = {n} samples exceeds the limit of {_MAX_SAMPLES}")
        nyq = self.f_samp / 2.0
        for name, f in (("f1", self.f1), ("f2", self.f2)):
            if not (is_finite(f) and f > 0):
                raise ConfigError(f"{name} must be positive and finite, got {f}")
            if f >= nyq:
                raise NyquistViolationError(f"{name} = {f} is not below f_nyq = {nyq}")
        if not _holds(self.event_fracs, 3):
            raise BadEventFracsError(f"need exactly 3 event fractions, got {self.event_fracs!r}")
        prev = 0.0
        for frac in self.event_fracs:
            if not (is_finite(frac) and prev < frac < 1.0):
                raise BadEventFracsError(
                    f"event fractions must be strictly increasing within (0, 1), got {self.event_fracs}"
                )
            prev = frac
        if not all(_holds(v, 2) for v in (self.amplitudes, self.phases)):
            raise ConfigError("amplitudes and phases must each hold two values")
        for name, values in (("amplitudes", self.amplitudes), ("phases", self.phases)):
            if not all(is_finite(v) for v in values):
                raise ConfigError(f"{name} must be finite, got {values}")


def generate(spec: SynthSpec) -> Trial:
    """Render the demonstration trial: two-sine mix plus its three markers.

    samples[n] = a1*sin(2*pi*f1*n/f_samp + p1) + a2*sin(2*pi*f2*n/f_samp + p2)
    for n in [0, round(duration_s * f_samp)); markers sit at round(frac * len).
    Identical specs produce bitwise-identical trials.
    """
    n = round(spec.duration_s * spec.f_samp)
    t = np.arange(n) / spec.f_samp
    a1, a2 = spec.amplitudes
    p1, p2 = spec.phases
    # a mix of finite amplitudes past the float range is inf, which Trial refuses
    with np.errstate(over="ignore"):
        x = a1 * np.sin(2.0 * math.pi * spec.f1 * t + p1) + a2 * np.sin(2.0 * math.pi * spec.f2 * t + p2)
    indices = [round(frac * n) for frac in spec.event_fracs]
    if not (0 < indices[0] < indices[1] < indices[2] < n):
        raise BadEventFracsError(
            f"event fractions {spec.event_fracs} round to invalid indices {indices} for {n} samples"
        )
    events = (
        EventMarker(indices[0], ONSET),
        EventMarker(indices[1], TRANSITION),
        EventMarker(indices[2], OFFSET),
    )
    return Trial(x, spec.f_samp, events)
