"""Windowed-sinc resampling of finite signal segments by arbitrary ratios.

Output sample k is read at input position t_k = k * (n_in - 1) / (n_out - 1),
so the first and last input samples map to the first and last output samples
and a resampled interval concatenates with untouched neighbours without a
step. Each output value is a windowed-sinc weighted sum of nearby input
samples, renormalised to unit gain at every output position; constants
therefore survive exactly. Beyond the segment ends the filter sees the
segment repeated periodically (the classical discrete-signal model), so a
segment whose ends do not match up rings near its endpoints; resample_padded
feeds the filter true neighbouring samples instead, pushing those artifacts
out of the interval of interest. When contracting with anti-aliasing enabled,
the kernel cutoff is lowered to the output rate so content above the new
Nyquist is attenuated rather than folded back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadOutputLengthError, RangeOutOfBoundsError, SegmentTooShortError

WINDOWS = ("kaiser", "hann", "blackman")
PAD_MODES = ("neighbor", "zero")

_KAISER_TABLE_SIZE = 1 << 16
_BLOCK = 1024  # output positions evaluated per block
_MAX_PAD = 1 << 24  # largest pad per side resample_padded builds: 128 MiB of float64


@lru_cache(maxsize=32)
def _kaiser_table(beta: float) -> np.ndarray:
    """Kaiser taper sampled on [0, 1]; dense enough that linear interpolation
    stays below 1e-9 of the exact Bessel evaluation."""
    r = np.linspace(0.0, 1.0, _KAISER_TABLE_SIZE + 1)
    table = np.i0(beta * np.sqrt(np.maximum(0.0, 1.0 - r * r))) / np.i0(beta)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SincConfig:
    """Filter shape for windowed-sinc resampling.

    half_width: taps per side, in input-sample units.
    window: taper applied to the sinc kernel; one of "kaiser", "hann",
        "blackman".
    beta: Kaiser shape parameter, ignored by the other windows.
    anti_alias: lower the kernel cutoff when contracting.
    """

    half_width: int = 32
    window: str = "kaiser"
    beta: float = 8.0
    anti_alias: bool = True

    def __post_init__(self) -> None:
        if self.half_width < 4:
            raise ValueError(f"half_width must be >= 4, got {self.half_width}")
        if self.window not in WINDOWS:
            raise ValueError(f"window must be one of {WINDOWS}, got {self.window!r}")
        if self.window == "kaiser":
            if not (np.isfinite(self.beta) and self.beta > 0):
                raise ValueError(f"Kaiser beta must be positive and finite, got {self.beta}")
            # the taper is divided by i0(beta), which overflows from about 709.8
            with np.errstate(over="ignore"):
                if not np.isfinite(np.i0(self.beta)):
                    raise ValueError(
                        f"Kaiser beta must keep i0(beta) finite, got {self.beta}")


def _window_values(u: np.ndarray, cfg: SincConfig) -> np.ndarray:
    """Taper value at offset u input samples from the kernel centre."""
    x = np.abs(u) / cfg.half_width
    inside = x <= 1.0
    x = np.where(inside, x, 1.0)
    if cfg.window == "kaiser":
        table = _kaiser_table(cfg.beta)
        pos = x * _KAISER_TABLE_SIZE
        left = np.minimum(pos.astype(np.int64), _KAISER_TABLE_SIZE - 1)
        frac = pos - left
        w = table[left] * (1.0 - frac) + table[left + 1] * frac
    elif cfg.window == "hann":
        w = 0.5 + 0.5 * np.cos(np.pi * x)
    else:  # blackman
        w = 0.42 + 0.5 * np.cos(np.pi * x) + 0.08 * np.cos(2.0 * np.pi * x)
    return np.where(inside, w, 0.0)


def _resample_at(segment: np.ndarray, positions: np.ndarray, cutoff: float,
                 cfg: SincConfig, shift: int = 0) -> np.ndarray:
    """Evaluate the windowed-sinc interpolant of segment at fractional positions.

    Positions, less shift, must lie in [0, len(segment) - 1]; shift is the
    number of samples dropped from the front of the signal the positions
    refer to, taken off the floored position so fractions keep their bits.
    Filter taps that fall outside the segment wrap around, i.e. the segment
    is modelled as one period of a periodic signal. Unless the signal
    happens to match across the wrap this is a step discontinuity, so short
    or unpadded segments ring near their endpoints; callers suppress that by
    padding the segment with true neighbouring samples first. The kernel is
    renormalised to unit gain at every output position, so constants are
    preserved exactly.

    Outputs are computed _BLOCK at a time, so every temporary holds at most
    _BLOCK x (2 * half_width + 1) values whatever the output length.
    """
    h = cfg.half_width
    taps = np.arange(-h, h + 1, dtype=np.float64)
    # rows[b] holds the taps of an output whose position floors to b
    extended = np.take(segment, np.arange(-h, len(segment) + h), mode="wrap")
    rows = sliding_window_view(extended, 2 * h + 1)
    out = np.empty(len(positions))
    for s in range(0, len(positions), _BLOCK):
        pos = positions[s:s + _BLOCK]
        base = np.floor(pos)
        frac = pos - base
        base = base.astype(np.int64) - shift
        u = taps - frac[:, None]
        kernel = cutoff * np.sinc(cutoff * u) * _window_values(u, cfg)
        block = (kernel * rows[base]).sum(axis=1) / kernel.sum(axis=1)
        if cutoff == 1.0:
            # At unit cutoff the kernel is an exact delta on integral positions.
            integral = frac == 0.0
            block[integral] = segment[base[integral]]
        out[s:s + _BLOCK] = block
    return out


def _cutoff(in_len: int, out_len: int, cfg: SincConfig) -> float:
    if not cfg.anti_alias or out_len >= in_len or out_len < 2:
        return 1.0
    return (out_len - 1) / (in_len - 1)


def resample(segment, out_len: int, cfg: SincConfig = SincConfig()) -> np.ndarray:
    """Resample a segment to out_len samples by windowed-sinc interpolation.

    Endpoints map to endpoints, so out_len == len(segment) is the identity.
    This is resample_padded of the whole segment without pads.
    """
    seg = np.asarray(segment, dtype=np.float64)
    if seg.size < 2:
        raise SegmentTooShortError(f"segment needs at least 2 samples, got {seg.size}")
    return resample_padded(seg, (0, len(seg)), out_len, 0, 0, cfg)


def resample_padded(full, index_range: tuple[int, int], out_len: int,
                    pad_left: int, pad_right: int,
                    cfg: SincConfig = SincConfig(),
                    pad_mode: str = "neighbor") -> np.ndarray:
    """Resample full[start:stop] to out_len samples with side padding.

    The segment is extended by pad_left / pad_right samples of the true
    neighbouring signal (clamped at the trial boundary, any deficit filled by
    repeating the edge value) and evaluated at exactly the out_len output
    positions covering [start, stop), a grid whose step matches the target
    interval and whose ends are the interval's first and last samples; the
    pads only feed the filter taps. pad_mode "zero" fills the extensions with
    zeros instead, for comparing against zero-padding.
    """
    x = np.asarray(full, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {x.shape}")
    start, stop = int(index_range[0]), int(index_range[1])
    if not 0 <= start < stop <= len(x):
        raise RangeOutOfBoundsError(
            f"range [{start}, {stop}) does not fit signal of length {len(x)}"
        )
    if not (0 <= pad_left <= _MAX_PAD and 0 <= pad_right <= _MAX_PAD):
        raise RangeOutOfBoundsError(
            f"pad amounts must lie in [0, {_MAX_PAD}], got ({pad_left}, {pad_right})"
        )
    if pad_mode not in PAD_MODES:
        raise ValueError(f"pad_mode must be one of {PAD_MODES}, got {pad_mode!r}")
    in_len = stop - start
    if in_len < 2:
        raise SegmentTooShortError(f"interval needs at least 2 samples, got {in_len}")
    if int(out_len) != out_len or out_len < 1:
        raise BadOutputLengthError(f"output length must be a positive integer, got {out_len}")
    out_len = int(out_len)

    # No tap reaches past half_width samples from the interval, so when both
    # pads reach that far only half_width samples per side are built. A
    # shorter pad lets taps wrap into the far pad, which is then kept whole.
    left, right = pad_left, pad_right
    if min(pad_left, pad_right) >= cfg.half_width:
        left = right = cfg.half_width
    if pad_mode == "zero":
        padded = np.pad(x[start:stop], (left, right))
    else:
        padded = x[np.clip(np.arange(start - left, stop + right), 0, len(x) - 1)]
    positions = pad_left + np.linspace(0.0, in_len - 1.0, out_len)
    return _resample_at(padded, positions, _cutoff(in_len, out_len, cfg), cfg,
                        pad_left - left)
