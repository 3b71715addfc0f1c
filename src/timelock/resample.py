"""Windowed-sinc resampling of finite signal segments by arbitrary ratios.

Output sample k is read at input position t_k = k * (n_in - 1) / (n_out - 1),
so the first and last input samples map to the first and last output samples
and a resampled interval concatenates with untouched neighbours without a
step. Each output value is a windowed-sinc weighted sum of nearby input
samples, renormalised to unit gain at every output position; constants
therefore survive exactly. resample_padded extends the segment by one pad of
true neighbouring samples per side, pushing endpoint ringing out of the
interval of interest; no tap reaches more than half_width samples past the
interval, so only min(pad, half_width) samples per side are ever read. Taps
past a shorter pad see the padded segment repeated periodically (the
classical discrete-signal model) and wrap into the opposite pad, so an
unpadded segment whose ends do not match up rings near its endpoints. When
contracting with anti-aliasing enabled, the kernel cutoff is lowered to the
output rate so content above the new Nyquist is attenuated rather than
folded back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadOutputLengthError, RangeOutOfBoundsError, SegmentTooShortError
from .model import is_integer

WINDOWS = ("kaiser", "hann", "blackman")
PAD_MODES = ("neighbor", "zero")

_KAISER_TABLE_SIZE = 1 << 16
_CELLS = 1 << 14  # kernel cells (outputs x taps) evaluated per block
_EPS = float(np.finfo(np.float64).eps)  # np.sinc's stand-in for a zero argument
_MAX_PAD = 1 << 24  # largest pad accepted per side: an input check, as at most half_width are read
_MAX_HALF_WIDTH = 1 << 12  # widest kernel: one row of taps fits in _CELLS
_MAX_OUT_LEN = 1 << 24  # longest output resample_padded builds: 128 MiB of float64


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

    half_width: taps per side, in input-sample units; an integer in
        [4, 4096].
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
        if not is_integer(self.half_width):
            raise ValueError(f"half_width must be an integer, got {self.half_width!r}")
        if self.half_width < 4:
            raise ValueError(f"half_width must be >= 4, got {self.half_width}")
        if self.half_width > _MAX_HALF_WIDTH:
            raise ValueError(f"half_width must be <= {_MAX_HALF_WIDTH}, got {self.half_width}")
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


def _taper(x: np.ndarray, cfg: SincConfig, out: np.ndarray,
           scratch: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Taper at x = |u| / half_width, for x in [0, 1], written into out.

    u is the offset from the kernel centre in input samples. x is
    overwritten; scratch (float64) and index (int64) are work buffers of
    its shape.
    """
    if cfg.window == "kaiser":
        table = _kaiser_table(cfg.beta)
        pos = np.multiply(x, _KAISER_TABLE_SIZE, out=x)
        np.copyto(index, pos, casting="unsafe")
        np.minimum(index, _KAISER_TABLE_SIZE - 1, out=index)
        frac = np.subtract(pos, index, out=x)
        # table[index] * (1 - frac) + table[index + 1] * frac
        np.take(table, index, out=out, mode="clip")
        np.multiply(out, np.subtract(1.0, frac, out=scratch), out=out)
        index += 1
        np.take(table, index, out=scratch, mode="clip")
        np.add(out, np.multiply(scratch, frac, out=scratch), out=out)
    else:
        # hann: 0.5 + 0.5 cos(pi x); blackman: 0.42 + 0.5 cos(pi x) + 0.08 cos(2 pi x)
        np.cos(np.multiply(x, np.pi, out=out), out=out)
        np.multiply(out, 0.5, out=out)
        if cfg.window == "hann":
            np.add(out, 0.5, out=out)
        else:
            np.add(out, 0.42, out=out)
            np.cos(np.multiply(x, 2.0 * np.pi, out=scratch), out=scratch)
            np.add(out, np.multiply(scratch, 0.08, out=scratch), out=out)
    return out


def _resample_at(reach: np.ndarray, base: np.ndarray, frac: np.ndarray,
                 cutoff: float, cfg: SincConfig) -> np.ndarray:
    """Evaluate the windowed-sinc interpolant at positions base + frac.

    base holds integer indices into the interval and frac fractions in
    [0, 1). reach holds every sample a tap can read: the interval and
    half_width samples on each side, so reach[base + h + j] is tap j of the
    output at base. The kernel is renormalised to unit gain at every output
    position, so constants are preserved exactly.

    Outputs are computed in blocks of at most _CELLS kernel cells (outputs x
    taps), in preallocated buffers, so the temporaries stay bounded whatever
    the output length.
    """
    h = cfg.half_width
    width = 2 * h + 1
    # rows[b] holds the taps of an output whose position floors to b
    rows = sliding_window_view(reach, width)
    out = np.empty(len(base))
    if cutoff == 1.0:
        # At unit cutoff the kernel is an exact delta on integral positions.
        integral = frac == 0.0
        out[integral] = reach[base[integral] + h]
        todo = np.flatnonzero(~integral)
    else:
        todo = np.arange(len(base))
    taps = np.arange(-h, h + 1, dtype=np.float64)
    n = max(1, _CELLS // width)
    u, arg, kernel, scratch = (np.empty((n, width)) for _ in range(4))
    index = np.empty((n, width), dtype=np.int64)
    for s in range(0, len(todo), n):
        which = todo[s:s + n]
        f = frac[which]
        k = len(which)
        u_, arg_, kernel_, scratch_, index_ = (
            v[:k] for v in (u, arg, kernel, scratch, index))
        np.subtract(taps, f[:, None], out=u_)
        # np.sinc(cutoff * u): sin(x) / x at x = pi * cutoff * u, with x == 0
        # replaced by eps; u is 0 only at the centre tap of an integral position
        x = u_ if cutoff == 1.0 else np.multiply(u_, cutoff, out=arg_)
        x = np.multiply(x, np.pi, out=arg_)
        centre = x[:, h]
        centre[centre == 0.0] = _EPS
        sinc = np.divide(np.sin(x, out=scratch_), x, out=arg_)
        if cutoff != 1.0:
            np.multiply(sinc, cutoff, out=sinc)
        # only the first tap can lie outside the window, |u| > half_width
        x = np.divide(np.abs(u_, out=u_), h, out=u_)
        outside = x[:, 0] > 1.0
        x[outside, 0] = 1.0
        window = _taper(x, cfg, kernel_, scratch_, index_)
        window[outside, 0] = 0.0
        kernel_ = np.multiply(sinc, window, out=kernel_)
        values = rows[base[which]]
        np.multiply(values, kernel_, out=values)
        out[which] = values.sum(axis=1) / kernel_.sum(axis=1)
    return out


def _cutoff(in_len: int, out_len: int, cfg: SincConfig) -> float:
    if not cfg.anti_alias or out_len >= in_len or out_len < 2:
        return 1.0
    return (out_len - 1) / (in_len - 1)


def built_pad(pad: int, half_width: int) -> int:
    """The pad resample_padded reads per side for the pad it is given.

    No tap reaches past half_width samples from the interval, so pads of
    half_width or more read the same samples. Raises RangeOutOfBoundsError
    for a pad that is not an integer in [0, _MAX_PAD]; a bool is not one.
    """
    if not is_integer(pad):
        raise RangeOutOfBoundsError(f"pad must be an integer, got {pad!r}")
    if not 0 <= pad <= _MAX_PAD:
        raise RangeOutOfBoundsError(f"pad must lie in [0, {_MAX_PAD}], got {pad}")
    return min(pad, half_width)


def resample(segment, out_len: int, cfg: SincConfig = SincConfig()) -> np.ndarray:
    """Resample a segment to out_len samples by windowed-sinc interpolation.

    Endpoints map to endpoints, so out_len == len(segment) is the identity.
    This is resample_padded of the whole segment with pad 0.
    """
    seg = np.asarray(segment, dtype=np.float64)
    if seg.size < 2:
        raise SegmentTooShortError(f"segment needs at least 2 samples, got {seg.size}")
    return resample_padded(seg, (0, len(seg)), out_len, 0, cfg)


def resample_padded(full, index_range: tuple[int, int], out_len: int, pad: int,
                    cfg: SincConfig = SincConfig(),
                    pad_mode: str = "neighbor") -> np.ndarray:
    """Resample full[start:stop] to out_len samples with pad samples per side.

    The segment is extended on each side by pad samples of the true
    neighbouring signal (clamped at the trial boundary, any deficit filled by
    repeating the edge value) and evaluated at exactly the out_len output
    positions covering [start, stop), a grid whose step matches the target
    interval and whose ends are the interval's first and last samples; the
    pad only feeds the filter taps. pad_mode "zero" fills the extensions with
    zeros instead, for comparing against zero-padding.

    Output k is read at t = linspace(0, stop - start - 1, out_len)[k] past
    start, taken apart as floor(t) and t - floor(t) (an exact subtraction),
    so the pad moves no position's bits. Only built_pad(pad, half_width)
    samples per side are read, and pads with the same built_pad give
    bitwise identical outputs. An out_len that is not a positive integer
    (numbers.Integral, not bool) or is over 2**24 raises
    BadOutputLengthError before anything is allocated.
    """
    x = np.asarray(full, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {x.shape}")
    start, stop = int(index_range[0]), int(index_range[1])
    if not 0 <= start < stop <= len(x):
        raise RangeOutOfBoundsError(
            f"range [{start}, {stop}) does not fit signal of length {len(x)}"
        )
    b = built_pad(pad, cfg.half_width)
    if pad_mode not in PAD_MODES:
        raise ValueError(f"pad_mode must be one of {PAD_MODES}, got {pad_mode!r}")
    in_len = stop - start
    if in_len < 2:
        raise SegmentTooShortError(f"interval needs at least 2 samples, got {in_len}")
    if not is_integer(out_len) or out_len < 1:
        raise BadOutputLengthError(f"output length must be a positive integer, got {out_len}")
    if out_len > _MAX_OUT_LEN:
        raise BadOutputLengthError(
            f"output length {out_len} exceeds the limit of {_MAX_OUT_LEN} samples")
    out_len = int(out_len)

    # the samples the taps reach: half_width per side of the segment padded
    # by b; a tap past a pad shorter than half_width wraps into the other pad
    h = cfg.half_width
    source = start - b + np.arange(b - h, b - h + in_len + 2 * h) % (in_len + 2 * b)
    reach = x[np.clip(source, 0, len(x) - 1)]
    if pad_mode == "zero":
        reach[(source < start) | (source >= stop)] = 0.0
    t = np.linspace(0.0, in_len - 1.0, out_len)
    whole = np.floor(t)
    return _resample_at(reach, whole.astype(np.int64), t - whole,
                        _cutoff(in_len, out_len, cfg), cfg)
