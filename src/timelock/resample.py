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
unpadded segment whose ends do not match up rings near its endpoints.
resample_pads gives the outputs at several pads from one pass of the
kernel, which evaluates a narrower pad's outputs only where its pad is
read. When contracting with anti-aliasing enabled, the kernel cutoff is
lowered to the output rate so content above the new Nyquist is attenuated
rather than folded back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BadOutputLengthError, ConfigError, RangeOutOfBoundsError,
                     SegmentTooShortError)
from .model import MAX_SAMPLES as _MAX_OUT_LEN  # longest output resample_padded builds
from .model import is_integer

WINDOWS = ("kaiser", "hann", "blackman")
PAD_MODES = ("neighbor", "zero")

_TABLE_POINTS = 1 << 16  # taper table points per unit of |u| / half_width, at least
_CELLS = 1 << 14  # kernel cells (outputs x taps) evaluated per block
_OUTPUTS = 1 << 13  # output positions made per chunk
_EPS = float(np.finfo(np.float64).eps)  # np.sinc's stand-in for a zero argument
_MAX_PAD = 1 << 24  # largest pad accepted per side: an input check, as at most half_width are read
_MAX_HALF_WIDTH = 1 << 12  # widest kernel: one row of taps fits in _CELLS


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
            raise ConfigError(f"half_width must be an integer, got {self.half_width!r}")
        if self.half_width < 4:
            raise ConfigError(f"half_width must be >= 4, got {self.half_width}")
        if self.half_width > _MAX_HALF_WIDTH:
            raise ConfigError(f"half_width must be <= {_MAX_HALF_WIDTH}, got {self.half_width}")
        if self.window not in WINDOWS:
            raise ConfigError(f"window must be one of {WINDOWS}, got {self.window!r}")
        if self.window == "kaiser":
            if not (np.isfinite(self.beta) and self.beta > 0):
                raise ConfigError(f"Kaiser beta must be positive and finite, got {self.beta}")
            # the taper is divided by i0(beta), which overflows from about 709.8
            with np.errstate(over="ignore"):
                if not np.isfinite(np.i0(self.beta)):
                    raise ConfigError(
                        f"Kaiser beta must keep i0(beta) finite, got {self.beta}")


def _i0_series_minus_1(beta: float, u):
    """(i0(z) - 1) / (beta / 2)**2 at z = beta * sqrt(u), for 0 <= z < 2, by
    the power series sum(u * t**(k - 1) / (k!)**2, k >= 1) with t = (z /
    2)**2, where np.i0(z) - 1 would lose digits to cancellation. The factor
    (beta / 2)**2 is taken out of every term, so the sum does not underflow
    when beta is tiny; it tends to u as beta goes to 0."""
    t = (beta / 2.0) ** 2 * u
    term = np.array(u, dtype=np.float64)
    total = term.copy()
    for k in range(2, 16):  # the k = 15 term is below 1e-24 at z = 2
        term *= t
        term /= k * k
        total += term
    return total


@lru_cache(maxsize=32)
def _taper_table(window: str, beta: float, half_width: int) -> np.ndarray:
    """The taper at |u| = i + q / S, as table[q, i] for q = 0..S and
    i = 0..half_width, where S = ceil(_TABLE_POINTS / half_width).

    u is the offset from the kernel centre in input samples. The taper is 1
    at u == 0 and 0 from |u| == half_width on, so it is continuous at the
    window's edge: the Kaiser window w is taken as (w - w_edge) / (1 -
    w_edge), which is (i0(beta * sqrt(1 - x**2)) - 1) / (i0(beta) - 1) at x
    = |u| / half_width. Linear interpolation between rows q and q + 1 is
    within about 1e-10 of the exact taper at the default filters.
    """
    h = half_width
    s = -(-_TABLE_POINTS // h)
    x = np.minimum((np.arange(h + 1) + np.arange(s + 1)[:, None] / s) / h, 1.0)
    if window == "kaiser":
        if beta < 2.0:
            table = _i0_series_minus_1(beta, 1.0 - x * x) / _i0_series_minus_1(beta, 1.0)
        else:
            z = beta * np.sqrt(1.0 - x * x)
            # np.i0 holds about ten temporaries the size of its argument;
            # it works elementwise, so a few rows at a time give the same bits
            i0 = np.concatenate([np.i0(part) for part in np.array_split(z, 16)])
            table = (i0 - 1.0) / (np.i0(beta) - 1.0)
    else:
        # hann: 0.5 + 0.5 cos(pi x); blackman: 0.42 + 0.5 cos(pi x) + 0.08 cos(2 pi x)
        table = 0.5 * np.cos(np.pi * x) + (0.5 if window == "hann" else 0.42)
        if window == "blackman":
            table += 0.08 * np.cos(2.0 * np.pi * x)
    table[x == 1.0] = 0.0
    table.flags.writeable = False
    return table


def _resample_at(reach: np.ndarray, base: np.ndarray, frac: np.ndarray,
                 cutoff: float, cfg: SincConfig) -> np.ndarray:
    """Evaluate the windowed-sinc interpolant at positions base + frac.

    base holds integer indices into the interval and frac fractions in
    [0, 1). reach holds every sample a tap can read: the interval and
    half_width samples on each side, so reach[base + h + j] is tap j of the
    output at base. The kernel is renormalised to unit gain at every output
    position, so constants are preserved exactly.

    Tap j of an output at base + f sits at u = j - f: taps j <= 0 at |u| = i
    + f and taps j >= 1 at |u| = i + (1 - f), for i = |j| and i = j - 1. So
    each side of an output is one half row, i = 0..half_width, at one phase
    phi, f or 1 - f. Its kernel value is sinc(cutoff * (i + phi)) times the
    taper there. The sine's angle a * i + a * phi, a = pi * cutoff, is taken
    apart by angle addition, sin(a i) cos(a phi) + cos(a i) sin(a phi), so
    each half row costs one sine and one cosine. At unit cutoff sin(a i) is
    0 and cos(a i) is (-1)**i, so the numerator is (-1)**i sin(a phi): one
    sine per half row, with its sign taken from the tap. The taper is two
    rows of the taper table, interpolated with one weight. The half row i =
    0, phi = 0 is the centre tap of an integral position, where both parts
    of the sinc are eps, as in np.sinc; at unit cutoff no integral position
    is evaluated.

    Outputs are computed in blocks of at most _CELLS kernel cells (outputs x
    taps), so the temporaries stay bounded whatever the output length. Every
    pass over a block's half rows runs on contiguous arrays of one shape:
    the per-tap constants are tiled over the rows once per call, for no more
    outputs than the call evaluates, the per-output values are repeated
    along the rows, and the outer products of the numerator are formed by
    np.einsum, which makes single products and no sums.
    """
    h = cfg.half_width
    width = 2 * h + 1
    # rows[b] holds the taps of an output whose position floors to b, a
    # view of the contiguous reach
    rows = np.ndarray((len(reach) - width + 1, width), None, reach, 0, reach.strides * 2)
    out = np.empty(len(base))
    if cutoff == 1.0:
        # At unit cutoff the kernel is an exact delta on integral positions.
        integral = frac == 0.0
        out[integral] = reach[base[integral] + h]
        todo = np.flatnonzero(~integral)
    else:
        todo = np.arange(len(base))
    table = _taper_table(cfg.window, cfg.beta, h)
    phases = len(table) - 1
    a = np.pi * cutoff
    i = np.arange(h + 1)
    n = max(1, min(_CELLS // width, len(todo)))
    angles = np.repeat((a * i)[None, :], 2 * n, axis=0)
    if cutoff == 1.0:
        signs = np.ones((2 * n, h + 1))
        signs[:, 1::2] = -1.0
    else:
        sin_i, cos_i = np.sin(angles[0]), np.cos(angles[0])
    for s in range(0, len(todo), n):
        which = todo[s:s + n]
        f = frac[which]
        k = len(which)
        # half rows 0..k - 1 at phase f, half rows k..2k - 1 at phase 1 - f
        phi = np.concatenate((f, 1.0 - f))
        # the taper at phase p = phi * phases, between table rows q and q + 1
        p = phi * phases
        q = np.minimum(p.astype(np.int64), phases - 1)
        low = np.take(table, q, axis=0)
        taper = np.take(table, q + 1, axis=0)
        taper -= low
        taper *= np.repeat(p - q, h + 1).reshape(2 * k, h + 1)
        taper += low
        # each del frees a block of half rows before the next one is made,
        # so no more than four are alive at once
        del low
        # the sinc's numerator goes into half and its denominator into den
        aphi = a * phi
        if cutoff == 1.0:
            half = np.repeat(np.sin(aphi), h + 1).reshape(2 * k, h + 1)
            half *= signs[:2 * k]
        else:
            half = np.einsum("o,i->oi", np.cos(aphi), sin_i)
            half += np.einsum("o,i->oi", np.sin(aphi), cos_i)
        den = np.repeat(aphi, h + 1).reshape(2 * k, h + 1)
        den += angles[:2 * k]
        if cutoff != 1.0:
            centre = np.flatnonzero(f == 0.0)
            half[centre, 0] = den[centre, 0] = _EPS
        half /= den
        half *= taper
        del den, taper
        # taps -h..0 are the phase-f half row reversed, taps 1..h the first h
        # entries of the phase-(1 - f) half row
        kernel = np.concatenate((half[:k, ::-1], half[k:, :h]), axis=1)
        values = rows[base[which]]
        values *= kernel
        out[which] = values.sum(axis=1) / kernel.sum(axis=1)
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
    (out,) = resample_pads(full, index_range, out_len, (pad,), cfg, pad_mode).values()
    return out


def resample_pads(full, index_range: tuple[int, int], out_len: int, pads,
                  cfg: SincConfig = SincConfig(),
                  pad_mode: str = "neighbor") -> dict[int, np.ndarray]:
    """resample_padded(full, index_range, out_len, pad, cfg, pad_mode) at
    each pad of pads, as {built_pad(pad, half_width): output}, bit for bit.

    For built pads b < b', the samples the taps reach agree on every sample
    up to b past the interval: both are the interval's neighbours, clamped
    or zeroed the same way. So an output at t reads the same taps at either
    pad unless floor(t) < h - b or floor(t) >= n_in - h + b (h the half
    width, n_in the interval's length). The widest built pad's whole grid,
    and for each narrower one only that prefix and suffix of the grid, are
    evaluated in one pass of the kernel over the reaches of every pad; the
    rest of a narrower output is copied from the widest. The arguments are
    checked as resample_padded checks them, each pad as its pad; pads must
    not be empty.
    """
    x, start, stop, bs, n_out = _checked(full, index_range, out_len, pads, cfg, pad_mode)
    h, n_in = cfg.half_width, stop - start
    out = np.empty((len(bs), n_out))
    # row 0, the widest pad, whole; each narrower row its suffix
    # max(lo, hi)..n_out - 1, then its prefix 0..lo - 1, read cyclically:
    # each output once, all of them when the two overlap
    ranges = [(0, n_out)]
    for b in bs[1:]:
        lo, hi = (_first_at_least(edge, n_in, n_out) for edge in (h - b, n_in - h + b))
        ranges.append((max(lo, hi) - n_out, lo))
    _fill(out, ranges, _reach(x, start, stop, bs, h, pad_mode), n_in, cfg)
    for row, (first, lo) in enumerate(ranges[1:], 1):
        out[row, lo:first + n_out] = out[0, lo:first + n_out]
    return dict(zip(bs, out))


def grid_position(k, n_in: int, n_out: int):
    """np.linspace(0.0, n_in - 1.0, n_out)[k], bit for bit, for an index or
    an array of indices k, without building the n_out-long array: k * step +
    0.0 with step = (n_in - 1.0) / (n_out - 1), n_in - 1.0 at k == n_out - 1,
    and 0.0 when n_out == 1."""
    if n_out == 1:
        return k * 0.0
    t = k * ((n_in - 1.0) / (n_out - 1)) + 0.0
    if np.ndim(t):
        t[k == n_out - 1] = n_in - 1.0
        return t
    return n_in - 1.0 if k == n_out - 1 else t


def _first_at_least(edge: int, n_in: int, n_out: int) -> int:
    """The first k with grid_position(k, n_in, n_out) >= edge, or n_out if
    there is none. ceil(edge / step) is off by at most one, from the
    rounding of the quotient and of the positions, and a probe on either
    side of it puts it right."""
    if n_out == 1:
        return int(edge > 0)
    k = min(max(math.ceil(edge / ((n_in - 1.0) / (n_out - 1))), 0), n_out)
    if k > 0 and grid_position(k - 1, n_in, n_out) >= edge:
        return k - 1
    if k < n_out and grid_position(k, n_in, n_out) < edge:
        return k + 1
    return k


def _checked(full, index_range, out_len, pads, cfg: SincConfig, pad_mode: str):
    """The signal as float64, start, stop, the distinct built pads of pads,
    widest first, and out_len, after the checks resample_padded documents."""
    x = np.asarray(full, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError(f"signal must be one-dimensional, got shape {x.shape}")
    start, stop = int(index_range[0]), int(index_range[1])
    if not 0 <= start < stop <= len(x):
        raise RangeOutOfBoundsError(
            f"range [{start}, {stop}) does not fit signal of length {len(x)}"
        )
    bs = sorted({built_pad(pad, cfg.half_width) for pad in pads}, reverse=True)
    if not bs:
        raise ConfigError("pads must not be empty")
    if pad_mode not in PAD_MODES:
        raise ConfigError(f"pad_mode must be one of {PAD_MODES}, got {pad_mode!r}")
    in_len = stop - start
    if in_len < 2:
        raise SegmentTooShortError(f"interval needs at least 2 samples, got {in_len}")
    if not is_integer(out_len) or out_len < 1:
        raise BadOutputLengthError(f"output length must be a positive integer, got {out_len}")
    if out_len > _MAX_OUT_LEN:
        raise BadOutputLengthError(
            f"output length {out_len} exceeds the limit of {_MAX_OUT_LEN} samples")
    return x, start, stop, bs, int(out_len)


def _reach(x: np.ndarray, start: int, stop: int, bs, h: int, pad_mode: str) -> np.ndarray:
    """The samples the taps reach at each built pad b of bs, one row per pad
    from one gather: half_width h per side of x[start:stop] padded by b; a
    tap past a pad shorter than h wraps into the other pad."""
    in_len = stop - start
    b = np.array(bs)[:, None]
    source = start - b + (np.arange(in_len + 2 * h) + (b - h)) % (in_len + 2 * b)
    reach = x[np.clip(source, 0, len(x) - 1)]
    if pad_mode == "zero":
        reach[(source < start) | (source >= stop)] = 0.0
    return reach


def _fill(out: np.ndarray, ranges, reach: np.ndarray, n_in: int, cfg: SincConfig) -> None:
    """Evaluate the outputs k % n_out of out[row] for k in lo..hi - 1, with
    (lo, hi) = ranges[row], from the taps in reach[row]; every row of out
    is the grid of n_out positions over n_in samples. The ranges are read
    in order as one run of positions, _OUTPUTS at a time, each chunk in one
    kernel call: no array as long as a row is made."""
    n_out, width = out.shape[1], reach.shape[1]
    cutoff = _cutoff(n_in, n_out, cfg)
    flat_out, flat_reach = out.reshape(-1), reach.reshape(-1)
    lo, hi = np.array(ranges).T
    ends = np.cumsum(hi - lo)
    shift = hi - ends  # position v of the run is k = v + shift[row] of its row
    for s in range(0, ends[-1], _OUTPUTS):
        v = np.arange(s, min(s + _OUTPUTS, ends[-1]))
        row = np.searchsorted(ends, v, side="right")
        k = (v + shift[row]) % n_out
        t = grid_position(k, n_in, n_out)
        whole = np.floor(t)
        flat_out[row * n_out + k] = _resample_at(
            flat_reach, whole.astype(np.int64) + row * width, t - whole, cutoff, cfg)
