"""End-to-end trial warping: partition, pad, resample, truncate, concatenate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRateError,
    BadTargetError,
    EmptyBatchError,
    InconsistentTrialsError,
    ZeroVarianceError,
)
from .metrics import DtwScore, _unit_scale, dtw_scores, energy, pearson
from .model import EventMarker, Partition, Trial, is_finite, is_integer
from .resample import SincConfig, grid_position, resample_padded


@dataclass(frozen=True)
class WarpSpec:
    """Target lengths and padding policy for the two warpable intervals."""

    t1_target_len: int
    t2_target_len: int
    pad: int = 0
    preserve_length: bool = True

    def __post_init__(self) -> None:
        for name, v in (("t1_target_len", self.t1_target_len),
                        ("t2_target_len", self.t2_target_len)):
            if not is_integer(v) or v < 1:
                raise BadTargetError(f"{name} must be a positive integer, got {v}")
        if not is_integer(self.pad) or self.pad < 0:
            raise BadTargetError(f"pad must be a non-negative integer, got {self.pad}")


@dataclass(frozen=True)
class IntervalReport:
    """Per-interval warp quality: ratio, correlation, DTW, and energies.

    energy_ratio is ratio * E_out / E_in; 1.0 means energy scaled exactly as
    predicted, and NaN means the original interval is all zeros. It is
    finite wherever the true ratio is, also when E_in or E_out is 0 or inf.
    """

    ratio: float
    correlation: float
    dtw: DtwScore
    energy_in: float
    energy_out: float
    energy_ratio: float


@dataclass(frozen=True)
class WarpReport:
    """A warped trial plus the per-interval quality metrics."""

    warped: Trial
    t1: IntervalReport
    t2: IntervalReport

    @property
    def intervals(self) -> dict[str, IntervalReport]:
        return {"t1": self.t1, "t2": self.t2}


def plan_warp(p: Partition, t1_target: int, t2_target: int, pad_fraction: float,
              f_samp: float, preserve_length: bool = True) -> WarpSpec:
    """Build a WarpSpec: the pad is round(pad_fraction * f_samp) per side.

    In preserving mode (the default) the targets must sum to the current
    warpable length so the output trial keeps the input length.
    """
    if not (is_finite(pad_fraction) and pad_fraction >= 0):
        raise BadTargetError(f"pad_fraction must be >= 0 and finite, got {pad_fraction}")
    if not (is_finite(f_samp) and f_samp > 0):
        raise BadRateError(f"f_samp must be positive and finite, got {f_samp}")
    if preserve_length and t1_target + t2_target != p.len_t1 + p.len_t2:
        raise BadTargetError(
            f"targets {t1_target}+{t2_target} must preserve the warpable length "
            f"{p.len_t1}+{p.len_t2}={p.len_t1 + p.len_t2}"
        )
    if not math.isfinite(pad_fraction * f_samp):
        raise BadTargetError(f"pad_fraction {pad_fraction} at f_samp {f_samp} overflows")
    return WarpSpec(t1_target, t2_target, pad=round(pad_fraction * f_samp),
                    preserve_length=preserve_length)


def warp_trial(trial: Trial, p: Partition, spec: WarpSpec,
               cfg: SincConfig = SincConfig(), pad_mode: str = "neighbor") -> WarpReport:
    """Warp the middle two intervals of a trial to the spec's target lengths.

    The pre and post ranges are copied verbatim; t1 and t2 are padded with
    neighbouring signal, resampled, truncated, and concatenated back in.
    Event markers are remapped onto the new grid (distinct markers that land
    on the same output sample after a contraction raise BadEventsError).

    Each interval's report carries the rescale ratio, the Pearson correlation
    of the warped interval against the original interval index-remapped by
    nearest-sample lookup to the target length (NaN if an interval is
    constant or one sample long), the DTW distance of original versus
    warped, and the signal energies before and after.

    This is warp_intervals followed by interval_reports of its two pairs.
    """
    warped, pairs = warp_intervals(trial, p, spec, cfg, pad_mode)
    return WarpReport(warped, *interval_reports(pairs))


def warp_intervals(trial: Trial, p: Partition, spec: WarpSpec,
                   cfg: SincConfig = SincConfig(),
                   pad_mode: str = "neighbor") -> tuple[Trial, tuple]:
    """The warp step of warp_trial: the warped trial, and the (original,
    warped) samples of t1 and of t2, which interval_reports scores."""
    if p.n_samples != len(trial):
        raise InconsistentTrialsError(
            f"partition covers {p.n_samples} samples but trial has {len(trial)}"
        )
    if spec.preserve_length and spec.t1_target_len + spec.t2_target_len != p.len_t1 + p.len_t2:
        raise BadTargetError(
            "targets do not preserve the warpable length; build the spec with "
            "preserve_length=False for a non-preserving warp"
        )
    x = trial.samples
    warped_t1 = resample_padded(x, p.t1, spec.t1_target_len, spec.pad, cfg, pad_mode)
    warped_t2 = resample_padded(x, p.t2, spec.t2_target_len, spec.pad, cfg, pad_mode)
    out = np.concatenate([x[:p.onset], warped_t1, warped_t2, x[p.offset:]])
    warped = Trial(out, trial.f_samp, tuple(_remap_event(e, p, spec) for e in trial.events))
    # the intervals are read back from the trial's own copy, so the
    # resampler's outputs need not live until the warps are scored
    t1_end = p.onset + spec.t1_target_len
    t2_end = t1_end + spec.t2_target_len
    return warped, ((x[p.onset:p.transition], warped.samples[p.onset:t1_end]),
                    (x[p.transition:p.offset], warped.samples[t1_end:t2_end]))


def interval_reports(pairs) -> list[IntervalReport]:
    """The IntervalReport of each (original, warped) interval pair, in order.

    This is the one scoring step of warp_trial, align_batch and
    padding_sweep: each hands it every pair it has warped. All of them are
    scored in one dtw_scores call, so their DTW dynamic programs advance side
    by side, and each report equals that of its pair scored alone. Pairs
    may share an original array, as a sweep's cells do: each distinct
    original's energy and its nearest-sample reference at each warped
    length are taken once, and dtw_scores checks it and takes its
    worst-case corner once per scale.
    """
    pairs = list(pairs)
    energies = {}  # id of an original -> its energy
    references = {}  # (id of an original, warped length) -> its reference
    reports = []
    for (original, warped), score in zip(pairs, dtw_scores(pairs)):
        if id(original) not in energies:
            energies[id(original)] = energy(original)
        key = id(original), len(warped)
        if key not in references:
            references[key] = _nearest_remap(original, len(warped))
        reports.append(_interval_report(original, warped, score, energies[id(original)],
                                        references[key]))
    return reports


def _interval_report(original: np.ndarray, warped: np.ndarray, score: DtwScore,
                     e_in: float, reference: np.ndarray) -> IntervalReport:
    ratio = len(original) / len(warped)
    try:
        corr = pearson(warped, reference) if len(warped) > 1 else math.nan
    except ZeroVarianceError:
        corr = math.nan
    e_out = energy(warped)
    return IntervalReport(
        ratio=ratio,
        correlation=corr,
        dtw=score,
        energy_in=e_in,
        energy_out=e_out,
        energy_ratio=_energy_ratio(ratio, original, warped, e_in, e_out),
    )


def _energy_ratio(ratio: float, original: np.ndarray, warped: np.ndarray,
                  e_in: float, e_out: float) -> float:
    """ratio * e_out / e_in. The quotient does not depend on the scale of the
    samples, so when a sum is 0 or overflows, both are taken again on the two
    intervals brought to unit scale together by metrics._unit_scale; sums in
    (0, inf) keep their bits."""
    if not (0.0 < e_in < math.inf and 0.0 < e_out < math.inf):
        *scaled, _ = _unit_scale(original, warped)
        e_in, e_out = map(energy, scaled)
    if e_in == 0.0:
        return math.nan
    return ratio * e_out / e_in


def _nearest_remap(seg: np.ndarray, out_len: int) -> np.ndarray:
    """Index-remap seg to out_len samples: the nearest sample to each position
    of the resampler's output grid, grid_position over len(seg) samples."""
    return seg[np.rint(grid_position(np.arange(out_len), len(seg), out_len)).astype(np.int64)]


def _scale_offset(offset: int, old_len: int, new_len: int) -> int:
    """Output sample nearest to input sample offset: the same grid, inverted,
    read at offset alone."""
    return int(np.rint(grid_position(offset, new_len, old_len)))


def _remap_event(e: EventMarker, p: Partition, spec: WarpSpec) -> EventMarker:
    idx = e.index
    if idx < p.onset:
        new = idx
    elif idx < p.transition:
        new = p.onset + _scale_offset(idx - p.onset, p.len_t1, spec.t1_target_len)
    elif idx < p.offset:
        new = (p.onset + spec.t1_target_len
               + _scale_offset(idx - p.transition, p.len_t2, spec.t2_target_len))
    else:
        new = idx + (spec.t1_target_len + spec.t2_target_len) - (p.len_t1 + p.len_t2)
    return EventMarker(new, e.label)


@dataclass(frozen=True)
class MeanLengths:
    """Warp every trial to the rounded mean interval lengths of the batch."""


@dataclass(frozen=True)
class FixedTargets:
    """Warp every trial to the given interval lengths."""

    t1: int
    t2: int


TargetPolicy = MeanLengths | FixedTargets


def align_batch(items, policy: TargetPolicy, pad_fraction: float,
                cfg: SincConfig = SincConfig(), preserve_length: bool = True,
                pad_mode: str = "neighbor") -> list[WarpReport]:
    """Warp a batch of (trial, partition) pairs to shared interval lengths.

    All trials must share the onset index and, in preserving mode, the total
    warpable length; afterwards the onset, transition, and offset indices are
    identical across every output trial. The target-length reduction runs
    before any warp; the per-trial warps are independent pure calls. Scoring
    runs after all the warps, as one stacked DTW over every interval of the
    batch.
    """
    items = list(items)
    if not items:
        raise EmptyBatchError("no trials to align")
    onsets = sorted({p.onset for _, p in items})
    if len(onsets) != 1:
        raise InconsistentTrialsError(f"onset indices differ across trials: {onsets}")
    totals = sorted({p.len_t1 + p.len_t2 for _, p in items})
    if preserve_length and len(totals) != 1:
        raise InconsistentTrialsError(
            f"warpable lengths differ across trials: {totals}; "
            "disable preserve_length to align them anyway"
        )

    if isinstance(policy, FixedTargets):
        t1_target, t2_target = policy.t1, policy.t2
        if preserve_length and totals[0] != t1_target + t2_target:
            raise InconsistentTrialsError(
                f"fixed targets {t1_target}+{t2_target} do not preserve the "
                f"shared warpable length {totals[0]}"
            )
    elif isinstance(policy, MeanLengths):
        # round half to even, then let t2 absorb the remainder in preserving mode
        t1_target = round(sum(p.len_t1 for _, p in items) / len(items))
        if preserve_length:
            t2_target = totals[0] - t1_target
        else:
            t2_target = round(sum(p.len_t2 for _, p in items) / len(items))
    else:
        raise TypeError(f"unknown target policy: {policy!r}")

    warps = []
    for trial, p in items:
        spec = plan_warp(p, t1_target, t2_target, pad_fraction, trial.f_samp,
                         preserve_length=preserve_length)
        warps.append(warp_intervals(trial, p, spec, cfg, pad_mode))
    reports = iter(interval_reports(pair for _, pairs in warps for pair in pairs))
    return [WarpReport(warped, next(reports), next(reports)) for warped, _ in warps]
