"""Parameter sweeps over padding fraction and sampling frequency."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import NonFiniteError, TimelockError
from .model import Partition, partition_from_events
from .pipeline import interval_reports, plan_warp
from .resample import SincConfig, built_pad, resample_pads
from .synth import SynthSpec, generate

CONTRACT_T1 = "contract_t1_expand_t2"
EXPAND_T1 = "expand_t1_contract_t2"
DIRECTIONS = (CONTRACT_T1, EXPAND_T1)
INTERVALS = ("t1", "t2")


@dataclass(frozen=True)
class SweepConfig:
    """Grids for the padding and sampling-frequency sweeps.

    pad_fractions are fractions of f_samp; fsamp_factors scale the base
    sampling rate and must be sorted descending within (0, 1];
    warp_magnitude is the fractional change applied to t1 (t2 absorbs the
    complement so total length is preserved).
    """

    pad_fractions: tuple[float, ...] = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25)
    fsamp_factors: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    directions: tuple[str, ...] = DIRECTIONS
    warp_magnitude: float = 0.2

    def __post_init__(self) -> None:
        if not self.pad_fractions:
            raise ValueError("pad_fractions must be nonempty")
        for pad in self.pad_fractions:
            if not (math.isfinite(pad) and pad >= 0):
                raise ValueError(f"pad fractions must be >= 0 and finite, got {pad}")
        if not self.fsamp_factors:
            raise ValueError("fsamp_factors must be nonempty")
        prev = math.inf
        for f in self.fsamp_factors:
            if not 0.0 < f <= 1.0:
                raise ValueError(f"fsamp factors must lie in (0, 1], got {f}")
            if f >= prev:
                raise ValueError(f"fsamp factors must be sorted descending, got {self.fsamp_factors}")
            prev = f
        if not self.directions:
            raise ValueError("directions must be nonempty")
        if len(set(self.directions)) != len(self.directions):
            raise ValueError(f"duplicate directions in {self.directions}")
        for d in self.directions:
            if d not in DIRECTIONS:
                raise ValueError(f"unknown direction {d!r}; choose from {DIRECTIONS}")
        if not (math.isfinite(self.warp_magnitude) and self.warp_magnitude > 0):
            raise ValueError(f"warp_magnitude must be positive, got {self.warp_magnitude}")


@dataclass(frozen=True)
class PaddingSweepRow:
    direction: str
    interval: str
    pad_fraction: float
    correlation: float | None
    dtw_distance: float | None
    dtw_similarity: float | None
    energy_ratio: float | None
    status: str


@dataclass(frozen=True)
class FsampSweepRow:
    fsamp_factor: float
    direction: str
    interval: str
    pad_fraction: float
    correlation: float | None
    dtw_similarity: float | None
    status: str


def direction_targets(p: Partition, direction: str, magnitude: float) -> tuple[int, int]:
    """Complementary target lengths for a sweep direction at a warp magnitude."""
    total = p.len_t1 + p.len_t2
    scale = 1.0 - magnitude if direction == CONTRACT_T1 else 1.0 + magnitude
    t1 = round(p.len_t1 * scale)
    t1 = min(max(t1, 1), total - 1)
    return t1, total - t1


def padding_sweep(sweep: SweepConfig, synth_spec: SynthSpec = SynthSpec(),
                  sinc: SincConfig = SincConfig()) -> list[PaddingSweepRow]:
    """Warp the demonstration trial once per (direction, pad_fraction) cell.

    Rows come out ordered by direction, interval, then pad fraction; a cell
    that raises records the error class name in its rows' status instead of
    aborting the sweep. Cells with the same target lengths form a group.
    Cells with the same effective spec, the same targets and the same
    built_pad, have bitwise identical warps, so each such spec is warped and
    scored once and its rows are copied to every cell that shares it. Each
    group resamples t1 and t2 once each, for all of its built pads, in one
    resample_pads call: a smaller built_pad differs from the largest only in
    the outputs within half_width - built_pad samples of an interval's ends.
    The resampler's checks do not depend on the pad, so a group whose
    resampling raises records the error class on each of its cells. Whether
    the warped samples are finite does depend on the pad: a warp with a NaN
    or infinite sample records NonFiniteError on its own cells, as
    warp_trial's Trial raises it there. Scoring runs after all the warps, as
    one stacked DTW over every interval of every warp.
    """
    trial = generate(synth_spec)
    part = partition_from_events(trial)
    x = trial.samples
    cells = {}  # (direction, pad) -> (targets, built_pad), or the error class name
    for direction in sweep.directions:
        targets = direction_targets(part, direction, sweep.warp_magnitude)
        for pad in sweep.pad_fractions:
            try:
                spec = plan_warp(part, *targets, pad, trial.f_samp)
                cells[(direction, pad)] = (targets, built_pad(spec.pad, sinc.half_width))
            except TimelockError as err:
                cells[(direction, pad)] = type(err).__name__
    groups = {}  # targets -> the built pads of its cells
    for key in cells.values():
        if not isinstance(key, str):
            groups.setdefault(key[0], set()).add(key[1])
    warps = {}  # (targets, built_pad) -> warped t1 and t2, or the error class name
    for targets, pads in groups.items():
        try:
            t1 = resample_pads(x, part.t1, targets[0], pads, sinc)
            t2 = resample_pads(x, part.t2, targets[1], pads, sinc)
        except TimelockError as err:
            warps.update(((targets, b), type(err).__name__) for b in pads)
            continue
        warps.update(((targets, b), [t1[b], t2[b]]) for b in pads)
    # the warped markers are the onset, onset + t1 and the offset, always
    # increasing, so a finite warp is one that warp_trial's Trial accepts
    for key, warp in warps.items():
        if not isinstance(warp, str) and not all(np.isfinite(w).all() for w in warp):
            warps[key] = NonFiniteError.__name__
    scored = [key for key, warp in warps.items() if not isinstance(warp, str)]
    reports = iter(interval_reports((x[slice(*span)], w) for key in scored
                                    for span, w in zip((part.t1, part.t2), warps[key])))
    for key in scored:
        warps[key] = {interval: next(reports) for interval in INTERVALS}
    return _rows(sweep, {at: key if isinstance(key, str) else warps[key]
                         for at, key in cells.items()})


def _rows(sweep: SweepConfig, cells) -> list[PaddingSweepRow]:
    """The rows of a padding sweep ordered by direction, interval, then pad
    fraction, from cells: (direction, pad) -> the cell's IntervalReport by
    interval, or its error class name."""
    rows = []
    for direction in sweep.directions:
        for interval in INTERVALS:
            for pad in sweep.pad_fractions:
                cell = cells[(direction, pad)]
                if isinstance(cell, str):
                    rows.append(PaddingSweepRow(direction, interval, pad,
                                                None, None, None, None, cell))
                else:
                    r = cell[interval]
                    rows.append(PaddingSweepRow(
                        direction, interval, pad,
                        correlation=r.correlation,
                        dtw_distance=r.dtw.distance,
                        dtw_similarity=r.dtw.similarity,
                        energy_ratio=r.energy_ratio,
                        status="ok",
                    ))
    return rows


def fsamp_sweep(sweep: SweepConfig, synth_spec: SynthSpec = SynthSpec(),
                sinc: SincConfig = SincConfig()) -> list[FsampSweepRow]:
    """Rerun the padding sweep with the trial regenerated at each rate factor."""
    rows = []
    for factor in sweep.fsamp_factors:
        try:
            spec_f = replace(synth_spec, f_samp=synth_spec.f_samp * factor)
            inner = padding_sweep(sweep, spec_f, sinc)
        except TimelockError as err:
            inner = _rows(sweep, dict.fromkeys(product(sweep.directions, sweep.pad_fractions),
                                               type(err).__name__))
        for row in inner:
            rows.append(FsampSweepRow(factor, row.direction, row.interval,
                                      row.pad_fraction, row.correlation,
                                      row.dtw_similarity, row.status))
    return rows
