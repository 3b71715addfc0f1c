"""Parameter sweeps over padding fraction and sampling frequency."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import ConfigError, NonFiniteError, TimelockError
from .model import Partition, is_finite, partition_from_events
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
        for name in ("pad_fractions", "fsamp_factors", "directions"):
            value = getattr(self, name)
            try:
                if isinstance(value, str):  # iterable, but one value
                    raise TypeError
                object.__setattr__(self, name, tuple(value))
            except TypeError:
                raise ConfigError(f"{name} must be a sequence of values, got {value!r}") from None
        if not self.pad_fractions:
            raise ConfigError("pad_fractions must be nonempty")
        for pad in self.pad_fractions:
            if not (is_finite(pad) and pad >= 0):
                raise ConfigError(f"pad fractions must be >= 0 and finite, got {pad}")
        if not self.fsamp_factors:
            raise ConfigError("fsamp_factors must be nonempty")
        prev = math.inf
        for f in self.fsamp_factors:
            if not (is_finite(f) and 0.0 < f <= 1.0):
                raise ConfigError(f"fsamp factors must lie in (0, 1], got {f}")
            if f >= prev:
                raise ConfigError(f"fsamp factors must be sorted descending, got {self.fsamp_factors}")
            prev = f
        if not self.directions:
            raise ConfigError("directions must be nonempty")
        for d in self.directions:
            if d not in DIRECTIONS:
                raise ConfigError(f"unknown direction {d!r}; choose from {DIRECTIONS}")
        if len(set(self.directions)) != len(self.directions):
            raise ConfigError(f"duplicate directions in {self.directions}")
        if not (is_finite(self.warp_magnitude) and self.warp_magnitude > 0):
            raise ConfigError(f"warp_magnitude must be positive, got {self.warp_magnitude}")


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
    # clamped before rounding: a huge magnitude makes the product inf
    t1 = round(min(max(p.len_t1 * scale, 1), total - 1))
    return t1, total - t1


def padding_sweep(sweep: SweepConfig, synth_spec: SynthSpec = SynthSpec(),
                  sinc: SincConfig = SincConfig()) -> list[PaddingSweepRow]:
    """Warp the demonstration trial once per (direction, pad_fraction) cell.

    Rows come out ordered by direction, interval, then pad fraction; a cell
    that raises records the error class name in its rows' status instead of
    aborting the sweep. A direction's cells share their target lengths, and
    its cells with the same built_pad have bitwise identical warps, so each
    such warp is made and scored once for all of them, keyed by (direction,
    built pad). The resampling is grouped by (interval length, target
    length) across directions: one resample_pads call per group makes each
    of its intervals at every built pad a planned cell asks for, so each
    kernel row of the group's output grid is made once (a smaller built_pad
    differs from the largest only within half_width - built_pad samples of
    an interval's ends). On equal-length intervals t1 of one direction and
    t2 of the other share a group. A resampling error does not depend on the
    pad and is recorded on every cell of each direction whose t1 or t2 is in
    the group, t1's first; a warp with a NaN or infinite sample records
    NonFiniteError on its own cells, as warp_trial's Trial raises it there
    (the warped markers always increase, so Trial refuses nothing else). One
    interval_reports call then scores every pair as one stacked DTW, with
    the statistics of each original interval taken once.
    """
    trial = generate(synth_spec)
    part = partition_from_events(trial)
    x = trial.samples
    ranges = part.t1, part.t2
    originals = [x[slice(*r)] for r in ranges]
    targets = {d: direction_targets(part, d, sweep.warp_magnitude) for d in sweep.directions}
    built = {}  # (direction, pad) -> the cell's built_pad, or the error class name
    groups = {}  # (interval length, target length) -> ({range: None}, {built pads})
    for direction, pad in product(sweep.directions, sweep.pad_fractions):
        try:
            spec = plan_warp(part, *targets[direction], pad, trial.f_samp)
            built[direction, pad] = b = built_pad(spec.pad, sinc.half_width)
        except TimelockError as err:
            built[direction, pad] = type(err).__name__
            continue
        for (start, stop), target in zip(ranges, targets[direction]):
            members, pads = groups.setdefault((stop - start, target), ({}, set()))
            members[start, stop] = None
            pads.add(b)
    warps = {}  # (range, target length) -> {built pad: warp}, or the error class name
    for (_, target), (members, pads) in groups.items():
        try:
            made = resample_pads(x, list(members), target, pads, sinc)
        except TimelockError as err:
            made = [type(err).__name__] * len(members)
        warps.update(((r, target), m) for r, m in zip(members, made))
    cells = {}  # (direction, built pad) -> its t1 and t2 warps, then reports, or the error name
    for (direction, _), b in built.items():
        if isinstance(b, str) or (direction, b) in cells:
            continue
        made = [warps[request] for request in zip(ranges, targets[direction])]
        error = next((m for m in made if isinstance(m, str)), None)  # t1's first
        if not error and not all(np.isfinite(m[b]).all() for m in made):
            error = NonFiniteError.__name__
        cells[direction, b] = error or [m[b] for m in made]
    # one stacked DTW scores every warp; each cell's warps become their reports
    scored = [at for at, cell in cells.items() if not isinstance(cell, str)]
    reports = interval_reports([pair for at in scored for pair in zip(originals, cells[at])])
    cells.update(zip(scored, zip(reports[::2], reports[1::2])))
    return _rows(sweep, {(direction, pad): b if isinstance(b, str) else cells[direction, b]
                         for (direction, pad), b in built.items()})


def _rows(sweep: SweepConfig, cells) -> list[PaddingSweepRow]:
    """The rows of a padding sweep ordered by direction, interval, then pad
    fraction, from cells: (direction, pad) -> the cell's IntervalReports of
    t1 and t2, or its error class name."""
    rows = []
    for direction in sweep.directions:
        for i, interval in enumerate(INTERVALS):
            for pad in sweep.pad_fractions:
                cell = cells[(direction, pad)]
                if isinstance(cell, str):
                    rows.append(PaddingSweepRow(direction, interval, pad,
                                                None, None, None, None, cell))
                else:
                    r = cell[i]
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
