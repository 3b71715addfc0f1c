import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import edge_outputs

import timelock.model as model
import timelock.resample as sincmod
import timelock.sweeps as sweeps
from timelock import (SincConfig, SweepConfig, SynthSpec, dtw_score, fsamp_sweep,
                      generate, padding_sweep, partition_from_events, plan_warp,
                      warp_trial)
from timelock.sweeps import CONTRACT_T1, DIRECTIONS, EXPAND_T1, direction_targets
from timelock.errors import ConfigError, NonFiniteError
from timelock.model import Partition

QUICK_SYNTH = SynthSpec(duration_s=0.5)
QUICK_SWEEP = SweepConfig(pad_fractions=(0.001, 0.1), fsamp_factors=(1.0, 0.5))


@pytest.fixture(scope="module")
def default_rows():
    """Full-size padding sweep: default demonstration trial and default grids."""
    return padding_sweep(SweepConfig())


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.pad_fractions[0] == 0.001
        assert cfg.pad_fractions[-1] == 0.25
        assert 0.01 in cfg.pad_fractions
        assert 0.1 in cfg.pad_fractions
        assert cfg.fsamp_factors == (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
        assert cfg.directions == DIRECTIONS
        assert cfg.warp_magnitude == 0.2

    @pytest.mark.parametrize("kwargs", [
        {"pad_fractions": ()},
        {"pad_fractions": (-0.1,)},
        {"fsamp_factors": ()},
        {"fsamp_factors": (0.5, 1.0)},        # not descending
        {"fsamp_factors": (1.5,)},            # outside (0, 1]
        {"fsamp_factors": (0.0,)},
        {"directions": ()},
        {"directions": ("sideways",)},
        {"directions": (CONTRACT_T1, CONTRACT_T1)},
        {"warp_magnitude": 0.0},
        {"warp_magnitude": -0.2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("directions", CONTRACT_T1),
        ("pad_fractions", 0.1),
        ("pad_fractions", "0.1"),
        ("fsamp_factors", 0.5),
        ("fsamp_factors", np.float64(0.5)),
    ], ids=["directions-str", "pad_fractions-float", "pad_fractions-str",
            "fsamp_factors-float", "fsamp_factors-numpy"])
    def test_bare_value_for_a_grid_is_refused(self, field, value):
        # a bare string or number is not a grid of one; the error names the
        # field, since a string would otherwise read as a grid of characters
        with pytest.raises(ConfigError, match=f"{field} must be a sequence"):
            SweepConfig(**{field: value})


class TestDirectionTargets:
    def test_contract_t1(self, demo_partition):
        t1, t2 = direction_targets(demo_partition, CONTRACT_T1, 0.2)
        assert t1 == round(demo_partition.len_t1 * 0.8)
        assert t1 + t2 == demo_partition.len_t1 + demo_partition.len_t2

    def test_expand_t1(self, demo_partition):
        t1, t2 = direction_targets(demo_partition, EXPAND_T1, 0.2)
        assert t1 == round(demo_partition.len_t1 * 1.2)
        assert t1 + t2 == demo_partition.len_t1 + demo_partition.len_t2

    def test_extreme_magnitude_clamps(self):
        p = Partition(0, 10, 20, 20)
        t1, t2 = direction_targets(p, EXPAND_T1, 5.0)
        assert t1 == 19 and t2 == 1

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_huge_magnitude_clamps_as_a_large_one(self, demo_partition, direction):
        # len_t1 * (1 + 1e308) is inf, so it is clamped before it is rounded
        assert (direction_targets(demo_partition, direction, 1e308)
                == direction_targets(demo_partition, direction, 1e6))


class TestPaddingSweep:
    def test_row_grid_and_order(self, default_rows):
        cfg = SweepConfig()
        assert len(default_rows) == 2 * 2 * len(cfg.pad_fractions)
        expected = [(d, iv, pad)
                    for d in cfg.directions
                    for iv in ("t1", "t2")
                    for pad in cfg.pad_fractions]
        got = [(r.direction, r.interval, r.pad_fraction) for r in default_rows]
        assert got == expected
        assert all(r.status == "ok" for r in default_rows)

    def test_reference_padding_meets_similarity_claim(self, default_rows):
        for r in default_rows:
            if r.pad_fraction == 0.1:
                assert r.dtw_similarity >= 0.99

    def test_small_padding_degrades_correlation(self, default_rows):
        by_cell = {(r.direction, r.interval, r.pad_fraction): r for r in default_rows}
        for d in DIRECTIONS:
            for iv in ("t1", "t2"):
                assert (by_cell[(d, iv, 0.1)].correlation
                        > by_cell[(d, iv, 0.001)].correlation)

    def test_energy_ratio_near_one_at_reference_padding(self, default_rows):
        for r in default_rows:
            if r.pad_fraction == 0.1:
                assert r.energy_ratio == pytest.approx(1.0, abs=0.01)

    def test_zero_pad_fraction_still_produces_rows(self):
        rows = padding_sweep(SweepConfig(pad_fractions=(0.0,)), QUICK_SYNTH)
        assert len(rows) == 4
        assert all(r.status == "ok" for r in rows)

    def test_scores_equal_dtw_score_of_each_cell(self):
        # successful cells are scored together after all the warps; each row
        # must hold the one-pair dtw_score of its interval, and the failing
        # huge-pad cells keep their error rows
        sweep = SweepConfig(pad_fractions=(0.001, 1e12, 0.1))
        rows = padding_sweep(sweep, QUICK_SYNTH)
        trial = generate(QUICK_SYNTH)
        part = partition_from_events(trial)
        for row in rows:
            if row.pad_fraction == 1e12:
                assert row.status == "RangeOutOfBoundsError"
                continue
            t1, t2 = direction_targets(part, row.direction, sweep.warp_magnitude)
            spec = plan_warp(part, t1, t2, row.pad_fraction, trial.f_samp)
            out = warp_trial(trial, part, spec).warped.samples
            if row.interval == "t1":
                pair = trial.samples[part.onset:part.transition], out[part.onset:part.onset + t1]
            else:
                pair = (trial.samples[part.transition:part.offset],
                        out[part.onset + t1:part.onset + t1 + t2])
            score = dtw_score(*pair)
            assert (row.status, row.dtw_distance, row.dtw_similarity) == \
                ("ok", score.distance, score.similarity)

    def test_rows_equal_warp_trial_of_each_cell(self):
        # at half width 16 the pads are 10, 16, 16, 20 and 512: the last four
        # cells share one warp and one score, the 1e12 cells fail alone. Each
        # row must equal warp_trial of its own cell in every column.
        sinc = SincConfig(half_width=16)
        sweep = SweepConfig(pad_fractions=(0.005, 1e12, 0.0078, 0.008, 0.01, 0.25))
        rows = padding_sweep(sweep, QUICK_SYNTH, sinc)
        trial = generate(QUICK_SYNTH)
        part = partition_from_events(trial)
        for row in rows:
            if row.pad_fraction == 1e12:
                assert row.status == "RangeOutOfBoundsError"
                assert row.correlation is None and row.dtw_distance is None
                continue
            t1, t2 = direction_targets(part, row.direction, sweep.warp_magnitude)
            spec = plan_warp(part, t1, t2, row.pad_fraction, trial.f_samp)
            r = warp_trial(trial, part, spec, sinc).intervals[row.interval]
            assert (row.status, row.correlation, row.dtw_distance, row.dtw_similarity,
                    row.energy_ratio) == ("ok", r.correlation, r.dtw.distance,
                                          r.dtw.similarity, r.energy_ratio)

    def test_directions_with_shared_targets(self):
        # at a tiny magnitude both directions round to the identity targets;
        # each direction's rows must be those of the direction swept alone
        sweep = SweepConfig(pad_fractions=(0.001, 0.1), warp_magnitude=1e-9)
        part = partition_from_events(generate(SynthSpec()))
        assert {direction_targets(part, d, sweep.warp_magnitude)
                for d in DIRECTIONS} == {(2048, 2048)}
        rows = padding_sweep(sweep)
        alone = [row for d in DIRECTIONS
                 for row in padding_sweep(replace(sweep, directions=(d,)))]
        assert rows == alone
        assert {r.status for r in rows} == {"ok"}

    def test_default_sweep_builds_only_the_generated_trial(self, monkeypatch):
        built = []
        post_init = model.Trial.__post_init__

        def counted(trial):
            built.append(trial)
            post_init(trial)

        monkeypatch.setattr(model.Trial, "__post_init__", counted)
        rows = padding_sweep(SweepConfig())
        assert {r.status for r in rows} == {"ok"}
        assert len(built) == 1

    def test_failing_cells_become_error_rows(self):
        # a 4-sample trial leaves single-sample intervals the resampler rejects
        tiny = SynthSpec(duration_s=4.0 / 2048.0)
        rows = padding_sweep(SweepConfig(pad_fractions=(0.1,)), tiny)
        assert len(rows) == 4
        assert all(r.status == "SegmentTooShortError" for r in rows)
        assert all(r.correlation is None for r in rows)


    def test_over_long_outputs_become_error_rows(self, monkeypatch):
        # on a 1 s trial both directions give one interval a 614-sample target
        spec = SynthSpec(duration_s=1.0)
        sweep = SweepConfig(pad_fractions=(0.01, 0.1))
        monkeypatch.setattr(sincmod, "_MAX_OUT_LEN", 614)
        assert {r.status for r in padding_sweep(sweep, spec)} == {"ok"}
        monkeypatch.setattr(sincmod, "_MAX_OUT_LEN", 613)
        rows = padding_sweep(sweep, spec)
        assert len(rows) == 8
        assert {r.status for r in rows} == {"BadOutputLengthError"}

    @pytest.mark.parametrize("synth, statuses", [
        (SynthSpec(duration_s=0.125,
                   amplitudes=(1.0362554818557967e308, 1.784617700406345e307),
                   phases=(5.338015012459763, 4.215566710732697),
                   f1=81.65626058266258, f2=53.76588284343791),
         ["NonFiniteError", "ok", "ok", "ok"]),
        (SynthSpec(duration_s=0.125,
                   amplitudes=(1.0369466455625725e308, 1.6752611384770952e307),
                   phases=(1.5502955224158026, 4.100791995614033),
                   f1=10.519827638595004, f2=49.64638400793341),
         ["NonFiniteError", "ok", "NonFiniteError", "NonFiniteError"]),
    ])
    def test_each_warp_is_checked_for_finite_samples(self, synth, statuses):
        # near the float limit, the overshoot of the resampled intervals
        # overflows at some pads of the one target group and not at others;
        # each cell must have warp_trial's status and scores at that cell
        sweep = SweepConfig(pad_fractions=(0.0, 0.002, 0.005, 0.1),
                            fsamp_factors=(1.0,), directions=(EXPAND_T1,))
        trial = generate(synth)
        part = partition_from_events(trial)
        targets = direction_targets(part, EXPAND_T1, sweep.warp_magnitude)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = padding_sweep(sweep, synth)
            frows = fsamp_sweep(sweep, synth)
            want = []
            for pad in sweep.pad_fractions:
                try:
                    want.append(warp_trial(trial, part, plan_warp(part, *targets, pad,
                                                                  trial.f_samp)))
                except NonFiniteError:
                    want.append(None)
        assert ["NonFiniteError" if w is None else "ok" for w in want] == statuses
        assert [r.status for r in rows] == [r.status for r in frows] == statuses * 2
        for row, report in zip(rows, want * 2):
            if report is not None:
                r = report.intervals[row.interval]
                assert np.array_equal(
                    [row.correlation, row.dtw_distance, row.dtw_similarity, row.energy_ratio],
                    [r.correlation, r.dtw.distance, r.dtw.similarity, r.energy_ratio],
                    equal_nan=True)

    def test_dtw_scores_scale_with_the_amplitudes(self):
        # at amplitudes of 2**511 the DTW costs of every warp pass the float
        # range; each cell is still ok, its similarity is the unit-amplitude
        # one and its distance that one times 2**511, bit for bit, and the
        # correlation and energy ratio keep their unit-amplitude bits too
        sweep = SweepConfig(pad_fractions=(0.0, 0.01, 0.1))
        unit = padding_sweep(sweep, QUICK_SYNTH)
        huge = padding_sweep(sweep, replace(QUICK_SYNTH, amplitudes=(2.0 ** 511,) * 2))
        assert len(huge) == 12
        assert {r.status for r in huge} == {"ok"}
        for got, want in zip(huge, unit):
            assert got.dtw_similarity == want.dtw_similarity
            assert got.dtw_distance == math.ldexp(want.dtw_distance, 511)
            assert (got.correlation, got.energy_ratio) == (want.correlation, want.energy_ratio)


class TestFsampSweep:
    def test_single_unit_factor_matches_padding_sweep(self):
        frows = fsamp_sweep(SweepConfig(pad_fractions=(0.001, 0.1),
                                        fsamp_factors=(1.0,)), QUICK_SYNTH)
        prows = padding_sweep(SweepConfig(pad_fractions=(0.001, 0.1),
                                          fsamp_factors=(1.0,)), QUICK_SYNTH)
        assert len(frows) == len(prows)
        for fr, pr in zip(frows, prows):
            assert fr.fsamp_factor == 1.0
            assert (fr.direction, fr.interval, fr.pad_fraction) == \
                   (pr.direction, pr.interval, pr.pad_fraction)
            assert fr.correlation == pr.correlation
            assert fr.dtw_similarity == pr.dtw_similarity

    def test_huge_magnitude_sweeps_as_a_large_one(self):
        # a finite magnitude of 1e308 used to end both sweeps in an
        # OverflowError, which neither catches
        rows = [(padding_sweep(sweep, QUICK_SYNTH), fsamp_sweep(sweep, QUICK_SYNTH))
                for sweep in (replace(QUICK_SWEEP, warp_magnitude=m) for m in (1e308, 1e6))]
        assert repr(rows[0]) == repr(rows[1])

    def test_factor_order_and_grid(self):
        rows = fsamp_sweep(QUICK_SWEEP, QUICK_SYNTH)
        assert len(rows) == 2 * 2 * 2 * 2
        assert [r.fsamp_factor for r in rows[:8]] == [1.0] * 8
        assert [r.fsamp_factor for r in rows[8:]] == [0.5] * 8

    def test_each_target_group_is_resampled_once(self, monkeypatch):
        # 6 rates x 2 directions x 8 pads are 96 cells, 192 intervals, and
        # 70 distinct warps. The demonstration trial's t1 and t2 have one
        # length, so at each rate t1 of one direction and t2 of the other
        # share their target length: two groups, each resampled for both
        # of its intervals at all of its built pads in one resample_pads
        # call and one kernel call, 12 of each, where one call per
        # direction and interval made 24. The whole grid is evaluated at
        # each interval's widest built pad; the 58 narrower warps evaluate
        # only the outputs whose floor(t) is below h - b or at least
        # n_in - h + b.
        calls, evaluated = [], []
        resample_pads = sweeps.resample_pads
        resample_at = sincmod._resample_at

        def counted_pads(x, index_ranges, out_len, pads, cfg, pad_mode="neighbor"):
            (n_in,) = {stop - start for start, stop in index_ranges}
            calls.append((len(index_ranges), n_in, out_len, sorted(pads), cfg.half_width))
            return resample_pads(x, index_ranges, out_len, pads, cfg, pad_mode)

        def counted_at(reach, base, frac, cutoff, cfg, reads):
            evaluated.append(sum(stop - start for _, start, stop in reads))
            return resample_at(reach, base, frac, cutoff, cfg, reads)

        monkeypatch.setattr(sweeps, "resample_pads", counted_pads)
        monkeypatch.setattr(sincmod, "_resample_at", counted_at)
        rows = fsamp_sweep(SweepConfig())
        assert len(rows) == 192
        assert {r.status for r in rows} == {"ok"}
        assert len(calls) == 12
        assert {n_ranges for n_ranges, *_ in calls} == {2}
        assert len(evaluated) == 12
        full = sum(n_ranges * n_out for n_ranges, _, n_out, _, _ in calls)
        edges = [(n_in, n_out, b, h) for n_ranges, n_in, n_out, pads, h in calls
                 for b in pads[:-1] * n_ranges]
        assert len(edges) == 2 * 58
        at_edges = sum(edge_outputs(*edge) for edge in edges)
        assert sum(evaluated) == full + at_edges
        assert at_edges < full

    def test_sweep_makes_each_kernel_row_once(self, monkeypatch):
        # the 12 groups' output grids hold 8 002 positions off the input
        # samples, and each one's kernel row is made once; making them
        # per interval and pad took 21 612
        made, calls = [], []
        resample_pads = sweeps.resample_pads
        resample_at = sincmod._resample_at

        def counted_pads(*args):
            calls.append(args[2])
            return resample_pads(*args)

        def counted_at(reach, base, frac, cutoff, cfg, reads):
            made.append(len(base) if cutoff != 1.0 else np.count_nonzero(frac))
            return resample_at(reach, base, frac, cutoff, cfg, reads)

        monkeypatch.setattr(sweeps, "resample_pads", counted_pads)
        monkeypatch.setattr(sincmod, "_resample_at", counted_at)
        fsamp_sweep(SweepConfig())
        assert len(calls) == 12
        assert sum(made) == 8002

    def test_failing_group_records_its_error_on_each_cell(self, monkeypatch):
        # on this 1 s trial t1 has 410 samples and t2 614: contracting t1
        # stretches t2 to 696 samples, over the patched output limit, and
        # expanding t1 keeps both targets within it. The pads are 0, 20 and
        # 205 against a half width of 32, so each group has three built pads.
        spec = SynthSpec(duration_s=1.0, event_fracs=(0.25, 0.45, 0.75))
        sweep = SweepConfig(pad_fractions=(0.0, 0.01, 0.1))
        monkeypatch.setattr(sincmod, "_MAX_OUT_LEN", 600)
        rows = padding_sweep(sweep, spec)
        trial = generate(spec)
        part = partition_from_events(trial)
        assert (part.len_t1, part.len_t2) == (410, 614)
        assert len(rows) == 12
        for row in rows:
            if row.direction == CONTRACT_T1:
                assert row.status == "BadOutputLengthError"
                assert row.correlation is None and row.dtw_distance is None
                continue
            t1, t2 = direction_targets(part, row.direction, sweep.warp_magnitude)
            r = warp_trial(trial, part, plan_warp(part, t1, t2, row.pad_fraction,
                                                  trial.f_samp)).intervals[row.interval]
            assert (row.status, row.correlation, row.dtw_distance, row.dtw_similarity,
                    row.energy_ratio) == ("ok", r.correlation, r.dtw.distance,
                                          r.dtw.similarity, r.energy_ratio)

    def test_failing_group_of_equal_intervals_records_its_error_on_both_directions(
            self, monkeypatch):
        # on this 1 s trial t1 and t2 have 512 samples each, so contracting
        # t1 and expanding t2 share the targets 410 and 614 with the other
        # direction: t2 of one direction and t1 of the other form the
        # group of 614 samples, over the patched output limit. Its error
        # lands on every cell of both directions, while the group of 410
        # samples is made.
        spec = SynthSpec(duration_s=1.0)
        sweep = SweepConfig(pad_fractions=(0.0, 0.01, 0.1))
        monkeypatch.setattr(sincmod, "_MAX_OUT_LEN", 600)
        part = partition_from_events(generate(spec))
        assert (part.len_t1, part.len_t2) == (512, 512)
        assert {direction_targets(part, d, sweep.warp_magnitude) for d in DIRECTIONS} == \
            {(410, 614), (614, 410)}
        rows = padding_sweep(sweep, spec)
        assert len(rows) == 12
        assert {(r.status, r.correlation, r.dtw_distance) for r in rows} == \
            {("BadOutputLengthError", None, None)}

    def test_nyquist_breaking_factor_yields_error_rows(self):
        rows = fsamp_sweep(SweepConfig(pad_fractions=(0.1,),
                                       fsamp_factors=(1.0, 0.001)), QUICK_SYNTH)
        ok = [r for r in rows if r.fsamp_factor == 1.0]
        bad = [r for r in rows if r.fsamp_factor == 0.001]
        assert all(r.status == "ok" for r in ok)
        assert all(r.status == "NyquistViolationError" for r in bad)
        assert all(r.correlation is None for r in bad)
