import math

import numpy as np
import pytest

from helpers import nearest_remap_steps, scale_offset_steps

from timelock import (
    EventMarker,
    FixedTargets,
    MeanLengths,
    Partition,
    Trial,
    WarpSpec,
    align_batch,
    dtw,
    dtw_score,
    plan_warp,
    warp_trial,
)
from timelock.errors import (
    BadRateError,
    BadTargetError,
    EmptyBatchError,
    InconsistentTrialsError,
)
from timelock.pipeline import _nearest_remap, _scale_offset, interval_reports
from timelock.resample import resample


def _smooth_trial(n, onset, transition, offset, seed=0, f_samp=256.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / f_samp
    x = sum(a * np.sin(2 * np.pi * f * t + p)
            for f, a, p in zip(rng.uniform(0.5, 8.0, 6),
                               rng.uniform(0.3, 1.0, 6),
                               rng.uniform(0, 2 * np.pi, 6)))
    events = (EventMarker(onset, "onset"), EventMarker(transition, "transition"),
              EventMarker(offset, "offset"))
    return Trial(x, f_samp, events), Partition(onset, transition, offset, n)


class TestPlanWarp:
    def test_ratio_arithmetic(self):
        trial, p = _smooth_trial(1400, 100, 700, 1300)
        rep = warp_trial(trial, p, plan_warp(p, 480, 720, 0.0, trial.f_samp))
        assert rep.t1.ratio == 1.25
        assert rep.t2.ratio == pytest.approx(600 / 720)

    def test_identity_targets(self):
        trial, p = _smooth_trial(1400, 100, 700, 1300)
        rep = warp_trial(trial, p, plan_warp(p, 600, 600, 0.0, trial.f_samp))
        assert (rep.t1.ratio, rep.t2.ratio) == (1.0, 1.0)

    def test_reference_padding_sample_count(self):
        p = Partition(0, 600, 1200, 1200)
        spec = plan_warp(p, 480, 720, 0.10, 2048.0)
        assert spec.pad == 205

    def test_non_preserving_targets_rejected_by_default(self):
        p = Partition(0, 600, 1200, 1200)
        with pytest.raises(BadTargetError):
            plan_warp(p, 480, 600, 0.0, 2048.0)

    def test_non_preserving_allowed_with_flag(self):
        p = Partition(0, 600, 1200, 1200)
        spec = plan_warp(p, 480, 600, 0.0, 2048.0, preserve_length=False)
        assert not spec.preserve_length

    @pytest.mark.parametrize("target", [0, -5])
    def test_bad_target(self, target):
        p = Partition(0, 600, 1200, 1200)
        with pytest.raises(BadTargetError):
            plan_warp(p, target, 1200 - target, 0.0, 2048.0)

    def test_bad_pad_fraction(self):
        p = Partition(0, 600, 1200, 1200)
        with pytest.raises(BadTargetError):
            plan_warp(p, 600, 600, -0.1, 2048.0)

    def test_bad_rate(self):
        p = Partition(0, 600, 1200, 1200)
        with pytest.raises(BadRateError):
            plan_warp(p, 600, 600, 0.1, 0.0)

    def test_overflowing_pad_fraction(self):
        p = Partition(0, 600, 1200, 1200)
        with pytest.raises(BadTargetError):
            plan_warp(p, 600, 600, 1e306, 2048.0)

    def test_warp_spec_validation(self):
        with pytest.raises(BadTargetError):
            WarpSpec(t1_target_len=0, t2_target_len=5)
        with pytest.raises(BadTargetError):
            WarpSpec(t1_target_len=5, t2_target_len=5, pad=-1)

    def test_warp_spec_takes_only_integers(self, demo_trial, demo_partition):
        # an integral float would reach the resampler's slices and indices,
        # and a bool would be read as 1 or 0
        for targets, pad in (((1638.0, 2458), 204), ((1638, 2458.0), 204),
                             ((1638, 2458), 20.5), ((1638, 2458), 204.0),
                             ((True, 2458), 204), ((1638, True), 204),
                             ((1638, 2458), True), ((1638, 2458), False)):
            with pytest.raises(BadTargetError):
                WarpSpec(*targets, pad=pad)
        spec = WarpSpec(np.int64(1638), np.int64(2458), pad=np.int64(204))
        rep = warp_trial(demo_trial, demo_partition, spec)
        assert len(rep.warped) == len(demo_trial)


class TestWarpTrial:
    def test_identity_warp_is_exact(self, demo_trial, demo_partition):
        p = demo_partition
        spec = plan_warp(p, p.len_t1, p.len_t2, 0.10, demo_trial.f_samp)
        rep = warp_trial(demo_trial, p, spec)
        assert np.array_equal(rep.warped.samples, demo_trial.samples)
        assert rep.t1.correlation == pytest.approx(1.0, abs=1e-12)
        assert rep.t2.correlation == pytest.approx(1.0, abs=1e-12)
        assert rep.t1.dtw.distance == 0.0
        assert rep.t2.dtw.distance == 0.0
        assert rep.warped.events == demo_trial.events

    @pytest.mark.parametrize("direction", ["contract_t1", "expand_t1"])
    def test_reference_quality_on_demo_trial(self, demo_trial, demo_partition, direction):
        # contraction ratio 1.25 on one interval, matching expansion on the other
        p = demo_partition
        scale = 0.8 if direction == "contract_t1" else 1.2
        t1 = round(p.len_t1 * scale)
        t2 = p.len_t1 + p.len_t2 - t1
        spec = plan_warp(p, t1, t2, 0.10, demo_trial.f_samp)
        rep = warp_trial(demo_trial, p, spec)
        for interval in (rep.t1, rep.t2):
            assert interval.correlation >= 0.85
            assert interval.dtw.similarity >= 0.99

    def test_direction_swap_preserves_shape(self, demo_trial, demo_partition):
        p = demo_partition
        total = p.len_t1 + p.len_t2
        reports = []
        for scale in (0.8, 1.2):
            t1 = round(p.len_t1 * scale)
            spec = plan_warp(p, t1, total - t1, 0.10, demo_trial.f_samp)
            reports.append(warp_trial(demo_trial, p, spec))
        for rep in reports:
            assert len(rep.warped) == len(demo_trial)
            assert np.array_equal(rep.warped.samples[:p.onset],
                                  demo_trial.samples[:p.onset])
            assert np.array_equal(rep.warped.samples[p.offset:],
                                  demo_trial.samples[p.offset:])

    def test_event_remapping(self):
        trial, p = _smooth_trial(1000, 100, 500, 900, seed=1)
        spec = plan_warp(p, 300, 500, 0.05, trial.f_samp)
        rep = warp_trial(trial, p, spec)
        # onset fixed, transition at onset + t1 target, offset unchanged in
        # preserving mode
        assert [(e.index, e.label) for e in rep.warped.events] == [
            (100, "onset"), (400, "transition"), (900, "offset")]

    def test_markers_outside_warped_region_keep_positions(self):
        trial, p = _smooth_trial(1000, 100, 500, 900, seed=2)
        events = trial.events + ()
        trial = Trial(trial.samples, trial.f_samp,
                      (EventMarker(10, "early"),) + events + (EventMarker(950, "late"),))
        spec = plan_warp(p, 300, 500, 0.05, trial.f_samp)
        rep = warp_trial(trial, p, spec)
        by_label = {e.label: e.index for e in rep.warped.events}
        assert by_label["early"] == 10
        assert by_label["late"] == 950

    def test_non_preserving_warp(self):
        trial, p = _smooth_trial(1000, 100, 500, 900, seed=3)
        spec = WarpSpec(p.len_t1, p.len_t2 + 100, pad=10, preserve_length=False)
        rep = warp_trial(trial, p, spec)
        assert len(rep.warped) == 1100
        assert np.array_equal(rep.warped.samples[-100:], trial.samples[-100:])
        assert rep.warped.event("offset").index == 1000

    def test_constant_interval_reports_nan_correlation(self):
        trial = Trial(np.ones(100), 64.0, (EventMarker(20, "onset"),
                                           EventMarker(50, "transition"),
                                           EventMarker(80, "offset")))
        p = Partition(20, 50, 80, 100)
        spec = plan_warp(p, 20, 40, 0.1, trial.f_samp)
        rep = warp_trial(trial, p, spec)
        assert math.isnan(rep.t1.correlation)
        assert rep.t1.dtw.distance == 0.0

    def test_partition_trial_mismatch(self, demo_trial):
        p = Partition(10, 20, 30, 999)
        spec = WarpSpec(10, 10)
        with pytest.raises(InconsistentTrialsError):
            warp_trial(demo_trial, p, spec)

    def test_preserving_spec_mismatch(self, demo_trial, demo_partition):
        spec = WarpSpec(100, 100)  # preserves by default but totals differ
        with pytest.raises(BadTargetError):
            warp_trial(demo_trial, demo_partition, spec)

    def test_energy_accounting(self, demo_trial, demo_partition):
        # energy_ratio = ratio * E_out / E_in, which is the power ratio
        # ratio * P_out / P_in at one shared f_samp
        p = demo_partition
        for scale in (0.75, 0.8):
            t1 = round(p.len_t1 * scale)
            spec = plan_warp(p, t1, p.len_t1 + p.len_t2 - t1, 0.10, demo_trial.f_samp)
            rep = warp_trial(demo_trial, p, spec)
            for interval in (rep.t1, rep.t2):
                assert interval.energy_in > 0
                assert interval.energy_out > 0
                assert interval.energy_ratio == pytest.approx(1.0, abs=0.01)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_energy_ratio_does_not_depend_on_the_scale(self):
        # samples scaled by 2**511 square past the float range and by
        # 2**-560 below it, so the energies read inf and 0; the warp scales
        # exactly, and the ratio is the unit-scale one bit for bit
        trial, p = _smooth_trial(1400, 100, 700, 1300)
        spec = plan_warp(p, 480, 720, 0.0, trial.f_samp)
        want = warp_trial(trial, p, spec)
        for exponent, energy in ((511, math.inf), (-560, 0.0)):
            scaled = Trial(np.ldexp(trial.samples, exponent), trial.f_samp, trial.events)
            rep = warp_trial(scaled, p, spec)
            for got, ref in ((rep.t1, want.t1), (rep.t2, want.t2)):
                assert got.energy_in == got.energy_out == energy
                assert got.energy_ratio == ref.energy_ratio

    def test_warped_unwarped_dtw_cost_is_near_zero(self, demo_trial, demo_partition):
        # accumulated corner cost per path step stays below 1% of the mean
        # squared amplitude at reference padding; reports carry only the
        # distance, so the matrix and path come from dtw() on the same pair
        p = demo_partition
        t1 = round(p.len_t1 * 0.8)
        spec = plan_warp(p, t1, p.len_t1 + p.len_t2 - t1, 0.10, demo_trial.f_samp)
        rep = warp_trial(demo_trial, p, spec)
        original = demo_trial.samples[p.onset:p.transition]
        full = dtw(original, rep.warped.samples[p.onset:p.onset + t1])
        assert rep.t1.dtw.distance == full.distance
        corner = full.cost_matrix[-1, -1]
        per_step = corner / len(full.path)
        assert per_step <= 0.01 * np.mean(original ** 2)

    def test_length_preservation_random_splits(self, demo_trial, demo_partition):
        p = demo_partition
        total = p.len_t1 + p.len_t2
        rng = np.random.default_rng(99)
        for _ in range(10):
            t1 = int(rng.integers(1, total))
            spec = plan_warp(p, t1, total - t1, 0.10, demo_trial.f_samp)
            rep = warp_trial(demo_trial, p, spec)
            assert len(rep.warped) == len(demo_trial)
            assert np.array_equal(rep.warped.samples[:p.onset],
                                  demo_trial.samples[:p.onset])
            assert np.array_equal(rep.warped.samples[p.offset:],
                                  demo_trial.samples[p.offset:])

    def test_padding_improves_mean_correlation(self, demo_trial, demo_partition):
        p = demo_partition
        total = p.len_t1 + p.len_t2
        means = {}
        for pad in (0.001, 0.10):
            corrs = []
            for scale in (0.8, 1.2):
                t1 = round(p.len_t1 * scale)
                spec = plan_warp(p, t1, total - t1, pad, demo_trial.f_samp)
                rep = warp_trial(demo_trial, p, spec)
                corrs += [rep.t1.correlation, rep.t2.correlation]
            means[pad] = np.mean(corrs)
        assert means[0.10] >= means[0.001]


class TestAlignBatch:
    def test_single_trial_mean_lengths_is_identity(self):
        trial, p = _smooth_trial(1000, 100, 500, 900, seed=4)
        (rep,) = align_batch([(trial, p)], MeanLengths(), 0.05)
        assert np.array_equal(rep.warped.samples, trial.samples)
        assert rep.t1.ratio == 1.0
        assert rep.t2.ratio == 1.0

    def test_pair_aligns_to_mean_lengths(self):
        # t1 lengths 400/600 and t2 lengths 600/400, equal totals: both warp
        # to 500/500 and every event index coincides afterwards
        a, pa = _smooth_trial(1150, 100, 500, 1100, seed=5)
        b, pb = _smooth_trial(1150, 100, 700, 1100, seed=6)
        reports = align_batch([(a, pa), (b, pb)], MeanLengths(), 0.05)
        indices = [[e.index for e in r.warped.events] for r in reports]
        assert indices[0] == indices[1] == [100, 600, 1100]
        assert all(len(r.warped) == 1150 for r in reports)

    def test_fixed_targets_matches_warp_trial(self):
        trial, p = _smooth_trial(1000, 100, 500, 900, seed=7)
        (batch_rep,) = align_batch([(trial, p)], FixedTargets(300, 500), 0.05)
        spec = plan_warp(p, 300, 500, 0.05, trial.f_samp)
        direct = warp_trial(trial, p, spec)
        assert np.array_equal(batch_rep.warped.samples, direct.warped.samples)
        assert batch_rep.t1.correlation == direct.t1.correlation
        assert batch_rep.t1.dtw.distance == direct.t1.dtw.distance

    def test_every_interval_scores_as_dtw_score(self):
        # the batch scores all of its intervals in one stacked DP; each score
        # must equal the one-pair dtw_score of the original and the warped
        # interval, and a batch of one must equal warp_trial
        items = [_smooth_trial(1400, 100, 500 + 60 * k, 1300, seed=20 + k) for k in range(5)]
        reports = align_batch(items, MeanLengths(), 0.05)
        for (trial, p), rep in zip(items, reports):
            onset, transition, offset = (e.index for e in rep.warped.events)
            pieces = (
                (trial.samples[p.onset:p.transition], rep.warped.samples[onset:transition]),
                (trial.samples[p.transition:p.offset], rep.warped.samples[transition:offset]),
            )
            for (original, warped), r in zip(pieces, (rep.t1, rep.t2)):
                assert r.dtw == dtw_score(original, warped)
            spec = plan_warp(p, transition - onset, offset - transition, 0.05, trial.f_samp)
            direct = warp_trial(trial, p, spec)
            assert (direct.t1, direct.t2) == (rep.t1, rep.t2)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            align_batch([], MeanLengths(), 0.05)

    def test_mismatched_onsets_rejected(self):
        a, pa = _smooth_trial(1000, 100, 500, 900, seed=8)
        b, pb = _smooth_trial(1000, 150, 500, 900, seed=9)
        with pytest.raises(InconsistentTrialsError):
            align_batch([(a, pa), (b, pb)], MeanLengths(), 0.05)

    def test_mismatched_totals_rejected_when_preserving(self):
        a, pa = _smooth_trial(1000, 100, 500, 900, seed=10)
        b, pb = _smooth_trial(1000, 100, 500, 800, seed=11)
        with pytest.raises(InconsistentTrialsError):
            align_batch([(a, pa), (b, pb)], MeanLengths(), 0.05)

    def test_fixed_targets_must_preserve_shared_total(self):
        a, pa = _smooth_trial(1000, 100, 500, 900, seed=12)
        with pytest.raises(InconsistentTrialsError):
            align_batch([(a, pa)], FixedTargets(300, 400), 0.05)

    def test_non_preserving_mean_lengths(self):
        a, pa = _smooth_trial(1000, 100, 500, 900, seed=13)
        b, pb = _smooth_trial(900, 100, 500, 800, seed=14)
        reports = align_batch([(a, pa), (b, pb)], MeanLengths(), 0.05,
                              preserve_length=False)
        # mean t1 = (400 + 400) / 2, mean t2 = (400 + 300) / 2 rounded to even
        for rep in reports:
            assert rep.warped.event("transition").index == 100 + 400
            assert rep.warped.event("offset").index == 100 + 400 + 350

    def test_partition_mismatch_rejected(self):
        trial, _ = _smooth_trial(1000, 100, 500, 900, seed=15)
        with pytest.raises(InconsistentTrialsError):
            align_batch([(trial, Partition(100, 500, 900, 1200))], MeanLengths(), 0.05)


class TestIntervalReports:
    def test_pairs_sharing_an_original_score_as_each_pair_alone(self):
        # pairs that share an original array, as a sweep's cells do, take
        # its statistics once per call; each report equals its pair's own,
        # bit for bit. Among them: two warps of one length, warps of other
        # lengths, the original itself, a constant warp, an original of
        # zeros, and a warp peaking near 2**500, whose pair runs scaled by
        # 2**-501 while its neighbours with the same original run unscaled.
        rng = np.random.default_rng(71)
        a = np.sin(0.05 * np.arange(300)) + 0.1 * rng.normal(size=300)
        b = np.cos(0.03 * np.arange(200))
        zeros = np.zeros(50)
        huge = np.ldexp(resample(a, 360), 499)
        assert 2.0 ** 496 <= np.abs(huge).max() < 2.0 ** 500
        pairs = [(a, resample(a, 240)), (b, resample(b, 150)), (a, huge),
                 (a, resample(a, 240) + 1e-3 * rng.normal(size=240)), (a, a),
                 (zeros, resample(b, 40)), (b, np.full(150, 0.5)), (a, resample(a, 360)),
                 (zeros, zeros[:30])]
        together = interval_reports(pairs)
        assert len(together) == len(pairs)
        for pair, report in zip(pairs, together):
            assert repr(report) == repr(interval_reports([pair])[0])


class TestIndexMaps:
    """The correlation reference and the event remap read the resampler's
    linspace grid; they must equal the step-multiple formulas exactly."""

    def test_nearest_remap_matches_step_formula(self):
        for n_in in range(1, 129):
            seg = np.arange(n_in) * 1.5
            for n_out in range(1, 129):
                assert np.array_equal(_nearest_remap(seg, n_out),
                                      nearest_remap_steps(seg, n_out)), (n_in, n_out)

    def test_event_offsets_match_step_formula(self):
        # every offset up to 64 x 64; the first, middle and last offset (where
        # the step formula needed its clamp) for every pair up to 128 x 128
        for old_len in range(1, 129):
            for new_len in range(1, 129):
                offsets = (range(old_len) if max(old_len, new_len) <= 64
                           else sorted({0, old_len // 2, old_len - 1}))
                got = [_scale_offset(k, old_len, new_len) for k in offsets]
                want = [scale_offset_steps(k, old_len, new_len) for k in offsets]
                assert got == want, (old_len, new_len)

    def test_event_offsets_equal_linspace_element(self):
        # every offset of every pair of lengths on a grid that includes 1 and 2
        lengths = (1, 2, 3, 4, 7, 10, 64, 99, 100, 101, 1000, 4097)
        for old_len in lengths:
            for new_len in lengths:
                grid = np.linspace(0.0, new_len - 1.0, old_len)
                got = [_scale_offset(k, old_len, new_len) for k in range(old_len)]
                assert got == [int(np.rint(v)) for v in grid], (old_len, new_len)

    def test_event_offset_builds_no_grid(self):
        import tracemalloc

        tracemalloc.start()
        try:
            got = _scale_offset(12345, 2**22, 2**21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 6172
        assert peak < 2**16
