import importlib

import numpy as np
import pytest

from helpers import resample_direct

from timelock import SincConfig, pearson, resample, resample_padded
from timelock.errors import (
    BadOutputLengthError,
    RangeOutOfBoundsError,
    SegmentTooShortError,
)

# the package's `resample` attribute is the function, not this module
sincmod = importlib.import_module("timelock.resample")

# high-accuracy configuration used for analytic-oracle checks; the package
# default (half_width=32, beta=8) trades accuracy for speed and sits around
# 1e-5 worst case on pure sines
QUALITY = SincConfig(half_width=64, beta=14.0)

FS = 2048.0


def _sine(freq, n=2048, fs=FS):
    return np.sin(2 * np.pi * freq * np.arange(n) / fs)


def _band_limited(rng, n=2048, fs=FS, top=0.4):
    freqs = rng.uniform(2.0, top * fs / 2, 10)
    amps = rng.uniform(0.2, 1.0, 10)
    phases = rng.uniform(0, 2 * np.pi, 10)
    t = np.arange(n) / fs
    return sum(a * np.sin(2 * np.pi * f * t + p) for f, a, p in zip(freqs, amps, phases))


class TestSincConfig:
    def test_defaults(self):
        cfg = SincConfig()
        assert cfg.half_width == 32
        assert cfg.window == "kaiser"
        assert cfg.beta == 8.0
        assert cfg.anti_alias

    def test_half_width_floor(self):
        with pytest.raises(ValueError):
            SincConfig(half_width=3)

    def test_unknown_window(self):
        with pytest.raises(ValueError):
            SincConfig(window="tukey")

    @pytest.mark.parametrize("beta", [0.0, -2.0, np.nan])
    def test_bad_beta(self, beta):
        with pytest.raises(ValueError):
            SincConfig(beta=beta)


class TestResample:
    @pytest.mark.parametrize("anti_alias", [True, False])
    @pytest.mark.parametrize("half_width", [16, 32])
    def test_identity(self, anti_alias, half_width):
        rng = np.random.default_rng(3)
        x = rng.normal(size=257)
        y = resample(x, 257, SincConfig(half_width=half_width, anti_alias=anti_alias))
        assert np.abs(y - x).max() <= 1e-9

    @pytest.mark.parametrize("window", ["kaiser", "hann", "blackman"])
    def test_identity_all_windows(self, window):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        assert np.abs(resample(x, 100, SincConfig(window=window)) - x).max() <= 1e-9

    @pytest.mark.parametrize("out_len", [1, 37, 256, 511, 1000])
    @pytest.mark.parametrize("window", ["kaiser", "hann", "blackman"])
    def test_constant_preserved(self, out_len, window):
        x = np.full(256, 3.0)
        y = resample(x, out_len, SincConfig(window=window))
        assert y.shape == (out_len,)
        assert np.abs(y - 3.0).max() <= 1e-9

    def test_five_hertz_sine_doubled_matches_closed_form(self):
        # independent oracle: the closed-form sine evaluated on the target grid
        n = 2048
        x = _sine(5.0, n)
        out_len = 2 * n
        y = resample(x, out_len, QUALITY)
        pos = np.linspace(0.0, n - 1.0, out_len)
        exact = np.sin(2 * np.pi * 5.0 * pos / FS)
        edge = int(np.ceil(QUALITY.half_width * (out_len - 1) / (n - 1))) + 2
        assert np.abs(y - exact)[edge:-edge].max() <= 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        a, b = 1.7, -0.6
        lhs = resample(a * x + b * y, 313)
        rhs = a * resample(x, 313) + b * resample(y, 313)
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_endpoints_map_to_endpoints_on_expansion(self):
        # expanding puts the output endpoints on integral input positions,
        # where the unit-cutoff kernel is an exact delta
        x = _band_limited(np.random.default_rng(5))
        y = resample(x, 3000)
        assert y[0] == x[0]
        assert y[-1] == x[-1]

    def test_endpoints_map_to_endpoints_on_contraction(self):
        # a whole-period sine continues smoothly across the wrap, leaving only
        # filter tolerance at the contracted endpoints
        x = _sine(8.0, 2048, fs=2048.0)  # 8 full cycles
        y = resample(x, 1500)
        assert y[0] == pytest.approx(x[0], abs=1e-3)
        assert y[-1] == pytest.approx(x[-1], abs=1e-3)

    @pytest.mark.parametrize("q", [1.3, 1.7, 2.0])
    def test_expand_contract_roundtrip(self, q):
        x = _band_limited(np.random.default_rng(17))
        up = resample(x, int(round(len(x) * q)))
        back = resample(up, len(x))
        assert pearson(x, back) >= 0.999

    def test_single_output(self):
        x = np.arange(10.0)
        assert resample(x, 1)[0] == x[0]

    def test_too_short(self):
        with pytest.raises(SegmentTooShortError):
            resample([1.0], 5)

    @pytest.mark.parametrize("out_len", [0, -3])
    def test_bad_output_length(self, out_len):
        with pytest.raises(BadOutputLengthError):
            resample(np.zeros(16), out_len)


class TestResamplePadded:
    def test_zero_pads_degenerate_to_bare_resample(self):
        x = _band_limited(np.random.default_rng(23))
        direct = resample(x[100:700], 450)
        padded = resample_padded(x, (100, 700), 450, 0, 0)
        assert np.array_equal(direct, padded)

    def test_output_length_exact(self):
        x = _band_limited(np.random.default_rng(29))
        for out_len in (7, 301, 600, 977):
            got = resample_padded(x, (100, 700), out_len, 205, 205)
            assert got.shape == (out_len,)

    def test_padding_suppresses_endpoint_ringing(self, demo_trial, demo_partition):
        # oracle: the same pipeline at reference padding; small pads must be
        # strictly worse on the same interval
        p = demo_partition
        target = round(p.len_t1 * 0.8)
        fs = demo_trial.f_samp
        ref = np.rint(np.arange(target) * ((p.len_t1 - 1) / (target - 1))).astype(int)
        reference = demo_trial.samples[p.onset:p.transition][ref]

        pads_small = round(1e-3 * fs)
        pads_large = round(0.10 * fs)
        corr_small = pearson(resample_padded(demo_trial.samples, p.t1, target,
                                             pads_small, pads_small), reference)
        corr_large = pearson(resample_padded(demo_trial.samples, p.t1, target,
                                             pads_large, pads_large), reference)
        assert corr_large >= 0.85
        assert corr_small < corr_large

    def test_energy_scales_inversely_with_ratio(self, demo_trial, demo_partition):
        p = demo_partition
        pads = round(0.10 * demo_trial.f_samp)
        for target in (round(p.len_t1 * 0.8), round(p.len_t1 * 1.25)):
            out = resample_padded(demo_trial.samples, p.t1, target, pads, pads)
            ratio = p.len_t1 / target
            e_in = float(np.dot(*(demo_trial.samples[p.onset:p.transition],) * 2))
            e_out = float(np.dot(out, out))
            assert abs(e_out * ratio / e_in - 1.0) <= 0.01

    def test_identity_with_pads_is_exact(self, demo_trial, demo_partition):
        p = demo_partition
        out = resample_padded(demo_trial.samples, p.t1, p.len_t1, 205, 205)
        assert np.array_equal(out, demo_trial.samples[p.onset:p.transition])

    def test_pad_deficit_replicates_trial_edge(self):
        x = np.arange(10.0) + 3.0
        out = resample_padded(x, (1, 6), 5, pad_left=5, pad_right=0)
        assert np.array_equal(out, x[1:6])

    def test_zero_pad_mode_differs_from_neighbor(self, demo_trial, demo_partition):
        p = demo_partition
        target = round(p.len_t1 * 0.8)
        near = resample_padded(demo_trial.samples, p.t1, target, 10, 10)
        zero = resample_padded(demo_trial.samples, p.t1, target, 10, 10, pad_mode="zero")
        assert near.shape == zero.shape
        assert not np.array_equal(near, zero)

    def test_bad_ranges(self):
        x = np.zeros(100)
        with pytest.raises(RangeOutOfBoundsError):
            resample_padded(x, (50, 120), 10, 0, 0)
        with pytest.raises(RangeOutOfBoundsError):
            resample_padded(x, (-1, 20), 10, 0, 0)
        with pytest.raises(RangeOutOfBoundsError):
            resample_padded(x, (10, 20), 10, -1, 0)
        with pytest.raises(SegmentTooShortError):
            resample_padded(x, (10, 11), 10, 0, 0)
        with pytest.raises(BadOutputLengthError):
            resample_padded(x, (10, 20), 0, 0, 0)
        with pytest.raises(ValueError):
            resample_padded(x, (10, 20), 5, 0, 0, pad_mode="mirror")


def _expected_cutoff(in_len, out_len, cfg):
    if cfg.anti_alias and 2 <= out_len < in_len:
        return (out_len - 1) / (in_len - 1)
    return 1.0


class TestBlockedEvaluation:
    # oracle: the whole (n_out x taps) grid evaluated at once, as the
    # resampler did before it worked in blocks
    @pytest.mark.parametrize("window", ["kaiser", "hann", "blackman"])
    @pytest.mark.parametrize("in_len", [900, 3000])
    @pytest.mark.parametrize("anti_alias", [True, False])
    def test_blocks_match_direct_evaluation(self, window, in_len, anti_alias):
        # three blocks, the last one partial; 900 samples expand (unit cutoff,
        # exact deltas on integral positions), 3000 contract
        cfg = SincConfig(window=window, anti_alias=anti_alias)
        out_len = 2 * sincmod._BLOCK + 437
        x = np.random.default_rng(31).normal(size=in_len)
        expected = resample_direct(x, np.linspace(0.0, in_len - 1.0, out_len),
                                   _expected_cutoff(in_len, out_len, cfg), cfg)
        assert np.array_equal(resample(x, out_len, cfg), expected)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks_match_direct_evaluation(self, monkeypatch, block):
        monkeypatch.setattr(sincmod, "_BLOCK", block)
        rng = np.random.default_rng(37)
        for case in range(40):
            cfg = SincConfig(half_width=int(rng.integers(4, 40)),
                             window=("kaiser", "hann", "blackman")[case % 3],
                             anti_alias=bool(case % 2))
            full = rng.normal(size=int(rng.integers(2, 300)))
            start = int(rng.integers(0, len(full) - 1))
            stop = int(rng.integers(start + 2, len(full) + 1))
            pad_left, pad_right = (int(v) for v in rng.integers(0, 50, size=2))
            out_len = int(rng.integers(1, 3 * (stop - start) + 2))
            # neighbour padding built independently: clamp to the edge samples
            left = [full[max(i, 0)] for i in range(start - pad_left, start)]
            right = [full[min(i, len(full) - 1)] for i in range(stop, stop + pad_right)]
            padded = np.concatenate([left, full[start:stop], right])
            positions = pad_left + np.linspace(0.0, stop - start - 1.0, out_len)
            expected = resample_direct(padded, positions,
                                       _expected_cutoff(stop - start, out_len, cfg), cfg)
            got = resample_padded(full, (start, stop), out_len, pad_left, pad_right, cfg)
            assert np.array_equal(got, expected)

    def test_padded_endpoints_land_on_interval_ends(self):
        # the last position is exactly the interval's last sample, where the
        # expanding (unit-cutoff) kernel is an exact delta; a position one ulp
        # short would floor to the sample before and miss it
        x = np.sin(0.01 * np.arange(3000))
        out = resample_padded(x, (100, 1511), 2614, 5, 5)
        assert out[0] == x[100]
        assert out[-1] == x[1510]


class TestAnalyticAccuracy:
    @pytest.mark.parametrize("f_rel", [0.05, 0.2, 0.39])
    @pytest.mark.parametrize("ratio", [0.5, 1.25, 2.0])
    def test_sines_match_closed_form(self, f_rel, ratio):
        n = 2048
        freq = f_rel * FS / 2
        x = _sine(freq, n)
        out_len = int(round(n / ratio))
        y = resample(x, out_len, QUALITY)
        pos = np.linspace(0.0, n - 1.0, out_len)
        exact = np.sin(2 * np.pi * freq * pos / FS)
        edge = int(np.ceil(QUALITY.half_width * (out_len - 1) / (n - 1))) + 2
        assert np.abs(y - exact)[edge:-edge].max() <= 1e-6
