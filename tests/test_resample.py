from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest

from helpers import edge_indices, resample_direct, resample_grid

import timelock.resample as sincmod
from timelock import SincConfig, pearson, resample_padded
from timelock.errors import (
    BadOutputLengthError,
    RangeOutOfBoundsError,
    SegmentTooShortError,
)
from timelock.resample import grid_position, resample, resample_pads

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

    def test_half_width_must_be_an_integer(self):
        # an integral float would reach the tap offsets and slices
        with pytest.raises(ValueError, match="half_width must be an integer"):
            SincConfig(half_width=32.0)
        with pytest.raises(ValueError, match="half_width must be an integer"):
            SincConfig(half_width=True)
        assert SincConfig(half_width=np.int64(16)).half_width == 16

    def test_unknown_window(self):
        with pytest.raises(ValueError):
            SincConfig(window="tukey")

    @pytest.mark.parametrize("beta", [0.0, -2.0, np.nan, 710.0, 1e6])
    def test_bad_beta(self, beta):
        with pytest.raises(ValueError):
            SincConfig(beta=beta)

    def test_half_width_cap(self):
        assert SincConfig(half_width=sincmod._MAX_HALF_WIDTH).half_width == 4096
        with pytest.raises(ValueError, match="half_width must be <= 4096"):
            SincConfig(half_width=sincmod._MAX_HALF_WIDTH + 1)
        # one row of taps of the widest kernel fits the cell budget
        assert 2 * sincmod._MAX_HALF_WIDTH + 1 <= sincmod._CELLS


class TestResample:
    @pytest.mark.parametrize("anti_alias", [True, False])
    @pytest.mark.parametrize("half_width", [16, 32])
    def test_identity(self, anti_alias, half_width):
        rng = np.random.default_rng(3)
        x = rng.normal(size=257)
        y = resample(x, 257, SincConfig(half_width=half_width, anti_alias=anti_alias))
        # every position is integral, where the unit-cutoff kernel is an
        # exact delta: the input comes back bit for bit
        assert np.array_equal(y, x)

    @pytest.mark.parametrize("window", ["kaiser", "hann", "blackman"])
    def test_identity_all_windows(self, window):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        assert np.array_equal(resample(x, 100, SincConfig(window=window)), x)

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

    @pytest.mark.parametrize("out_len", [0, -3, 2.5, 100.0, np.inf, np.nan, True])
    def test_bad_output_length(self, out_len):
        with pytest.raises(BadOutputLengthError):
            resample(np.zeros(16), out_len)


class TestResamplePadded:
    def test_zero_pads_degenerate_to_bare_resample(self):
        x = _band_limited(np.random.default_rng(23))
        direct = resample(x[100:700], 450)
        padded = resample_padded(x, (100, 700), 450, 0)
        assert np.array_equal(direct, padded)

    def test_output_length_exact(self):
        x = _band_limited(np.random.default_rng(29))
        for out_len in (7, 301, 600, 977):
            got = resample_padded(x, (100, 700), out_len, 205)
            assert got.shape == (out_len,)

    def test_padding_suppresses_endpoint_ringing(self, demo_trial, demo_partition):
        # oracle: the same pipeline at reference padding; small pads must be
        # strictly worse on the same interval
        p = demo_partition
        target = round(p.len_t1 * 0.8)
        fs = demo_trial.f_samp
        ref = np.rint(np.arange(target) * ((p.len_t1 - 1) / (target - 1))).astype(int)
        reference = demo_trial.samples[p.onset:p.transition][ref]

        pad_small = round(1e-3 * fs)
        pad_large = round(0.10 * fs)
        corr_small = pearson(resample_padded(demo_trial.samples, p.t1, target, pad_small),
                             reference)
        corr_large = pearson(resample_padded(demo_trial.samples, p.t1, target, pad_large),
                             reference)
        assert corr_large >= 0.85
        assert corr_small < corr_large

    def test_energy_scales_inversely_with_ratio(self, demo_trial, demo_partition):
        p = demo_partition
        pad = round(0.10 * demo_trial.f_samp)
        for target in (round(p.len_t1 * 0.8), round(p.len_t1 * 1.25)):
            out = resample_padded(demo_trial.samples, p.t1, target, pad)
            ratio = p.len_t1 / target
            e_in = float(np.dot(*(demo_trial.samples[p.onset:p.transition],) * 2))
            e_out = float(np.dot(out, out))
            assert abs(e_out * ratio / e_in - 1.0) <= 0.01

    def test_identity_with_pads_is_exact(self, demo_trial, demo_partition):
        p = demo_partition
        out = resample_padded(demo_trial.samples, p.t1, p.len_t1, 205)
        assert np.array_equal(out, demo_trial.samples[p.onset:p.transition])

    def test_pad_deficit_replicates_trial_edge(self):
        x = np.arange(10.0) + 3.0
        out = resample_padded(x, (1, 6), 5, pad=5)
        assert np.array_equal(out, x[1:6])

    def test_zero_pad_mode_differs_from_neighbor(self, demo_trial, demo_partition):
        p = demo_partition
        target = round(p.len_t1 * 0.8)
        near = resample_padded(demo_trial.samples, p.t1, target, 10)
        zero = resample_padded(demo_trial.samples, p.t1, target, 10, pad_mode="zero")
        assert near.shape == zero.shape
        assert not np.array_equal(near, zero)

    def test_bad_ranges(self):
        x = np.zeros(100)
        with pytest.raises(RangeOutOfBoundsError):
            resample_padded(x, (50, 120), 10, 0)
        with pytest.raises(RangeOutOfBoundsError):
            resample_padded(x, (-1, 20), 10, 0)
        with pytest.raises(RangeOutOfBoundsError):
            resample_padded(x, (10, 20), 10, -1)
        with pytest.raises(SegmentTooShortError):
            resample_padded(x, (10, 11), 10, 0)
        with pytest.raises(BadOutputLengthError):
            resample_padded(x, (10, 20), 0, 0)
        with pytest.raises(ValueError):
            resample_padded(x, (10, 20), 5, 0, pad_mode="mirror")

    @pytest.mark.parametrize("pad_mode", ["neighbor", "zero"])
    def test_pad_budget(self, monkeypatch, pad_mode):
        x = np.sin(0.1 * np.arange(100))
        with pytest.raises(RangeOutOfBoundsError):
            resample_padded(x, (10, 20), 7, 10**12, pad_mode=pad_mode)
        monkeypatch.setattr(sincmod, "_MAX_PAD", 8)
        at_budget = resample_padded(x, (10, 20), 7, 8, pad_mode=pad_mode)
        assert at_budget.shape == (7,)
        with pytest.raises(RangeOutOfBoundsError):
            resample_padded(x, (10, 20), 7, 9, pad_mode=pad_mode)


    def test_pad_must_be_an_integer(self):
        x = np.sin(0.01 * np.arange(400))
        for pad in (3.5, 3.0, True, False):
            with pytest.raises(RangeOutOfBoundsError, match="pad must be an integer"):
                resample_padded(x, (100, 300), 50, pad)
            with pytest.raises(RangeOutOfBoundsError, match="pad must be an integer"):
                sincmod.built_pad(pad, 32)
        assert np.array_equal(resample_padded(x, (100, 300), 50, np.int64(3)),
                              resample_padded(x, (100, 300), 50, 3))

    def test_output_budget(self, monkeypatch):
        # refused before anything is allocated, so the real limit is cheap to
        # test from above; the boundary is checked with the limit patched small
        x = np.sin(0.1 * np.arange(100))
        with pytest.raises(BadOutputLengthError, match="exceeds the limit of 16777216"):
            resample_padded(x, (10, 20), sincmod._MAX_OUT_LEN + 1, 0)
        monkeypatch.setattr(sincmod, "_MAX_OUT_LEN", 8)
        assert resample_padded(x, (10, 20), 8, 5).shape == (8,)
        with pytest.raises(BadOutputLengthError, match="exceeds the limit of 8"):
            resample_padded(x, (10, 20), 9, 5)


def _expected_cutoff(in_len, out_len, cfg):
    if cfg.anti_alias and 2 <= out_len < in_len:
        return (out_len - 1) / (in_len - 1)
    return 1.0


class TestBlockedEvaluation:
    # oracle: the whole (n_out x taps) grid evaluated at once, as the
    # resampler did before it worked in blocks
    @pytest.mark.parametrize("cfg", [SincConfig(), SincConfig(window="hann"),
                                     SincConfig(window="blackman"), QUALITY,
                                     SincConfig(beta=0.5)],
                             ids=["kaiser", "hann", "blackman", "quality", "beta0.5"])
    @pytest.mark.parametrize("in_len", [900, 3000, 829])
    @pytest.mark.parametrize("anti_alias", [True, False])
    def test_blocks_match_direct_evaluation(self, cfg, in_len, anti_alias):
        # blocks of _CELLS // (2 * half_width + 1) outputs, 252 at the
        # default half width and 127 at QUALITY's 64, the last one partial;
        # 900 samples expand (unit cutoff, exact deltas on integral
        # positions), 3000 contract, and 829 expand with every third output
        # on an input sample, copied rather than evaluated. Beta 0.5 takes
        # the taper table from its power series.
        cfg = replace(cfg, anti_alias=anti_alias)
        out_len = 2485
        rows = sincmod._CELLS // (2 * cfg.half_width + 1)
        assert rows in (252, 127) and out_len // rows >= 9 and out_len % rows
        x = np.random.default_rng(31).normal(size=in_len)
        expected = resample_direct(x, *resample_grid(in_len, out_len),
                                   _expected_cutoff(in_len, out_len, cfg), cfg)
        assert np.array_equal(resample(x, out_len, cfg), expected)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks_match_direct_evaluation(self, monkeypatch, block):
        rng = np.random.default_rng(37)
        for case in range(40):
            cfg = SincConfig(half_width=int(rng.integers(4, 40)),
                             window=("kaiser", "hann", "blackman")[case % 3],
                             anti_alias=bool(case % 2))
            # a budget of block rows of taps, and some cells to spare
            width = 2 * cfg.half_width + 1
            monkeypatch.setattr(sincmod, "_CELLS", block * width + case % width)
            full = rng.normal(size=int(rng.integers(2, 300)))
            start = int(rng.integers(0, len(full) - 1))
            stop = int(rng.integers(start + 2, len(full) + 1))
            pad = int(rng.integers(0, 50))
            out_len = int(rng.integers(1, 3 * (stop - start) + 2))
            # neighbour padding built independently: clamp to the edge samples
            left = [full[max(i, 0)] for i in range(start - pad, start)]
            right = [full[min(i, len(full) - 1)] for i in range(stop, stop + pad)]
            padded = np.concatenate([left, full[start:stop], right])
            expected = resample_direct(padded, *resample_grid(stop - start, out_len, pad),
                                       _expected_cutoff(stop - start, out_len, cfg), cfg)
            got = resample_padded(full, (start, stop), out_len, pad, cfg)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("pad_mode", ["neighbor", "zero"])
    @pytest.mark.parametrize("window", ["kaiser", "hann", "blackman"])
    def test_pads_straddling_half_width_match_direct_evaluation(self, pad_mode, window):
        # a pad of at least half_width is read only half_width samples deep;
        # taps past a shorter pad wrap into the opposite pad. Either way the
        # bits equal the whole padded segment evaluated at once.
        cfg = SincConfig(half_width=16, window=window)
        rng = np.random.default_rng(43)
        full = rng.normal(size=400)
        start, stop = 150, 260
        for pad in (0, 15, 16, 17, 40, 200):
            for out_len in (37, 110, 251):
                if pad_mode == "zero":
                    padded = np.pad(full[start:stop], pad)
                else:
                    padded = full[np.clip(np.arange(start - pad, stop + pad), 0, len(full) - 1)]
                expected = resample_direct(
                    padded, *resample_grid(stop - start, out_len, pad),
                    _expected_cutoff(stop - start, out_len, cfg), cfg)
                got = resample_padded(full, (start, stop), out_len, pad, cfg, pad_mode)
                assert np.array_equal(got, expected), (pad, out_len)

    @pytest.mark.parametrize("pad_mode", ["neighbor", "zero"])
    @pytest.mark.parametrize("out_len", [900, 1638, 2458])
    def test_pads_of_half_width_or_more_give_identical_outputs(self, pad_mode, out_len):
        # the grid does not depend on the pad, and every pad of at least
        # half_width reads the same half_width samples per side
        x = np.random.default_rng(47).normal(size=8192)
        outs = [resample_padded(x, (2048, 4096), out_len, pad, pad_mode=pad_mode)
                for pad in (32, 33, 100, 512, 2**20)]
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])
        assert sincmod.built_pad(2**20, 32) == 32
        assert sincmod.built_pad(31, 32) == 31

    def test_huge_pads_build_only_the_kernel_reach(self):
        import tracemalloc

        x = np.sin(0.01 * np.arange(4096))
        tracemalloc.start()
        try:
            out = resample_padded(x, (1024, 2048), 900, sincmod._MAX_PAD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sincmod._MAX_PAD == 2**24
        assert peak < 16 * 2**20
        # no tap of the oracle reaches past half_width samples from the
        # interval either, so any pad of more serves; 2**21 keeps it small
        pad = 2**21
        padded = x[np.clip(np.arange(1024 - pad, 2048 + pad), 0, len(x) - 1)]
        cutoff = _expected_cutoff(1024, 900, SincConfig())
        assert np.array_equal(out, resample_direct(padded, *resample_grid(1024, 900, pad),
                                                   cutoff, SincConfig()))

    def test_widest_kernel_keeps_temporaries_bounded(self):
        # the cell budget bounds every temporary of the widest accepted kernel
        import tracemalloc

        cfg = SincConfig(half_width=sincmod._MAX_HALF_WIDTH)
        x = np.sin(0.3 * np.arange(16))
        tracemalloc.start()
        try:
            out = resample(x, 1000, cfg)  # 8.2 M kernel cells, 66 MB at once
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        base, frac = resample_grid(16, 1000)
        assert np.array_equal(out[:40], resample_direct(x, base[:40], frac[:40], 1.0, cfg))

    def test_small_call_allocates_less_than_one_block_of_half_rows(self):
        # 51 outputs of a 64-sample interval: the kernel's tiles and half
        # rows are sized to the 51 outputs, not to a block of 252
        import tracemalloc

        x = np.random.default_rng(61).normal(size=256)
        block = 2 * (sincmod._CELLS // 65) * 33 * 8  # bytes of (2 * 252, 33) float64
        resample_padded(x, (96, 160), 51, 32)  # the taper table is cached
        tracemalloc.start()
        try:
            out = resample_padded(x, (96, 160), 51, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block
        padded = x[64:192]
        assert np.array_equal(out, resample_direct(padded, *resample_grid(64, 51, 32),
                                                   50 / 63, SincConfig()))

    def test_padded_endpoints_land_on_interval_ends(self):
        # the last position is exactly the interval's last sample, where the
        # expanding (unit-cutoff) kernel is an exact delta; a position one ulp
        # short would floor to the sample before and miss it
        x = np.sin(0.01 * np.arange(3000))
        out = resample_padded(x, (100, 1511), 2614, 5)
        assert out[0] == x[100]
        assert out[-1] == x[1510]


class TestGridPosition:
    @pytest.mark.parametrize("n_in", [1, 2, 3, 7, 100, 1025, 4097])
    def test_positions_equal_linspace_bit_for_bit(self, n_in):
        for n_out in (1, 2, 3, 5, 64, 999, 4096, 10007):
            want = np.linspace(0.0, n_in - 1.0, n_out)
            got = grid_position(np.arange(n_out), n_in, n_out)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n_in, n_out)
            for k in (0, n_out // 3, n_out - 1):
                assert float(grid_position(k, n_in, n_out)) == want[k]

    def test_long_output_makes_its_positions_per_chunk(self):
        # an 8 MiB output; every position array of the grid at once would
        # hold about seven times that. The cache is cleared so the taper
        # table is built inside the call.
        import tracemalloc

        sincmod._taper_table.cache_clear()
        x = np.sin(0.01 * np.arange(4096))
        tracemalloc.start()
        try:
            out = resample_padded(x, (1024, 2048), 2**20, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20
        base, frac = resample_grid(1024, 2**20, 1024)
        for k in (0, 1, 5000, 2**19 + 7, 2**20 - 1):
            assert out[k] == resample_direct(x, base[k:k + 1], frac[k:k + 1], 1.0,
                                             SincConfig())[0]



class TestEdges:
    @pytest.mark.parametrize("pad_mode", ["neighbor", "zero"])
    @pytest.mark.parametrize("window", ["kaiser", "hann", "blackman"])
    def test_narrower_pad_from_wider_output_is_bitwise(self, monkeypatch, window, pad_mode):
        # intervals shorter and longer than 2 half_width, some at the
        # signal's first or last sample; outputs of 1 and 2 samples and grids
        # of integral positions; one to four pads on both sides of
        # half_width, some with the same built pad. Each output equals
        # resample_padded's at its pad. The kernel evaluates the whole grid
        # of the widest built pad and, of each narrower one, only the
        # outputs the edge formula names, each exactly once, reading the
        # pad's own row of taps; one _resample_at call per chunk of
        # positions. Chunks of a few positions put the wrap from the suffix
        # to the prefix, and from one pad to the next, both at and inside a
        # chunk boundary.
        bases, chunks = [], []
        resample_at, position = sincmod._resample_at, sincmod.grid_position

        def counted(reach, base, frac, cutoff, cfg):
            bases.append(np.array(base))
            return resample_at(reach, base, frac, cutoff, cfg)

        def recorded(k, n_in, n_out):
            if np.ndim(k):  # a chunk of positions, not a probe for an edge
                chunks.append(np.array(k))
            return position(k, n_in, n_out)

        rng = np.random.default_rng(61)
        for case in range(80):
            cfg = SincConfig(half_width=int(rng.integers(4, 24)), window=window,
                             anti_alias=bool(case % 2))
            h = cfg.half_width
            full = rng.normal(size=int(rng.integers(2, 120)))
            start = 0 if case % 4 == 0 else int(rng.integers(0, len(full) - 1))
            stop = len(full) if case % 4 == 1 else int(rng.integers(start + 2, len(full) + 1))
            n_in = stop - start
            out_len = (1, 2, n_in, 3 * (n_in - 1) + 1,
                       int(rng.integers(1, 3 * n_in + 2)))[case % 5]
            pads = [int(pad) for pad in rng.integers(0, 2 * h + 4, int(rng.integers(1, 5)))]
            built = sorted({min(pad, h) for pad in pads}, reverse=True)
            want = {b: resample_padded(full, (start, stop), out_len, b, cfg, pad_mode)
                    for b in built}
            # the outputs each built pad's row evaluates, widest first
            rows = [np.arange(out_len)] + [edge_indices(n_in, out_len, b, h) for b in built[1:]]
            for outputs in (sincmod._OUTPUTS, 1, 2, 3, 7):
                with monkeypatch.context() as patch:
                    patch.setattr(sincmod, "_OUTPUTS", outputs)
                    patch.setattr(sincmod, "_resample_at", counted)
                    patch.setattr(sincmod, "grid_position", recorded)
                    got = resample_pads(full, (start, stop), out_len, pads, cfg, pad_mode)
                assert list(got) == built, (case, outputs)
                for b in built:
                    assert np.array_equal(got[b].view(np.int64), want[b].view(np.int64)), \
                        (case, outputs, b)
                assert [len(base) for base in bases] == [len(k) for k in chunks], (case, outputs)
                evaluated = sum(len(k) for k in rows)
                assert len(bases) == -(-evaluated // outputs), (case, outputs)
                k, row = np.concatenate(chunks), np.concatenate(bases) // (n_in + 2 * h)
                assert len(k) == evaluated, (case, outputs)
                for j, want_k in enumerate(rows):
                    assert np.array_equal(np.sort(k[row == j]), want_k), (case, outputs, j)
                bases.clear()
                chunks.clear()

    def test_arguments_are_checked_as_resample_padded_checks_them(self):
        x = np.arange(30.0)
        with pytest.raises(RangeOutOfBoundsError):
            resample_pads(x, (10, 40), 5, (3,))
        with pytest.raises(RangeOutOfBoundsError):
            resample_pads(x, (10, 20), 5, (3, -1))
        with pytest.raises(SegmentTooShortError):
            resample_pads(x, (10, 11), 5, (3,))
        with pytest.raises(BadOutputLengthError):
            resample_pads(x, (10, 20), 0, (3,))
        with pytest.raises(ValueError, match="pad_mode"):
            resample_pads(x, (10, 20), 5, (3,), pad_mode="mirror")
        with pytest.raises(ValueError, match="pads must not be empty"):
            resample_pads(x, (10, 20), 5, ())

    def test_edge_bounds_match_a_search_of_the_grid(self):
        # the closed form against bisect_left over grid_position: outputs of
        # 1 and 2 samples, integral grids (steps 1, 2 and 1/3), random and
        # long grids, and edges from before the interval's first sample to
        # past its last. Both probes of the closed form are needed on these.
        rng = np.random.default_rng(67)
        shapes = [(n_in, n_out) for n_in in (2, 3, 5, 9, 64, 1025)
                  for n_out in (1, 2, n_in, (n_in - 1) // 2 + 1, 3 * (n_in - 1) + 1)]
        shapes += [(int(n_in), int(n_out)) for n_in, n_out in
                   zip(rng.integers(2, 2**24, 300), rng.integers(1, 2**24, 300))]
        shapes += [(int(n_in), int(n_out)) for n_in, n_out in
                   zip(rng.integers(2, 200, 300), rng.integers(1, 600, 300))]
        for n_in, n_out in shapes:
            edges = {*range(-3, 4), *range(n_in - 4, n_in + 4),
                     *(int(e) for e in rng.integers(0, n_in, 20))}
            for edge in edges:
                want = bisect_left(range(n_out), edge,
                                   key=lambda k: grid_position(k, n_in, n_out))
                assert sincmod._first_at_least(edge, n_in, n_out) == want, (n_in, n_out, edge)


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


def _exact_taper(abs_u, cfg):
    """The taper by its closed form: np.i0 or np.cos at x = |u| / half_width,
    0 from x == 1 on; the Kaiser window rescaled to 0 at its edge."""
    x = np.minimum(abs_u / cfg.half_width, 1.0)
    if cfg.window == "kaiser":
        edge = 1.0 / np.i0(cfg.beta)
        w = (np.i0(cfg.beta * np.sqrt(1.0 - x * x)) / np.i0(cfg.beta) - edge) / (1.0 - edge)
    elif cfg.window == "hann":
        w = 0.5 + 0.5 * np.cos(np.pi * x)
    else:
        w = 0.42 + 0.5 * np.cos(np.pi * x) + 0.08 * np.cos(2.0 * np.pi * x)
    return np.where(x < 1.0, w, 0.0)


class TestKernel:
    # the taps' weights read off impulse responses: the output at base + f
    # of a signal that is 1 at one sample and 0 elsewhere is the weight of
    # the tap on that sample, its kernel value over the row's kernel sum
    @staticmethod
    def _weights(frac, cutoff, cfg):
        h = cfg.half_width
        reach = np.zeros(4 * h + 1)
        reach[2 * h] = 1.0
        taps = np.arange(-h, h + 1)
        base = np.tile(h - taps, len(frac))
        f = np.repeat(frac, len(taps))
        return sincmod._resample_at(reach, base, f, cutoff, cfg).reshape(len(frac), -1)

    @pytest.mark.parametrize("cutoff", [1.0, 0.8, 0.3])
    @pytest.mark.parametrize("cfg", [SincConfig(), QUALITY, SincConfig(window="hann"),
                                     SincConfig(half_width=5, window="blackman")],
                             ids=["default", "quality", "hann", "blackman5"])
    def test_weights_match_closed_form_kernel(self, cfg, cutoff):
        # within 1e-10 of cutoff * np.sinc(cutoff * u) times the exact taper,
        # both normalised to unit sum; the table's linear interpolation
        # leaves at most about 3e-11 here
        rng = np.random.default_rng(53)
        frac = np.concatenate([[0.0, 0.5, 2.0**-40, np.nextafter(1.0, 0.0)],
                               rng.uniform(size=40)])
        h = cfg.half_width
        u = np.arange(-h, h + 1)[None, :] - frac[:, None]
        exact = cutoff * np.sinc(cutoff * u) * _exact_taper(np.abs(u), cfg)
        exact /= exact.sum(axis=1, keepdims=True)
        if cutoff == 1.0:
            exact[0] = np.arange(-h, h + 1) == 0  # the exact delta
        assert np.abs(self._weights(frac, cutoff, cfg) - exact).max() <= 1e-10

    @pytest.mark.parametrize("beta", [1e-160, 1e-200, 1e-300])
    def test_tiny_kaiser_beta_gives_the_limit_taper(self, beta):
        # (i0(beta * sqrt(1 - x**2)) - 1) / (i0(beta) - 1) tends to 1 - x**2
        # as beta goes to 0, and no series term may underflow on the way:
        # from beta = 1e-200 down, 0 / 0 made the table, and every output, NaN
        h = 32
        table = sincmod._taper_table("kaiser", beta, h)
        s = len(table) - 1
        x = np.minimum((np.arange(h + 1) + np.arange(s + 1)[:, None] / s) / h, 1.0)
        assert np.isfinite(table).all()
        assert np.abs(table - (1.0 - x * x)).max() <= 1e-12
        signal = np.sin(0.1 * np.arange(200))
        out = resample_padded(signal, (50, 150), 80, 10, SincConfig(beta=beta))
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("cutoff", [1.0, 0.8])
    @pytest.mark.parametrize("window", ["kaiser", "hann", "blackman"])
    def test_output_is_continuous_where_a_position_reaches_an_integer(self, window, cutoff):
        # moving a position from one ulp below an integer onto it brings a
        # tap in at |u| == half_width; its weight must be 0 there, as just
        # beyond. A Kaiser taper kept at its edge value 1/i0(beta) there
        # moves the output by about 3e-5 times the sample entering.
        cfg = SincConfig(window=window)
        h = cfg.half_width
        rng = np.random.default_rng(59)
        reach = rng.normal(size=4 * h + 2)
        b = 2 * h
        below = sincmod._resample_at(reach, np.array([b - 1]), np.array([np.nextafter(1.0, 0.0)]),
                                     cutoff, cfg)
        onto = sincmod._resample_at(reach, np.array([b]), np.array([0.0]), cutoff, cfg)
        assert abs(below[0] - onto[0]) <= 1e-12 * np.abs(np.diff(reach)).max()
