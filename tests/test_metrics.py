import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_valid_path, backtrack_loops, brute_force_min_cost, dp_matrix_loops

from timelock import DtwScore, dtw, dtw_score, energy, metrics, pearson
from timelock.errors import (
    ConfigError,
    EmptyInputError,
    LengthMismatchError,
    MatrixTooLargeError,
    NonFiniteError,
    ZeroVarianceError,
)
from timelock.metrics import _worst_case_corner, dtw_scores


class TestPearson:
    def test_self_correlation(self):
        x = np.sin(np.linspace(0, 7, 100))
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip(self):
        x = np.sin(np.linspace(0, 7, 100))
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_value(self):
        # closed-form oracle: cov / sqrt(varx * vary) evaluated with exact
        # rationals gives 6.5 / sqrt(43.75)
        assert pearson([1, 2, 3, 4], [1, 2, 3, 5]) == pytest.approx(
            0.9827076298239908, rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.normal(size=64)
            y = rng.normal(size=64)
            a, b, c, d = rng.uniform(-3, 3, 4)
            if abs(a) < 1e-3 or abs(c) < 1e-3:
                continue
            r = pearson(x, y)
            r2 = pearson(a * x + b, c * y + d)
            assert r2 == pytest.approx(math.copysign(1.0, a * c) * r, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pearson([1, 2, 3], [1, 2])

    def test_two_dimensional_input_is_refused(self):
        # equal shapes with at least two rows pass every other clause
        x = np.arange(6.0).reshape(2, 3)
        with pytest.raises(LengthMismatchError):
            pearson(x, x * x)

    def test_too_short(self):
        with pytest.raises(LengthMismatchError):
            pearson([1.0], [2.0])

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("value, n", [(0.1, 3), (0.7, 7), (1 / 3, 10)])
    def test_constant_whose_mean_rounds_away_is_refused(self, value, n):
        # the mean of these constants is not the constant, so their deviations
        # from it are not all zero
        assert np.mean([value] * n) != value
        with pytest.raises(ZeroVarianceError):
            pearson([value] * n, range(n))
        with pytest.raises(ZeroVarianceError):
            pearson(range(n), [value] * n)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_are_refused(self, bad):
        with pytest.raises(NonFiniteError):
            pearson([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteError):
            pearson([1.0, 2.0, 3.0], [1.0, bad, 2.0])

    @pytest.mark.parametrize("scale", [1e308, 1e200, 1e155, 1e-155, 1e-200, 5e-324])
    def test_sums_out_of_range_give_the_value_at_unit_scale(self, scale):
        # r does not depend on scale; at these scales the sums of squares,
        # or their product, overflow or underflow
        x = np.array([1.0, -1.0, -1.0])
        y = np.array([-1.0, 0.0, 1.0])
        want = pearson(x, y)
        assert want == pytest.approx(-math.sqrt(0.75), rel=1e-15)
        assert pearson(scale * x, y) == pytest.approx(want, rel=1e-15)
        assert pearson(scale * x, scale * y) == pytest.approx(want, rel=1e-15)
        assert pearson(y, scale * x) == pytest.approx(want, rel=1e-15)

    def test_finite_sums_keep_the_direct_formula_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for scale in (1e-140, 1e-20, 1.0, 1e20, 1e140):
            for n in (2, 3, 17, 1000):
                x = scale * rng.normal(size=n)
                y = rng.normal(size=n)
                dx = x - x.mean()
                dy = y - y.mean()
                r = float(np.add.reduce(dx * dy)) / math.sqrt(
                    float(np.add.reduce(dx * dx)) * float(np.add.reduce(dy * dy)))
                assert pearson(x, y) == max(-1.0, min(1.0, r)), (scale, n)

    def test_near_collinear_pairs_stay_within_unit_range(self):
        # for y = a x + b the direct formula gives 1 + 2**-52 (or its
        # negative) for about a quarter of such pairs
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = rng.normal(size=int(rng.integers(2, 50)))
            a, b = rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0)
            assert pearson(x, a * x + b) <= 1.0
            assert pearson(x, b - a * x) >= -1.0


# energy, pearson and the reports of a 60 s warp, whose intervals have
# 24 576 and 30 720 to 36 864 samples, as the hex of every float
_THREAD_PROBE = """
import numpy as np
from timelock import (SynthSpec, energy, generate, partition_from_events, pearson,
                      plan_warp, warp_trial)
rng = np.random.default_rng(5)
x = rng.normal(size=30000)
y = x + 0.01 * rng.normal(size=30000)
trial = generate(SynthSpec(duration_s=60.0))
part = partition_from_events(trial)
report = warp_trial(trial, part, plan_warp(part, 24576, 36864, 0.1, trial.f_samp))
values = [energy(x), pearson(x, y)]
for r in (report.t1, report.t2):
    values += [r.correlation, r.energy_in, r.energy_out, r.energy_ratio, r.dtw.distance]
print(" ".join(float(v).hex() for v in values))
"""


def test_metric_sums_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product over its threads above 10 000 elements,
    # and where the split falls changes the bits of the sum
    env = dict(os.environ, PYTHONPATH=str(Path(metrics.__file__).resolve().parents[1]))
    bits = []
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        bits.append(run.stdout.split())
    assert len(bits[0]) == 12
    assert bits[0] == bits[1]


class TestDtw:
    def test_identity_alignment(self):
        x = np.sin(np.linspace(0, 9, 50))
        res = dtw(x, x)
        assert res.distance == 0.0
        assert res.normalized_distance == 0.0
        assert np.array_equal(res.path, np.stack([np.arange(50)] * 2, axis=1))

    def test_small_example_against_enumeration(self):
        # 4x3 instance: 25 monotone paths in total
        x = [0.0, 0.0, 1.0, 1.0]
        y = [0.0, 1.0, 1.0]
        res = dtw(x, y)
        assert brute_force_min_cost(x, y) == 0.0
        assert res.distance == 0.0
        expected_acc = np.array([
            [0.0, 1.0, 2.0],
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
        ])
        assert np.array_equal(res.cost_matrix, expected_acc)
        # backtracking prefers diagonal, then the step advancing x
        assert np.array_equal(res.path, [[0, 0], [1, 0], [2, 1], [3, 2]])

    def test_path_matches_loop_backtrack(self):
        # the tie order on every shape: one pair in ten is a single row or
        # column, where every step runs along the matrix edge, and half hold
        # small integers, whose equal costs tie steps often
        rng = np.random.default_rng(123)
        ties = 0
        for trial in range(200):
            n, m = (int(v) for v in rng.integers(1, 25, size=2))
            if trial % 10 == 0:
                n, m = (1, m) if trial % 20 == 0 else (n, 1)
            if trial % 2:
                x, y = (rng.integers(0, 3, size=k).astype(float) for k in (n, m))
            else:
                x, y = rng.normal(size=n), rng.normal(size=m)
            acc = dp_matrix_loops(x, y)
            expected = backtrack_loops(acc)
            path = dtw(x, y).path
            assert path.dtype == expected.dtype
            assert np.array_equal(path, expected), (trial, n, m)
            for i, j in expected[1:]:
                if i and j:
                    steps = [acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]]
                    ties += steps.count(min(steps)) > 1
        assert ties > 100

    def test_two_dimensional_input_is_refused(self):
        with pytest.raises(ConfigError, match="one-dimensional"):
            dtw(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ConfigError, match="one-dimensional"):
            energy(np.zeros((3, 2)))

    def test_optimal_on_small_instances(self):
        rng = np.random.default_rng(104)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            x = rng.normal(size=n)
            y = rng.normal(size=m)
            res = dtw(x, y)
            assert res.distance ** 2 == pytest.approx(
                brute_force_min_cost(x, y), rel=1e-12, abs=1e-12)
            assert_valid_path(res.path, n, m)
            # the returned path realises the reported distance
            path_cost = sum((x[i] - y[j]) ** 2 for i, j in res.path)
            assert path_cost == pytest.approx(res.distance ** 2, rel=1e-12, abs=1e-12)

    def test_distance_symmetry(self):
        rng = np.random.default_rng(105)
        for _ in range(25):
            x = rng.normal(size=int(rng.integers(2, 40)))
            y = rng.normal(size=int(rng.integers(2, 40)))
            assert dtw(x, y).distance == pytest.approx(dtw(y, x).distance, rel=1e-12)

    def test_unequal_lengths_accepted(self):
        res = dtw(np.arange(5.0), np.arange(3.0))
        assert res.cost_matrix.shape == (5, 3)

    def test_normalization_bounds(self):
        rng = np.random.default_rng(106)
        for _ in range(25):
            x = rng.normal(size=int(rng.integers(2, 30)))
            y = rng.normal(size=int(rng.integers(2, 30)))
            nd = dtw(x, y).normalized_distance
            assert 0.0 <= nd <= 1.0

    def test_worst_case_reference_saturates(self):
        # aligning against the constant at the far range extreme is the
        # normalization reference itself
        res = dtw([0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        assert res.normalized_distance == 1.0

    def test_constant_against_a_varying_sequence_saturates(self):
        # a constant x has a worst-case reference of 0, so any distance
        # from it is the whole range
        for res in (dtw(np.zeros(5), [0.0, 1.0, 0.0, 1.0, 0.0]),
                    dtw_score(np.zeros(5), [0.0, 1.0, 0.0, 1.0, 0.0])):
            assert res.normalized_distance == 1.0 and res.similarity == 0.0

    def test_one_sample_pair_scores_without_a_warning(self):
        # the straight path of a one-sample pair divides by its length - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dtw_score([1.0], [3.0]).distance == 2.0
            assert dtw([1.0], [3.0]).distance == 2.0

    def test_matrix_matches_loop_oracle(self):
        # the vectorised anti-diagonal DP, both the matrix dtw() returns and
        # the matrix-free distance reports use, must equal the plain row-wise
        # loop recurrence bit for bit; dtw() builds the matrix in the
        # caller's orientation, so one-column, one-row and tall shapes are
        # listed explicitly
        rng = np.random.default_rng(108)
        shapes = [(7, 1), (1, 7), (2, 1), (1, 2), (90, 1), (40, 3), (130, 70)]
        shapes += [tuple(int(v) for v in rng.integers(1, 40, size=2)) for _ in range(30)]
        for n, m in shapes:
            x = rng.normal(size=n)
            y = rng.normal(size=m)
            expected = dp_matrix_loops(x, y)
            res = dtw(x, y)
            assert np.array_equal(res.cost_matrix, expected)
            assert res.distance == math.sqrt(expected[-1, -1])
            assert dtw_score(x, y) == DtwScore(res.distance, res.normalized_distance)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_pruned_band_matches_loop_oracle(self, monkeypatch, block):
        # reports drop cells above the straight-path bound; on warped copies
        # that leaves a narrow band, which must still reproduce the loop
        # recurrence bit for bit across cost-block boundaries. Identical
        # pairs have a zero bound, so whole anti-diagonals are dropped.
        from timelock import metrics

        monkeypatch.setattr(metrics, "_COST_BLOCK", block)
        rng = np.random.default_rng(109)
        for case in range(160):
            small = case % 40 != 0
            n = int(rng.integers(2, 14 if small else 90))
            m = int(rng.integers(n, 32 if small else 130))
            kind = case % 4
            if kind == 0:
                x = np.cumsum(rng.normal(size=n))
            elif kind == 1:
                x = rng.integers(0, 3, size=n).astype(float)
            elif kind == 2:
                x = np.zeros(n)
                x[rng.integers(0, n, size=3)] = 5.0 * rng.normal(size=3)
            else:
                x = np.sin(np.linspace(0.0, rng.uniform(2.0, 30.0), n))
            warp = np.linspace(0.0, 1.0, m) ** rng.uniform(0.5, 2.0) * (n - 1)
            noise = rng.choice([0.0, 1e-3, 0.05, 0.3])
            y = np.interp(warp, np.arange(n), x) + noise * rng.normal(size=m)
            if case % 2:
                x, y = y, x
            for a, b in ((x, y), (x, x)):
                expected = dp_matrix_loops(a, b)
                assert dtw_score(a, b).distance == math.sqrt(expected[-1, -1])
                assert np.array_equal(dtw(a, b).cost_matrix, expected)

    def test_kept_rows_of_a_diagonal_above_the_bound_is_empty(self):
        # two segments, each a separator slot and then four rows; a segment
        # with no row within its bound gets a first slot past every slot and
        # a last slot before its separator; the largest finite bound, dtw()'s,
        # keeps every row, and a separator is dropped by its own inf
        from timelock.metrics import _kept_slots

        values = np.array([np.inf, 3.0, 1.0, 2.0, 5.0] * 2)
        start = np.array([0, 5])
        first, last = _kept_slots(values, start, np.repeat([2.0, 0.5], 5))
        assert (first[0], last[0]) == (2, 3)
        assert first[1] >= 10 and last[1] < 5
        first, last = _kept_slots(values, start, np.full(10, np.finfo(np.float64).max))
        assert first.tolist() == [1, 6] and last.tolist() == [4, 9]

    def test_worst_case_closed_form_matches_dp(self):
        # the closed form used for normalization must agree with the DP it
        # replaces, whatever the constant sequence's length
        rng = np.random.default_rng(107)
        for _ in range(30):
            x = rng.normal(size=int(rng.integers(2, 25)))
            m = int(rng.integers(1, 40))
            expected = max(
                dtw(x, np.full(m, x.min())).distance,
                dtw(x, np.full(m, x.max())).distance,
            )
            assert math.sqrt(_worst_case_corner(x)) == pytest.approx(
                expected, rel=1e-12, abs=1e-12)

    def test_constant_pair(self):
        res = dtw([2.0, 2.0], [2.0, 2.0, 2.0])
        assert res.distance == 0.0
        assert res.normalized_distance == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            dtw([], [1.0])

    def test_matrix_cell_budget(self, monkeypatch):
        # dtw() refuses a matrix past the cell budget before allocating it;
        # the pipeline tests build 2048 x 1638 matrices, well inside it
        from timelock import metrics

        x = np.zeros(4097)
        with pytest.raises(MatrixTooLargeError, match="4097 x 4097"):
            dtw(x, x)
        assert 2048 * 1638 <= metrics._MAX_MATRIX_CELLS
        monkeypatch.setattr(metrics, "_MAX_MATRIX_CELLS", 12)
        assert dtw(np.zeros(3), np.ones(4)).cost_matrix.shape == (3, 4)
        with pytest.raises(MatrixTooLargeError):
            dtw(np.zeros(5), np.ones(3))
        assert dtw_score(np.zeros(5), np.ones(3)).distance == math.sqrt(5.0)

    @pytest.mark.parametrize("k", [508, 511, 600, -560, -1000])
    def test_scores_scale_exactly_with_the_samples(self, k):
        # scaled by 2**k, the sums of this pair's costs pass the float range
        # (508), its costs do (511, 600), or they fall below it (-560,
        # -1000); the distance is the unit-scale one times 2**k and the
        # normalized distance the unit-scale one, bit for bit, from
        # dtw_score and dtw alike
        x = np.sin(np.linspace(0.0, 6.0 * np.pi, 500) + 0.1)
        y = np.sin(np.linspace(0.0, 6.0 * np.pi, 400) + 0.15)
        unit = dtw(x, y)
        xs, ys = np.ldexp(x, k), np.ldexp(y, k)
        # no sample falls below the normal range, so the scaled pair is exact
        assert np.array_equal(np.ldexp(xs, -k), x) and np.array_equal(np.ldexp(ys, -k), y)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            score = dtw_score(xs, ys)
            full = dtw(xs, ys)
        for got in (score, full):
            assert got.distance == np.ldexp(unit.distance, k)
            assert got.normalized_distance == unit.normalized_distance
        assert np.array_equal(full.path, unit.path)
        with np.errstate(over="ignore"):
            assert np.array_equal(full.cost_matrix, np.ldexp(unit.cost_matrix, 2 * k))

    def test_result_arrays_frozen(self):
        res = dtw([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            res.cost_matrix[0, 0] = 9.0
        with pytest.raises(ValueError):
            res.path[0, 0] = 9


@pytest.fixture(scope="module")
def stack_cases():
    """Mixed DTW problems and their loop-oracle distances.

    1 x 1, 1 x m and m x 1, n == m, identity pairs, a warped 300 x 420 pair
    that ends many blocks after the rest, and 6 x (6 + e) pairs whose last
    anti-diagonals, 10 + e for e < 66, fall on every offset of a 64-diagonal
    block.
    """
    rng = np.random.default_rng(110)
    x = np.cumsum(rng.normal(size=30))
    wave = np.sin(np.linspace(0.0, 20.0, 300))
    warped = np.interp(np.linspace(0.0, 1.0, 420) ** 1.3 * 299, np.arange(300), wave)
    pairs = [
        (np.array([0.5]), np.array([-1.0])),
        (np.array([2.0]), rng.normal(size=9)),
        (rng.normal(size=9), np.array([2.0])),
        (x, x.copy()),
        (wave, warped + 0.01 * rng.normal(size=420)),
        (x, x[::-1].copy()),
        (wave, wave.copy()),
    ]
    for extra in range(66):
        a = rng.normal(size=6)
        b = np.cumsum(rng.normal(size=6 + extra))
        pairs.insert(3 + 2 * extra, (a, b) if extra % 2 else (b, a))
    expected = [math.sqrt(dp_matrix_loops(a, b)[-1, -1]) for a, b in pairs]
    return pairs, expected


@pytest.fixture(scope="module")
def stack_matrices(stack_cases):
    """The loop-oracle matrix of each stack_cases pair."""
    return [dp_matrix_loops(a, b) for a, b in stack_cases[0]]


@pytest.fixture(scope="module")
def scaled_neighbours():
    """Pairs whose neighbours in the stack differ in length and in amplitude
    by 2**20 or 2**-20, with the loop-oracle matrix of each. The 4 x 150
    pair's band reaches its last row within a few anti-diagonals and runs
    along it while the longer pairs around it still run."""
    rng = np.random.default_rng(113)
    shapes = [(40, 55), (4, 150), (60, 61), (25, 90), (7, 7), (80, 120), (33, 40)]
    pairs = []
    for (n, m), e in zip(shapes, [0, 20, -20, 20, 0, -20, 20]):
        x = np.ldexp(np.cumsum(rng.normal(size=n)), e)
        warp = np.linspace(0.0, 1.0, m) ** 1.2 * (n - 1)
        y = np.ldexp(np.interp(warp, np.arange(n), np.ldexp(x, -e))
                     + 0.2 * rng.normal(size=m), e)
        pairs.append((x, y) if len(pairs) % 2 else (y, x))
    return pairs, [dp_matrix_loops(a, b) for a, b in pairs]


class TestStackedDtw:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("budget", [1 << 21, 40])
    def test_stack_matches_loop_oracle_and_stacks_of_one(self, monkeypatch, stack_cases,
                                                         block, budget):
        # a cost block of 40 cells makes nearly every block one anti-diagonal
        # deep; the last few, where the 300-row pair's band narrows, are 2
        # to 4 deep, so the depth also changes between blocks
        monkeypatch.setattr(metrics, "_COST_BLOCK", block)
        monkeypatch.setattr(metrics, "_BLOCK_CELLS", budget)
        pairs, expected = stack_cases
        scores = dtw_scores(pairs)
        assert [s.distance for s in scores] == expected
        for (a, b), score in zip(pairs, scores):
            assert dtw_scores([(a, b)]) == [score]
            assert dtw_score(a, b) == score
            assert dtw(a, b).distance == score.distance

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("budget", [1 << 21, 40])
    def test_neighbours_of_other_scales_and_lengths(self, monkeypatch, scaled_neighbours,
                                                    block, budget):
        # a cost block reads every problem's y from one strip, where each
        # problem's slice meets its neighbours'; a cell within a band that
        # read a neighbour's sample, 2**20 times larger or smaller, would
        # move the distance. Rows past a band's last row n - 1 are laid out
        # too, so that only cells no kept path reaches read a neighbour.
        monkeypatch.setattr(metrics, "_COST_BLOCK", block)
        monkeypatch.setattr(metrics, "_BLOCK_CELLS", budget)
        pairs, matrices = scaled_neighbours
        scores = dtw_scores(pairs)
        assert [s.distance for s in scores] == [math.sqrt(a[-1, -1]) for a in matrices]
        for (a, b), matrix in zip(pairs, matrices):
            assert np.array_equal(dtw(a, b).cost_matrix, matrix)

    def test_memory_is_one_cost_block_plus_rows(self):
        # 40 noise pairs keep nearly the whole band: 36 000 rows in one
        # stack, whose cost block is capped at 16 MiB and freed before the
        # next one is allocated; two blocks at once would peak near 33 MiB
        rng = np.random.default_rng(112)
        pairs = [(rng.normal(size=900), rng.normal(size=1000)) for _ in range(40)]
        tracemalloc.start()
        try:
            scores = dtw_scores(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert scores[:2] == dtw_scores(pairs[:2])

    def test_costs_past_a_problems_end_are_not_read_from_stale_memory(
            self, monkeypatch, stack_cases, stack_matrices):
        # each cost block's table, and dtw()'s matrix, are allocated
        # uninitialised; with fresh float memory full of NaN, a problem that
        # ends inside a block must still not carry it through the separator
        # into its neighbour, and every matrix cell must be written from the
        # diagonal that holds it, at every block depth. Integer arrays, such
        # as the backtrack's path, are left as allocated.
        real_empty = np.empty

        def nan_empty(*args, **kwargs):
            out = real_empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", nan_empty)
        pairs, expected = stack_cases
        for block in (1, 3, 64):
            monkeypatch.setattr(metrics, "_COST_BLOCK", block)
            assert [s.distance for s in dtw_scores(pairs)] == expected
            for (a, b), matrix in zip(pairs, stack_matrices):
                assert np.array_equal(dtw(a, b).cost_matrix, matrix)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, value):
        # a NaN distance would read as similarity 0; every entry point
        # refuses it, alone and inside a stack, on either side of a pair
        rng = np.random.default_rng(111)
        pairs = [(rng.normal(size=n), rng.normal(size=n + 3)) for n in (20, 5, 30)]
        bad = pairs[1][1].copy()
        bad[0] = value
        with pytest.raises(NonFiniteError):
            dtw_score([1.0, value], [1.0, 2.0])
        with pytest.raises(NonFiniteError):
            dtw([1.0, 2.0], [value, 2.0])
        with pytest.raises(NonFiniteError):
            dtw_scores([pairs[0], (pairs[1][0], bad), pairs[2]])
        with pytest.raises(NonFiniteError):
            dtw_scores([pairs[0], (bad, pairs[1][0]), pairs[2]])

    def test_empty_list_and_empty_input(self):
        assert dtw_scores([]) == []
        with pytest.raises(EmptyInputError):
            dtw_scores([([1.0], [2.0]), ([], [1.0])])


class TestOrientation:
    # scoring runs each pair in the orientation it is given: the bound and
    # the corner must not depend on which sequence is the longer

    @staticmethod
    def pairs():
        rng = np.random.default_rng(114)
        shapes = [(1, 1), (1, 2), (1, 40), (2, 1), (40, 1), (3, 90), (90, 3)]
        shapes += [tuple(int(v) for v in rng.integers(1, 80, size=2)) for _ in range(40)]
        pairs = []
        for i, (n, m) in enumerate(shapes):
            x = np.cumsum(rng.normal(size=n))
            if i % 2:
                y = rng.normal(size=m)
            else:
                warp = np.linspace(0.0, 1.0, m) ** rng.uniform(0.5, 2.0) * (n - 1)
                y = np.interp(warp, np.arange(n), x) + 0.05 * rng.normal(size=m)
            pairs.append((x, y))
        assert {n > m for n, m in shapes[7:]} == {True, False}
        return pairs

    def test_bound_is_the_same_either_way(self):
        for x, y in self.pairs():
            assert metrics._path_bound(x, y).hex() == metrics._path_bound(y, x).hex()

    def test_corner_is_the_loop_oracles_either_way(self):
        pairs = self.pairs()
        expected = [dp_matrix_loops(x, y)[-1, -1] for x, y in pairs]
        for (x, y), corner in zip(pairs, expected):
            assert metrics._accumulate([(x, y)]) == [corner]
            assert metrics._accumulate([(y, x)]) == [corner]
        assert metrics._accumulate(pairs) == expected
        assert metrics._accumulate([(y, x) for x, y in pairs]) == expected

    def test_longer_first_pair_keeps_its_optimum(self):
        # a straight path that took one cell per sample of the shorter
        # sequence would skip rows of this pair: it would read only zeros of
        # x, a bound of 5.0 below the optimum of 150.0, and prune the whole
        # band
        x = np.zeros(300)
        x[1::2] = 1.0
        y = np.zeros(10)
        assert metrics._path_bound(x, y) == metrics._path_bound(y, x) == 150.0
        assert dp_matrix_loops(x, y)[-1, -1] == 150.0
        assert metrics._accumulate([(x, y)]) == metrics._accumulate([(y, x)]) == [150.0]


class TestEnergyPower:
    def test_zero_signal(self):
        assert energy([0.0, 0.0, 0.0]) == 0.0

    def test_direct_sum(self):
        assert energy([1.0, -1.0, 2.0]) == 6.0

    def test_unit_sine_whole_periods(self):
        # analytic oracle: sum of sin^2 over whole periods is exactly N/2
        n = 2048
        x = np.sin(2 * np.pi * 8 * np.arange(n) / n)
        assert energy(x) == pytest.approx(n / 2, abs=1e-6 * n)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            energy([])


def test_example_path_count():
    # sanity for the enumeration oracle itself: a 4x3 grid has Delannoy(3, 2)
    # = 25 monotone paths
    count = [0]

    def walk(i, j):
        if (i, j) == (3, 2):
            count[0] += 1
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            if i + di <= 3 and j + dj <= 2:
                walk(i + di, j + dj)

    walk(0, 0)
    assert count[0] == 25
