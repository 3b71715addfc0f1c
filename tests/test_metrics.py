import math

import numpy as np
import pytest

from helpers import assert_valid_path, brute_force_min_cost, dp_matrix_loops

from timelock import DtwScore, dtw, dtw_score, energy, pearson
from timelock.errors import (
    EmptyInputError,
    LengthMismatchError,
    MatrixTooLargeError,
    ZeroVarianceError,
)
from timelock.metrics import _worst_case_corner


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

    def test_too_short(self):
        with pytest.raises(LengthMismatchError):
            pearson([1.0], [2.0])

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


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

    def test_diagonal_fallback_matches_primary_dp(self):
        # the vectorised anti-diagonal DP, both the matrix dtw() returns and
        # the matrix-free distance reports use, must equal the plain row-wise
        # loop recurrence bit for bit
        rng = np.random.default_rng(108)
        for _ in range(30):
            x = rng.normal(size=int(rng.integers(1, 40)))
            y = rng.normal(size=int(rng.integers(1, 40)))
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
        # an empty range lies past both ends of the diagonal's rows, so the
        # next block spans only the other diagonal's kept rows; only a NaN
        # bound keeps every row
        from timelock.metrics import _kept_rows

        values = np.array([3.0, 1.0, 2.0, 5.0])
        assert _kept_rows(values, 10, 2.0) == (11, 12)
        lo, hi = _kept_rows(values, 10, 0.5)
        assert lo >= 10 + len(values) and hi < 10
        assert _kept_rows(values, 10, math.nan) == (10, 13)

    def test_worst_case_closed_form_matches_dp(self):
        # the closed form used for normalization must agree with the DP it
        # replaces
        rng = np.random.default_rng(107)
        for _ in range(30):
            x = rng.normal(size=int(rng.integers(2, 25)))
            m = int(rng.integers(1, 40))
            expected = max(
                dtw(x, np.full(m, x.min())).distance,
                dtw(x, np.full(m, x.max())).distance,
            )
            assert math.sqrt(_worst_case_corner(x, m)) == pytest.approx(
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

    def test_result_arrays_frozen(self):
        res = dtw([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            res.cost_matrix[0, 0] = 9.0
        with pytest.raises(ValueError):
            res.path[0, 0] = 9


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
