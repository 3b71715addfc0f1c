"""Shared oracles. For DTW: exhaustive enumeration, an independent
shortest-path formulation, and the plain loop recurrence. For the resampler:
the whole-grid windowed-sinc evaluation."""

import math

import numpy as np


def local_costs(x, y):
    return np.square(np.asarray(x, float)[:, None] - np.asarray(y, float)[None, :])


def path_count(n, m):
    """Number of monotone paths through an n x m grid (Delannoy numbers)."""
    c = [[1] * m for _ in range(n)]
    for i in range(1, n):
        for j in range(1, m):
            c[i][j] = c[i - 1][j] + c[i][j - 1] + c[i - 1][j - 1]
    return c[-1][-1]


def brute_force_min_cost(x, y):
    """Minimum accumulated cost over every monotone path, by full enumeration.

    Only usable when path_count is small; the count grows exponentially.
    """
    d = local_costs(x, y)
    n, m = d.shape
    best = [math.inf]

    def walk(i, j, acc):
        acc = acc + d[i, j]
        if i == n - 1 and j == m - 1:
            if acc < best[0]:
                best[0] = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def dijkstra_min_cost(x, y):
    """Minimum accumulated cost via shortest paths on the step graph.

    Nodes are grid cells, edges carry the entered cell's local cost, so the
    start cost plus the shortest (0,0) -> (n-1,m-1) distance equals the best
    monotone path cost. Independent of the dynamic program under test.
    """
    from scipy.sparse.csgraph import csgraph_from_dense, dijkstra

    d = local_costs(x, y)
    n, m = d.shape
    size = n * m
    dense = np.full((size, size), np.inf)
    for i in range(n):
        for j in range(m):
            u = i * m + j
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                ii, jj = i + di, j + dj
                if ii < n and jj < m:
                    dense[u, ii * m + jj] = d[ii, jj]
    graph = csgraph_from_dense(dense, null_value=np.inf)
    dist = dijkstra(graph, indices=0)
    return float(d[0, 0] + dist[-1])


def assert_valid_path(path, n, m):
    assert tuple(path[0]) == (0, 0)
    assert tuple(path[-1]) == (n - 1, m - 1)
    steps = set(map(tuple, np.diff(path, axis=0)))
    assert steps <= {(1, 0), (0, 1), (1, 1)}


def dp_matrix_loops(x, y):
    """Accumulated-cost matrix by the textbook row-by-row DTW recurrence.

    Plain Python loops over the cells, local cost the squared sample
    difference; the reference the vectorised dynamic program must match bit
    for bit.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = x.shape[0]
    m = y.shape[0]
    acc = np.empty((n, m))
    d = x[0] - y[0]
    acc[0, 0] = d * d
    for j in range(1, m):
        d = x[0] - y[j]
        acc[0, j] = acc[0, j - 1] + d * d
    for i in range(1, n):
        d = x[i] - y[0]
        acc[i, 0] = acc[i - 1, 0] + d * d
        for j in range(1, m):
            best = acc[i - 1, j - 1]
            if acc[i - 1, j] < best:
                best = acc[i - 1, j]
            if acc[i, j - 1] < best:
                best = acc[i, j - 1]
            d = x[i] - y[j]
            acc[i, j] = best + d * d
    return acc


def resample_direct(segment, positions, cutoff, cfg):
    """Windowed-sinc interpolant of segment at positions, every output at once.

    The (n_out x taps) form: integer tap indices wrapped with np.mod, offsets
    idx - positions, and the exact delta at unit cutoff on integral positions.
    Shares only the taper with the resampler under test, which evaluates the
    same sums block by block and must match this bit for bit.
    """
    from timelock.resample import _window_values

    segment = np.asarray(segment, float)
    h = cfg.half_width
    base = np.floor(positions).astype(np.int64)
    taps = np.arange(-h, h + 1, dtype=np.int64)
    idx = base[:, None] + taps[None, :]
    u = idx.astype(np.float64) - positions[:, None]
    kernel = cutoff * np.sinc(cutoff * u) * _window_values(u, cfg)
    values = segment[np.mod(idx, len(segment))]
    out = (kernel * values).sum(axis=1) / kernel.sum(axis=1)
    if cutoff == 1.0:
        integral = positions == base
        out[integral] = segment[base[integral]]
    return out
