"""Shared oracles. For DTW: exhaustive enumeration, an independent
shortest-path formulation, the plain loop recurrence and its backtrack. For
the resampler: the whole-grid windowed-sinc evaluation. For the warp's index
maps: the step-multiple formulas with explicit one-sample cases. For the CLI:
a reader of sweep tables."""

import csv
import math

import numpy as np

from timelock.trialio import read_lines


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


def backtrack_loops(acc):
    """Optimal warping path read back from an accumulated-cost matrix, with
    explicit first-row and first-column steps; ties prefer the diagonal,
    then the step that advances x. The reference for dtw()'s path."""
    n = acc.shape[0]
    m = acc.shape[1]
    path = np.empty((n + m - 1, 2), dtype=np.int64)
    i = n - 1
    j = m - 1
    k = n + m - 2
    path[k, 0] = i
    path[k, 1] = j
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag = acc[i - 1, j - 1]
            vert = acc[i - 1, j]
            horiz = acc[i, j - 1]
            # ties prefer the diagonal, then the step that advances x
            if diag <= vert and diag <= horiz:
                i -= 1
                j -= 1
            elif vert <= horiz:
                i -= 1
            else:
                j -= 1
        k -= 1
        path[k, 0] = i
        path[k, 1] = j
    return path[k:].copy()


def resample_grid(in_len, out_len, pad=0):
    """The resampler's output grid on a segment padded by pad samples per
    side: t = linspace(0, in_len - 1, out_len) taken apart as floor(t) + pad
    and t - floor(t)."""
    t = np.linspace(0.0, in_len - 1.0, out_len)
    whole = np.floor(t)
    return whole.astype(np.int64) + pad, t - whole


def edge_indices(n_in, n_out, b, h):
    """The outputs of the resampler's grid that read a sample built pad b
    decides, in order: those with floor(t) < h - b or floor(t) >= n_in - h + b."""
    whole = np.floor(np.linspace(0.0, n_in - 1.0, n_out))
    return np.flatnonzero((whole < h - b) | (whole >= n_in - h + b))


def edge_outputs(n_in, n_out, b, h):
    """How many outputs of the resampler's grid read a sample that built
    pad b decides."""
    return len(edge_indices(n_in, n_out, b, h))


def resample_direct(segment, base, frac, cutoff, cfg):
    """Windowed-sinc interpolant of segment at positions base + frac, every
    output at once.

    The (n_out x taps) form: integer tap indices wrapped with np.mod, and
    the exact delta at unit cutoff on integral positions. The kernel is the
    resampler's formula over the whole grid: the taps j <= 0 of an output
    are the half row at |u| = i + f, i = -j, and the taps j >= 1 the half row
    at |u| = i + (1 - f), i = j - 1; each half row's sinc has the numerator
    sin(a i) cos(a phi) + cos(a i) sin(a phi) and the denominator a i + a
    phi, a = pi * cutoff, and its taper interpolates two rows of the taper
    table. Shares only that table with the resampler under test, which
    evaluates the same sums block by block and must match this bit for bit.
    """
    from timelock.resample import _EPS, _taper_table

    segment = np.asarray(segment, float)
    h = cfg.half_width
    n = len(frac)
    table = _taper_table(cfg.window, cfg.beta, h)
    phases = len(table) - 1
    a = np.pi * cutoff
    i = np.arange(h + 1)
    angles = a * i
    if cutoff == 1.0:
        sin_i, cos_i = np.zeros(h + 1), (-1.0) ** i
    else:
        sin_i, cos_i = np.sin(angles), np.cos(angles)
    phi = np.concatenate((frac, 1.0 - frac))
    aphi = a * phi
    num = sin_i * np.cos(aphi)[:, None] + cos_i * np.sin(aphi)[:, None]
    den = angles + aphi[:, None]
    centre = np.flatnonzero(frac == 0.0)
    num[centre, 0] = den[centre, 0] = _EPS
    p = phi * phases
    q = np.minimum(np.floor(p).astype(np.int64), phases - 1)
    low = table[q]
    taper = (table[q + 1] - low) * (p - q)[:, None] + low
    half = num / den * taper
    kernel = np.concatenate((half[:n, ::-1], half[n:, :h]), axis=1)
    taps = np.arange(-h, h + 1, dtype=np.int64)
    values = segment[np.mod(base[:, None] + taps[None, :], len(segment))]
    out = (kernel * values).sum(axis=1) / kernel.sum(axis=1)
    if cutoff == 1.0:
        integral = frac == 0.0
        out[integral] = segment[base[integral]]
    return out


def nearest_remap_steps(seg, out_len):
    """Nearest-sample remap at positions k * step, step = (n - 1) / (out_len - 1)."""
    if out_len == 1:
        return seg[:1].copy()
    pos = np.arange(out_len) * ((len(seg) - 1) / (out_len - 1))
    return seg[np.rint(pos).astype(np.int64)]


def scale_offset_steps(offset, old_len, new_len):
    """Output index of input offset: round(offset * step), clamped to the last sample."""
    if old_len == 1:
        return 0
    pos = offset * ((new_len - 1) / (old_len - 1))
    return min(new_len - 1, int(round(pos)))


def read_table(path):
    """Read a sweep table back as a list of row dicts (metadata lines skipped)."""
    return list(csv.DictReader(line for line in read_lines(path)
                               if not line.startswith("#")))
