"""Similarity and conservation metrics: Pearson correlation, DTW, energy, power."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BadRateError,
    EmptyInputError,
    LengthMismatchError,
    MatrixTooLargeError,
    ZeroVarianceError,
)

_COST_BLOCK = 64  # anti-diagonals whose local costs are computed in one call
_MAX_MATRIX_CELLS = 1 << 24  # largest cost matrix dtw() builds: 128 MiB of float64


def _path_bound(x: np.ndarray, y: np.ndarray) -> float:
    """Accumulated cost of the straight monotone path, for len(x) <= len(y).

    The costs are added one cell at a time in path order, exactly as the DP
    adds them. Rounding is monotone and costs are non-negative, so the DP's
    corner value, its minimum over all paths, is at most this bound.
    """
    n = x.shape[0]
    m = y.shape[0]
    rows = np.arange(m) * (n - 1) // max(m - 1, 1)
    d = x[rows] - y
    return float(np.cumsum(d * d)[-1])


def _kept_rows(values: np.ndarray, lo: int, bound: float) -> tuple[int, int]:
    """First and last row, counting values from row lo, not above the bound.

    When every value exceeds the bound the range is empty,
    (lo + len(values), lo - 1). NaN compares as kept, so a NaN bound prunes
    nothing.
    """
    kept = np.flatnonzero(~(values > bound))
    if len(kept) == 0:
        return lo + len(values), lo - 1
    return lo + int(kept[0]), lo + int(kept[-1])


def _accumulate(x: np.ndarray, y: np.ndarray, acc: np.ndarray | None = None) -> float:
    """Accumulated DTW cost at the far corner, for len(x) <= len(y).

    Local cost is the squared sample difference. Cell (i, j) on anti-diagonal
    k = i + j depends only on diagonals k - 1 and k - 2, so three buffers
    indexed by row replace the n x m matrix: slot i + 1 holds row i. y is
    reversed once so a diagonal's local costs are contiguous, and they are
    computed for _COST_BLOCK diagonals at a time.

    Within a block every diagonal covers the same rows lo..hi, so the three
    updates per diagonal run on views made once per block. Cells outside the
    grid come out harmless: left of column 0 they stay inf, and right of
    column m - 1 no grid cell reads them. Row lo - 1, and rows above the
    previous block, are reset to inf before they are read.

    When acc is given, every row is kept and each diagonal is written into
    acc, giving the full accumulated-cost matrix. Otherwise, between blocks,
    rows are dropped from both ends of the last two diagonals while their
    cost exceeds the straight-path bound. No such cell lies on the optimal
    path, and a cell within the bound takes its minimum from a predecessor
    within the bound, so every kept value and the corner come out bit for
    bit as in the full DP. For similar sequences only a narrow band around
    the optimal path is computed.
    """
    n = x.shape[0]
    m = y.shape[0]
    bound = math.inf if acc is not None else _path_bound(x, y)
    flat = None if acc is None else acc.reshape(-1)
    # ypad[n + m - 1 - k + i] == y[k - i]; the margins keep windows in range
    ypad = np.zeros(m + 2 * n)
    ypad[n:n + m] = y[::-1]
    costs = np.empty((_COST_BLOCK, n))
    older = np.full(n + 2, np.inf)  # diagonal k - 2
    last = np.full(n + 2, np.inf)  # diagonal k - 1
    spare = np.full(n + 2, np.inf)
    d = x[0] - y[0]
    last[1] = d * d
    if flat is not None:
        flat[0] = last[1]
    lo1 = hi1 = 0  # rows kept on diagonal k - 1
    lo2, hi2 = n, -2  # and on diagonal k - 2 (none)
    top = 0  # highest row of the previous block

    k = 1
    while k < n + m - 1:
        kb = min(_COST_BLOCK, n + m - 1 - k)
        # Row lo - 1 is dropped on both earlier diagonals or lies right of
        # the grid; kept rows widen by at most one per diagonal.
        lo = max(min(lo1, lo2), k - m - 1, 0)
        hi = min(max(hi1, hi2) + kb, n - 1)
        older[lo] = last[lo] = spare[lo] = np.inf
        older[top + 2:hi + 2] = np.inf
        last[top + 2:hi + 2] = np.inf
        top = hi
        w = hi + 1 - lo
        s = n + m - 1 - k + lo
        block = costs[:kb, :w]
        windows = sliding_window_view(ypad[s + 1 - kb:s + w], w)[::-1]
        np.subtract(x[lo:hi + 1], windows, out=block)
        np.multiply(block, block, out=block)
        # (buffer, slots lo..hi, slots lo + 1..hi + 1)
        p2 = (older, older[lo:hi + 1], older[lo + 1:hi + 2])
        p1 = (last, last[lo:hi + 1], last[lo + 1:hi + 2])
        cur = (spare, spare[lo:hi + 1], spare[lo + 1:hi + 2])
        for c in block:
            # cell (i, k - i) reads slots i, i + 1 of diagonal k - 1 and
            # slot i of diagonal k - 2
            span = cur[2]
            np.minimum(p2[1], p1[1], out=span)
            np.minimum(span, p1[2], out=span)
            np.add(span, c, out=span)
            if flat is not None:
                a = max(lo, k - m + 1)
                b = min(hi, k)
                flat[a * (m - 1) + k:b * (m - 1) + k + 1:m - 1] = span[a - lo:b + 1 - lo]
            p2, p1, cur = p1, cur, p2
            k += 1
        older, last, spare = p2[0], p1[0], cur[0]
        lo1, hi1 = _kept_rows(p1[2], lo, bound)
        lo2, hi2 = _kept_rows(p2[2], lo, bound)
    return float(last[n])


def _backtrack(acc: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class DtwScore:
    """Dynamic time warping distance between two sequences.

    distance is the square root of the accumulated cost at the far corner;
    normalized_distance rescales distance into [0, 1] against a worst-case
    constant reference (see dtw).
    """

    distance: float
    normalized_distance: float

    @property
    def similarity(self) -> float:
        return 1.0 - self.normalized_distance


@dataclass(frozen=True)
class DtwResult(DtwScore):
    """A DtwScore plus the alignment behind it.

    cost_matrix holds the accumulated costs (shape n x m); path is the optimal
    warping path as an array of (i, j) index pairs from (0, 0) to
    (n-1, m-1).
    """

    cost_matrix: np.ndarray
    path: np.ndarray


def _worst_case_corner(x: np.ndarray, m: int) -> float:
    """Accumulated DTW cost between x and its worse constant range extreme.

    Against a constant c the local cost of every cell in row i is
    (x[i] - c)**2, so the optimal path costs sum((x - c)**2) plus, when the
    constant sequence is longer, (m - n) repeats of the cheapest row.
    """
    n = len(x)
    worst = 0.0
    for c in (float(x.min()), float(x.max())):
        w = np.square(x - c)
        corner = float(w.sum())
        if m > n:
            corner += (m - n) * float(w.min())
        worst = max(worst, corner)
    return worst


def _normalized(xa: np.ndarray, m: int, distance: float) -> float:
    worst = math.sqrt(_worst_case_corner(xa, m))
    if worst == 0.0:
        return 0.0 if distance == 0.0 else 1.0
    return min(1.0, distance / worst)


def dtw(x, y) -> DtwResult:
    """Align two sequences by dynamic time warping.

    Local cost is the squared sample difference; allowed steps are the three
    unit moves. distance is the square root of the accumulated cost between
    the sequence ends. normalized_distance divides that by the distance from
    x to a constant signal of y's length held at whichever extreme of x's
    range is farther (the costlier of the two), clamped to [0, 1];
    1 - normalized_distance is the similarity used in reports and sweeps.

    Raises MatrixTooLargeError, before allocating, when the matrix would
    have more than 2**24 cells; dtw_score needs no matrix.
    """
    xa = _metric_input(x)
    ya = _metric_input(y)
    if len(xa) * len(ya) > _MAX_MATRIX_CELLS:
        raise MatrixTooLargeError(
            f"a {len(xa)} x {len(ya)} DTW cost matrix exceeds the limit of "
            f"{_MAX_MATRIX_CELLS} cells"
        )
    # The squared difference is symmetric, so the DP runs with the shorter
    # sequence on the row axis and the matrix is transposed back after.
    rows, cols = sorted((xa, ya), key=len)
    acc = np.empty((len(rows), len(cols)))
    distance = math.sqrt(_accumulate(rows, cols, acc))
    if rows is not xa:
        acc = np.ascontiguousarray(acc.T)
    path = _backtrack(acc)
    acc.flags.writeable = False
    path.flags.writeable = False
    return DtwResult(distance=distance,
                     normalized_distance=_normalized(xa, len(ya), distance),
                     cost_matrix=acc, path=path)


def dtw_score(x, y) -> DtwScore:
    """The distance and normalized distance of dtw(x, y), without the matrix.

    Runs the same dynamic program without storing the n x m matrix, in
    memory linear in n + m; the result equals dtw(x, y)'s distance and
    normalized_distance exactly.
    """
    xa = _metric_input(x)
    ya = _metric_input(y)
    distance = math.sqrt(_accumulate(*sorted((xa, ya), key=len)))
    return DtwScore(distance=distance,
                    normalized_distance=_normalized(xa, len(ya), distance))


def _metric_input(x) -> np.ndarray:
    xa = np.asarray(x, dtype=np.float64)
    if xa.ndim != 1:
        raise ValueError(f"input must be one-dimensional, got shape {xa.shape}")
    if len(xa) == 0:
        raise EmptyInputError("input sequence is empty")
    return xa


def pearson(x, y) -> float:
    """Pearson product-moment correlation of two equal-length sequences."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape or len(xa) < 2:
        raise LengthMismatchError(
            f"need two equal-length sequences of >= 2 samples, got {xa.shape} and {ya.shape}"
        )
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("correlation is undefined for a constant sequence")
    r = float(np.dot(dx, dy)) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, r))


def energy(x) -> float:
    """Sum of squared samples: the discrete signal energy."""
    xa = _metric_input(x)
    return float(np.dot(xa, xa))


def power(x, f_samp: float) -> float:
    """Energy divided by the sampling rate, a Riemann sum for the time integral."""
    if not (math.isfinite(f_samp) and f_samp > 0):
        raise BadRateError(f"f_samp must be positive and finite, got {f_samp}")
    return energy(x) / f_samp
