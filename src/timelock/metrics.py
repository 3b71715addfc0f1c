"""Similarity and conservation metrics: Pearson correlation, DTW, energy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (
    ConfigError,
    EmptyInputError,
    LengthMismatchError,
    MatrixTooLargeError,
    NonFiniteError,
    ZeroVarianceError,
)
from .model import MAX_SAMPLES as _MAX_MATRIX_CELLS  # largest cost matrix dtw() builds

_COST_BLOCK = 64  # most anti-diagonals whose local costs are computed in one call
_BLOCK_CELLS = 1 << 21  # cells a cost block may hold: 16 MiB of float64


def _path_bound(x: np.ndarray, y: np.ndarray) -> float:
    """Accumulated cost of a straight monotone path: its cell s, for s < L =
    max(n, m), is (s * (n - 1) // (L - 1), s * (m - 1) // (L - 1)).

    The costs are added one cell at a time in path order, exactly as the DP
    adds them. Rounding is monotone and costs are non-negative, so the DP's
    corner value, its minimum over all paths, is at most this bound. The
    longer sequence's index is s itself. Swapping x and y swaps the indices,
    and (y - x)**2 has the bits of (x - y)**2, so either orientation gives
    the same bound.
    """
    short, long = sorted((x, y), key=len)
    rows = np.arange(len(long)) * (len(short) - 1) // max(len(long) - 1, 1)
    d = short[rows] - long
    return float(np.cumsum(d * d)[-1])


def _kept_slots(values: np.ndarray, start: np.ndarray,
                bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last slot of each segment whose value is not above its bound.

    bounds holds each slot's bound, the bound of the segment it belongs to.
    Segment p runs from slot start[p], a separator whose inf is above every
    bound, to the slot before start[p + 1]. A segment with no kept slot
    gives a first slot past every slot and a last slot before its separator.
    """
    drop = values > bounds
    # a dropped slot moves past every slot for the minimum, below 0 for the maximum
    shift = drop * len(values)
    slot = np.arange(len(values))
    return (np.minimum.reduceat(slot + shift, start),
            np.maximum.reduceat(slot - shift, start))


def _diagonals(table: np.ndarray) -> None:
    """Overwrite rows 2 and up of table, the local costs of consecutive
    anti-diagonals, in place with their accumulated costs. The cell in slot
    f reads slots f - 1 and f of the row before and slot f - 1 of the row
    before that; slot 0 is never written."""
    lower, upper = table[:, :-1], table[:, 1:]
    span = np.empty(table.shape[1] - 1)
    minimum, add = np.minimum, np.add
    p2, p1, q1 = lower[0], lower[1], upper[1]
    for low, cost in zip(lower[2:], upper[2:]):
        minimum(p2, p1, out=span)
        minimum(span, q1, out=span)
        add(span, cost, out=cost)
        p2, p1, q1 = p1, low, cost


def _accumulate(problems, acc: np.ndarray | None = None) -> list[float]:
    """Accumulated DTW cost at the far corner of each (x, y).

    Local cost is the squared sample difference. Cell (i, j) on anti-diagonal
    d = i + j depends only on diagonals d - 1 and d - 2, so the diagonals
    are computed a block of kb at a time and the n x m matrix is never held:
    kb is _COST_BLOCK, or fewer when the block would pass _BLOCK_CELLS
    cells, but at least one. y is reversed once so a diagonal's local costs
    are contiguous.

    The problems are independent and advance together, one diagonal of every
    problem per step, so the three ufunc calls of a step serve them all.
    Within a block each problem covers fixed rows lo..hi, with hi = top + kb
    for top its last kept row, laid out as one segment of a row: a
    separator slot for row lo - 1, then the rows. A block is one table of
    kb + 2 such rows. Rows 0 and 1 hold the two diagonals carried from the
    previous block, and rows 2 and up the local costs of the block's
    diagonals, which _diagonals overwrites in place with accumulated
    costs. Rows that the previous block did not keep start at inf.

    A block's local costs come from two strips. One holds the x of each
    slot: inf for a separator, so the recurrence keeps it inf and no problem
    reads its neighbour, and inf for a row past n - 1. The y of the cell in
    slot f on block diagonal r depends, within a segment, only on f - r, so
    the other strip holds at f - r a reversed slice of y, each segment's
    from its separator slot + 2 - kb to the next one's. A view of it with a
    row stride of minus one sample gives every cell its y, and the costs
    are (y - x)**2, the same bits as (x - y)**2, from one copy and two
    in-place ufunc calls for the whole block. A cell whose f - r lies in its
    neighbour's slice, or past either end of the strip (where it reads 0),
    is a separator or lies at a row i > top + r + 2. Every path to such a
    row crosses the carried diagonals above row top, where no cell is
    within the bound, so its cost cannot reach a kept value. That holds
    because hi is top + kb even past n - 1. Cells outside a grid come out
    harmless too: left of column 0 they stay inf, right of column m - 1 no
    grid cell reads them, and no cell reads those after a problem's last
    diagonal; the problem leaves the layout at the next block.

    A block's set-up lays out the segments with Python integers from each
    problem's stack entry (its last diagonal, n - 1 and m + 1 among them),
    origin, the carried slot of its row 0, and its kept rows. It drops the
    problems past their last diagonal, copies each one's kept rows lo..top
    of the carried diagonals, at origin + row, with one assignment, and
    takes its slices of both strips. After the recurrence the block reads
    the corner of each problem that ends in it, and its last two rows
    become the next block's carried diagonals; _kept_slots finds the kept
    rows of every segment in eight NumPy calls. No view of the table
    outlives the block.

    Between blocks, rows are dropped from both ends of a segment while
    their cost on both of the last two diagonals exceeds the problem's
    bound, and carried rows past top are not copied. No such cell lies on
    the optimal path, and a cell within the bound takes its minimum from a
    predecessor within the bound, so every kept value and the corner come
    out bit for bit as in the full DP. A scored problem has its
    straight-path bound, which, like its corner, is the same in either
    orientation, so for similar sequences only a narrow band around the
    optimal path is computed. When acc is given, the one problem is
    bounded by the largest finite float, which every cell of its grid is
    below (see _dtw_pair), and each diagonal of the table is written into
    acc, giving the full accumulated-cost matrix.
    """
    bound = np.array([np.finfo(np.float64).max if acc is not None else _path_bound(x, y)
                      for x, y in problems])
    flat = None if acc is None else acc.reshape(-1)
    # (problem, xpad, ypad, c, last diagonal, n - 1, m + 1) of each problem in
    # the layout, in layout order: xpad is x and _COST_BLOCK infs, and
    # ypad[c - 1 - j] == y[j] with margin zeros on each side. A block's rows
    # grow by at most one per diagonal, so no computed cell lies more than
    # margin columns past either end of y.
    margin = _COST_BLOCK + 1
    item = np.dtype(np.float64).itemsize
    strides = (-item, item)
    sep = np.full(1, np.inf)  # a separator's x
    tail = np.full(_COST_BLOCK, np.inf)  # the x of rows past n - 1
    stack = []
    for p, (x, y) in enumerate(problems):
        n, m = len(x), len(y)
        ypad = np.zeros(m + 2 * margin)
        ypad[margin:margin + m] = y[::-1]
        stack.append((p, np.concatenate((x, tail)), ypad, margin + m, n + m - 2, n - 1, m + 1))
    d = np.array([x[0] - y[0] for x, y in problems])
    corners = (d * d).tolist()
    if flat is not None:
        flat[0] = corners[0]

    # Diagonal 0 in a layout of two slots per problem; diagonal -1 is all inf.
    carried = np.full((2, 2 * len(stack)), np.inf)  # diagonals k - 2 and k - 1
    carried[1, 1::2] = corners
    origin = list(range(1, 2 * len(stack), 2))  # each problem's carried slot of row 0
    first = top = [0] * len(stack)  # its first and last rows kept on diagonal k - 1 or k - 2

    k = 1
    while True:
        alive = [e[4] >= k for e in stack]
        stack, origin, first, top = (list(compress(v, alive))
                                     for v in (stack, origin, first, top))
        bound = bound[alive]
        if not stack:
            return corners
        # Row lo - 1 is dropped on both earlier diagonals or lies right of
        # the grid (first is never negative); kept rows widen by at most one
        # per diagonal, and no kept row lies past n - 1. slots is the width
        # of a _COST_BLOCK-deep block, which no shallower block passes, so
        # the table holds at most max(_BLOCK_CELLS, slots) cells plus its
        # two carried rows.
        lo = [max(f, k - e[6]) for f, e in zip(first, stack)]
        slots = sum(top) - sum(lo) + (_COST_BLOCK + 2) * len(lo)
        kb = max(1, min(_COST_BLOCK, max(e[4] for e in stack) + 1 - k, _BLOCK_CELLS // slots))
        width = [t + kb + 2 - a for a, t in zip(lo, top)]  # a separator, rows lo..hi
        table = np.empty((kb + 2, sum(width)))
        table[:2] = np.inf
        start = []  # each segment's separator slot
        ends = []  # (problem, table row, slot) of each corner in the block
        xs = []  # the x strip: each segment's separator, then its rows
        ys = []  # the y strip between its ends, by slot minus block diagonal
        s = 0
        for (p, xpad, ypad, c, last, n1, _), o, a, t, w in zip(stack, origin, lo, top, width):
            start.append(s)
            # never empty: the optimal path's row on a carried diagonal is kept
            keep = t + 1 - a
            table[:2, s + 1:s + 1 + keep] = carried[:, o + a:o + a + keep]
            xs += sep, xpad[a:a + w - 1]
            # the cell of row i = f - s - 1 + a on block diagonal r needs
            # y[k + r - i] == ypad[j + f - r - (s + 2 - kb)]
            j = c + a - k - kb
            ys.append(ypad[j:j + w])
            if last < k + kb:
                ends.append((p, last + 2 - k, s + 1 + n1 - a))
            s += w
        # strip[f - r + kb - 1] is the y of slot f on block diagonal r
        strip = np.zeros(s + kb)
        np.concatenate(ys, out=strip[1:s + 1])
        costs = table[2:]
        np.copyto(costs, np.ndarray((kb, s), None, strip, (kb - 1) * item, strides))
        np.subtract(costs, np.concatenate(xs), out=costs)
        np.multiply(costs, costs, out=costs)
        _diagonals(table)
        for p, r, f in ends:
            corners[p] = float(table[r, f])
        if flat is not None:
            (n, m), row0 = acc.shape, lo[0]
            # a one-column matrix has one cell per diagonal: any step
            step = max(m - 1, 1)
            for d in range(k, k + kb):
                a = max(row0, d - m + 1)
                b = min(d, n - 1)
                flat[a * (m - 1) + d:b * (m - 1) + d + 1:step] = \
                    table[d + 2 - k, a + 1 - row0:b + 2 - row0]
        k += kb
        carried = table[kb:].copy()  # diagonals k - 2 and k - 1
        del table, costs  # free the table before the next one is allocated
        origin = [s + 1 - a for s, a in zip(start, lo)]
        first, top = _kept_slots(np.minimum(*carried), np.array(start),
                                 np.repeat(bound, width))
        first = [t - o for t, o in zip(first.tolist(), origin)]
        top = [t - o for t, o in zip(top.tolist(), origin)]


def _backtrack(acc: np.ndarray) -> np.ndarray:
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:  # stops even if a corrupt matrix leads off it
        # a step off the matrix reads inf; ties prefer the diagonal, then
        # the step that advances x
        diag, vert, horiz = [acc.item(a, b) if a >= 0 <= b else math.inf
                             for a, b in ((i - 1, j - 1), (i - 1, j), (i, j - 1))]
        if diag <= vert and diag <= horiz:
            i -= 1
            j -= 1
        elif vert <= horiz:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    return np.array(path[::-1], dtype=np.int64)


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


def _worst_case_corner(x: np.ndarray) -> float:
    """Accumulated DTW cost between x and a constant at its worse range
    extreme. Against a constant c the optimal path costs sum((x - c)**2)
    plus repeats of the cheapest row, which costs 0 since c is a sample of
    x, so the constant's length does not matter."""
    return max(float(np.square(x - c).sum()) for c in (x.min(), x.max()))


def _score(corner: float, worst_corner: float, e: int) -> DtwScore:
    """The DtwScore of a pair scaled by 2**-e from its corner and its
    worst-case corner, both at that scale; the distance scales back by
    2**e, and the normalized distance, a quotient of two distances, does
    not depend on the scale."""
    distance = math.sqrt(corner)
    worst = math.sqrt(worst_corner)
    if worst == 0.0:
        normalized = 0.0 if distance == 0.0 else 1.0
    else:
        normalized = min(1.0, distance / worst)
    with np.errstate(over="ignore"):
        distance = float(np.ldexp(distance, e))
    return DtwScore(distance=distance, normalized_distance=normalized)


def dtw(x, y) -> DtwResult:
    """Align two sequences by dynamic time warping.

    Local cost is the squared sample difference; allowed steps are the three
    unit moves. distance is the square root of the accumulated cost between
    the sequence ends. normalized_distance divides that by the distance from
    x to a constant signal held at whichever extreme of x's range is
    farther (the costlier of the two), clamped to [0, 1];
    1 - normalized_distance is the similarity used in reports and sweeps.

    A pair whose largest magnitude lies outside [2**-400, 2**496) runs
    scaled by a power of two, 2**-e (see _dtw_pair): its path comes from
    that matrix, which is then multiplied by 4**e, and its distance is
    dtw_score's, as for every pair.

    Raises NonFiniteError for a NaN or infinite sample, and
    MatrixTooLargeError, before allocating, when the matrix would have more
    than 2**24 cells; dtw_score needs no matrix.
    """
    xa, ya, e = _dtw_pair(_dtw_input(x), _dtw_input(y))
    if len(xa) * len(ya) > _MAX_MATRIX_CELLS:
        raise MatrixTooLargeError(
            f"a {len(xa)} x {len(ya)} DTW cost matrix exceeds the limit of "
            f"{_MAX_MATRIX_CELLS} cells"
        )
    acc = np.empty((len(xa), len(ya)))
    score = _score(_accumulate([(xa, ya)], acc)[0], _worst_case_corner(xa), e)
    path = _backtrack(acc)
    with np.errstate(over="ignore"):
        np.ldexp(acc, 2 * e, out=acc)
    acc.flags.writeable = False
    path.flags.writeable = False
    return DtwResult(score.distance, score.normalized_distance, cost_matrix=acc, path=path)


def dtw_score(x, y) -> DtwScore:
    """The distance and normalized distance of dtw(x, y), without the matrix.

    Runs the same dynamic program without storing the n x m matrix, in
    memory linear in n + m, as a stack of one in dtw_scores; the result
    equals dtw(x, y)'s distance and normalized_distance exactly.
    """
    return dtw_scores([(x, y)])[0]


def dtw_scores(pairs) -> list[DtwScore]:
    """dtw_score of each (x, y) pair, from dynamic programs run side by side.

    The pairs advance together in one stack, one anti-diagonal of every pair
    per NumPy step. Each score equals dtw_score(x, y) bit for bit. The memory
    is a cost block of at most _BLOCK_CELLS cells (16 MiB), or one
    anti-diagonal of the stack when that is larger, plus buffers linear in
    both lengths of each pair. A distance scales exactly with the
    samples, and a normalized distance does not depend on their scale (see
    _dtw_pair). Raises NonFiniteError if any pair holds a NaN or infinite
    sample.
    """
    pairs = list(pairs)
    # each distinct input object is checked once, and each distinct x's
    # worst-case corner is taken once per scale; the list keeps every
    # object alive, so no id is reused within the call
    checked = {id(v): v for pair in pairs for v in pair}
    checked = {key: _dtw_input(v) for key, v in checked.items()}
    inputs = [_dtw_pair(checked[id(x)], checked[id(y)]) for x, y in pairs]
    corners = _accumulate([(xa, ya) for xa, ya, _ in inputs])
    worst = {}
    scores = []
    for (x, _), (xa, _, e), corner in zip(pairs, inputs, corners):
        key = id(x), e  # xa is x scaled by 2**-e
        if key not in worst:
            worst[key] = _worst_case_corner(xa)
        scores.append(_score(corner, worst[key], e))
    return scores


def _metric_input(x) -> np.ndarray:
    xa = np.asarray(x, dtype=np.float64)
    if xa.ndim != 1:
        raise ConfigError(f"input must be one-dimensional, got shape {xa.shape}")
    if len(xa) == 0:
        raise EmptyInputError("input sequence is empty")
    return xa


def _dtw_input(x) -> tuple[np.ndarray, float]:
    """x as a float64 array and its largest magnitude, which is NaN or inf
    exactly when a sample is."""
    xa = _metric_input(x)
    peak = float(np.abs(xa).max())
    if not math.isfinite(peak):
        raise NonFiniteError("DTW input contains NaN or infinite samples")
    return xa, peak


def _dtw_pair(x_input, y_input) -> tuple[np.ndarray, np.ndarray, int]:
    """x and y, from their _dtw_input, scaled by one power of two, 2**-e,
    and e.

    A pair whose largest magnitude M lies in [2**-400, 2**496) keeps its
    samples, and e is 0. Its local costs are below (2 M)**2 < 2**994. A
    corner, the straight-path bound and the worst-case corner each add at
    most n + m - 1 of them, and for n, m <= 2**28 samples (a trial holds
    at most 2**24) that is under 2**29 costs, whose sum stays below 2**1023
    and, with its roundings, below the float range. A cost loses bits to
    underflow only below 2**-1022, which is at most 2**-222 M**2. Any other
    pair is scaled by _unit_scale, so that M lies in [0.5, 1).
    """
    (xa, x_peak), (ya, y_peak) = x_input, y_input
    if 2.0 ** -400 <= max(x_peak, y_peak) < 2.0 ** 496:
        return xa, ya, 0
    return _unit_scale(xa, ya)


def _unit_scale(*arrays: np.ndarray) -> tuple:
    """The arrays scaled by one power of two, 2**-e, so that their largest
    magnitude lies in [0.5, 1), followed by e. The scaling is exact except
    for samples that it takes below the normal range."""
    e = int(np.frexp(max(np.abs(a).max() for a in arrays))[1])
    return (*(np.ldexp(a, -e) for a in arrays), e)


def pearson(x, y) -> float:
    """Pearson product-moment correlation of two equal-length sequences.

    Raises NonFiniteError for a NaN or infinite sample and ZeroVarianceError
    for a constant sequence, before any sum is taken. r does not depend on
    the scale of either input, so when a sum of squares overflows, or their
    product overflows or underflows to zero, the sums are taken again on
    each input brought to unit scale by _unit_scale.
    Each sum is NumPy's pairwise np.add.reduce, whose order, unlike that of
    a BLAS dot product, does not depend on the number of BLAS threads.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape or len(xa) < 2:
        raise LengthMismatchError(
            f"need two equal-length sequences of >= 2 samples, got {xa.shape} and {ya.shape}"
        )
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise NonFiniteError("Pearson input contains NaN or infinite samples")
    if xa.min() == xa.max() or ya.min() == ya.max():
        raise ZeroVarianceError("correlation is undefined for a constant sequence")
    for scaled in (False, True):
        if scaled:
            xa, ya = (_unit_scale(v)[0] for v in (xa, ya))
        with np.errstate(over="ignore", invalid="ignore"):
            dx = xa - xa.mean()
            dy = ya - ya.mean()
            sx = float(np.add.reduce(dx * dx))
            sy = float(np.add.reduce(dy * dy))
        if 0.0 < sx * sy < math.inf:
            break
    r = float(np.add.reduce(dx * dy)) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, r))


def energy(x) -> float:
    """Sum of squared samples: the discrete signal energy, summed by
    np.add.reduce as in pearson, whatever the number of BLAS threads. A sum
    past the float range is inf, without an overflow warning."""
    xa = _metric_input(x)
    with np.errstate(over="ignore"):
        return float(np.add.reduce(xa * xa))
