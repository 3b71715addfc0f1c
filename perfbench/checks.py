"""Output checks that do not trust the program under test.

Every check recomputes what it needs with plain NumPy: closed-form sine
mixes, np.corrcoef, np.dot, an unpruned DTW dynamic program, and its own
parsers of the file formats. None compares against a saved copy of earlier
output. A check raises CheckError with a message naming what differed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Interval accuracy on pure sines per unit amplitude, as the README states:
# about 1e-5 for the default filter and 1e-7 for half_width=64, beta=14.
DEFAULT_FILTER_TOL = 1e-5
QUALITY_FILTER_TOL = 1e-7
# np.corrcoef and the program's Pearson sum in different orders.
CORR_TOL = 1e-12
ENERGY_RTOL = 1e-12


class CheckError(AssertionError):
    """An output of the program disagrees with its independent reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def sine_mix(positions: np.ndarray, f_samp: float, freqs, amplitudes, phases) -> np.ndarray:
    """a1*sin(2*pi*f1*n/fs + p1) + a2*sin(2*pi*f2*n/fs + p2) at sample positions n."""
    t = np.asarray(positions, dtype=np.float64) / f_samp
    return sum(a * np.sin(2.0 * math.pi * f * t + p)
               for f, a, p in zip(freqs, amplitudes, phases))


def remapped_positions(start: int, in_len: int, out_len: int) -> np.ndarray:
    """Input positions onset + k*(in_len-1)/(out_len-1) of a warped interval."""
    return start + np.arange(out_len) * ((in_len - 1) / (out_len - 1))


def nearest_remap(seg: np.ndarray, out_len: int) -> np.ndarray:
    """The nearest-sample remap warp_trial documents as its correlation reference."""
    pos = np.arange(out_len) * ((len(seg) - 1) / (out_len - 1))
    return seg[np.rint(pos).astype(np.int64)]


def check_closed_form(warped: np.ndarray, start: int, in_len: int, f_samp: float,
                      mix: dict, tol_per_unit: float, label: str) -> None:
    """A noise-free warped interval against the sine mix at its remapped positions.

    The filter is linear, so each sine contributes at most tol_per_unit times
    its amplitude to the error.
    """
    expected = sine_mix(remapped_positions(start, in_len, len(warped)), f_samp, **mix)
    tol = tol_per_unit * sum(abs(a) for a in mix["amplitudes"])
    err = float(np.max(np.abs(warped - expected)))
    require(err <= tol, f"{label}: max error {err:.3e} against the closed form exceeds {tol:.3e}")


def check_preserved(inp: np.ndarray, out: np.ndarray, onset: int, offset: int,
                    label: str) -> None:
    """Output length equals input length and pre/post are bitwise the input."""
    require(len(out) == len(inp), f"{label}: output has {len(out)} samples, input {len(inp)}")
    require(np.array_equal(out[:onset], inp[:onset]), f"{label}: pre interval differs from the input")
    require(np.array_equal(out[offset:], inp[offset:]),
            f"{label}: post interval differs from the input")


def check_events(events, expected, label: str) -> None:
    got = tuple(events)
    require(got == tuple(expected), f"{label}: events {got}, expected {tuple(expected)}")


def check_interval_scores(original: np.ndarray, warped: np.ndarray, correlation: float,
                          energy_in: float, energy_out: float, label: str) -> None:
    """Correlation against np.corrcoef of the nearest-sample remap; energies against np.dot."""
    reference = nearest_remap(original, len(warped))
    expected = float(np.corrcoef(warped, reference)[0, 1])
    require(abs(correlation - expected) <= CORR_TOL,
            f"{label}: correlation {correlation!r}, np.corrcoef gives {expected!r}")
    for name, got, seg in (("energy_in", energy_in, original), ("energy_out", energy_out, warped)):
        want = float(np.dot(seg, seg))
        require(abs(got - want) <= ENERGY_RTOL * abs(want),
                f"{label}: {name} {got!r}, np.dot gives {want!r}")


def check_identity(inp: np.ndarray, out: np.ndarray, distances, correlations,
                   label: str) -> None:
    """A trial already at its targets comes back bitwise, at DTW distance 0 and correlation 1."""
    require(np.array_equal(out, inp), f"{label}: identity warp changed the samples")
    require(all(d == 0.0 for d in distances), f"{label}: identity DTW distances {distances}")
    require(all(abs(c - 1.0) <= CORR_TOL for c in correlations),
            f"{label}: identity correlations {correlations}")


def dtw_corner(x: np.ndarray, y: np.ndarray) -> float:
    """Unpruned DTW accumulated cost at the far corner, by anti-diagonals.

    acc[i, j] = (x[i] - y[j])**2 + min(acc[i-1, j-1], acc[i-1, j], acc[i, j-1])
    over every cell of the grid. Rows are indexed by i on each diagonal.
    """
    n, m = len(x), len(y)
    older = np.full(n + 1, np.inf)  # slot i + 1 holds row i of diagonal k - 2
    last = np.full(n + 1, np.inf)   # and of diagonal k - 1
    last[1] = (x[0] - y[0]) ** 2
    for k in range(1, n + m - 1):
        lo, hi = max(0, k - m + 1), min(n - 1, k)
        i = np.arange(lo, hi + 1)
        d = x[i] - y[k - i]
        best = np.minimum(np.minimum(older[i], last[i]), last[i + 1])
        cur = np.full(n + 1, np.inf)
        cur[i + 1] = d * d + best
        older, last = last, cur
    return float(last[n])


def check_dtw_distance(x: np.ndarray, y: np.ndarray, distance: float, label: str) -> None:
    """A reported DTW distance equals sqrt of the unpruned DP's corner exactly."""
    want = math.sqrt(dtw_corner(x, y))
    require(distance == want, f"{label}: DTW distance {distance!r}, unpruned DP gives {want!r}")


def check_cost_matrix(x: np.ndarray, y: np.ndarray, acc: np.ndarray, path: np.ndarray,
                      label: str) -> None:
    """Every cell obeys the DTW recurrence; the path is a unit-step path whose cost is the corner."""
    n, m = len(x), len(y)
    require(acc.shape == (n, m), f"{label}: matrix shape {acc.shape}, inputs {(n, m)}")
    for i in range(n):
        diff = x[i] - y
        d = diff * diff
        want = np.empty(m)
        if i == 0:
            want[0] = d[0]
            want[1:] = d[1:] + acc[0, :-1]
        else:
            want[0] = d[0] + acc[i - 1, 0]
            want[1:] = d[1:] + np.minimum(np.minimum(acc[i - 1, :-1], acc[i - 1, 1:]), acc[i, :-1])
        bad = np.flatnonzero(acc[i] != want)
        require(len(bad) == 0, f"{label}: cell {(i, int(bad[0])) if len(bad) else None} "
                               f"breaks the recurrence ({len(bad)} cells in row {i})")
    require(path.ndim == 2 and path.shape[1] == 2 and len(path) >= 1,
            f"{label}: path has shape {path.shape}")
    require(tuple(path[0]) == (0, 0) and tuple(path[-1]) == (n - 1, m - 1),
            f"{label}: path runs from {tuple(path[0])} to {tuple(path[-1])}")
    steps = np.diff(path, axis=0)
    unit = np.all((steps == 0) | (steps == 1), axis=1) & np.any(steps == 1, axis=1)
    require(bool(np.all(unit)), f"{label}: path makes a step other than (1,0), (0,1), (1,1)")
    diff = x[path[:, 0]] - y[path[:, 1]]
    summed = float(np.cumsum(diff * diff)[-1])
    require(summed == float(acc[-1, -1]),
            f"{label}: path cost {summed!r} differs from the corner {float(acc[-1, -1])!r}")


def check_sweep_rows(keys, statuses, scores, expected_keys, label: str) -> None:
    """A sweep table has one row per expected key, in order, each ok with scores in range."""
    require(len(keys) == len(expected_keys),
            f"{label}: {len(keys)} rows, expected {len(expected_keys)}")
    for key, want, status, (corr, sim) in zip(keys, expected_keys, statuses, scores):
        require(key == want, f"{label}: row {key} out of order, expected {want}")
        require(status == "ok", f"{label}: cell {key} has status {status!r}")
        require(-1.0 <= corr <= 1.0 and 0.0 <= sim <= 1.0,
                f"{label}: cell {key} has correlation {corr!r} and similarity {sim!r}")


# file formats, parsed without the program's readers

def read_trial_file(path: Path) -> tuple[float, np.ndarray]:
    f_samp = None
    values = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            if key.strip() == "f_samp":
                f_samp = float(val)
        elif line:
            values.append(float(line))
    require(f_samp is not None, f"{path}: no f_samp line")
    return f_samp, np.array(values)


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_events_file(path: Path) -> tuple[int, ...]:
    return tuple(int(e["index"]) for e in read_json(path)["events"])


def read_matrix_file(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        head = fh.readline()
    require(head.startswith("# shape: "), f"{path}: no shape line")
    shape = tuple(int(v) for v in head[len("# shape: "):].split(","))
    acc = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    require(acc.shape == shape, f"{path}: {acc.shape} cells under a shape line of {shape}")
    return acc


def read_path_file(path: Path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").split()
    require(lines[0] == "i,j", f"{path}: header {lines[0]!r}")
    return np.array([[int(v) for v in line.split(",")] for line in lines[1:]], dtype=np.int64)
