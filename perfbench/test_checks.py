"""Mutation tests for the benchmark's output checks.

Each check passes on the program's real output and rejects a minimally
perturbed copy of it. Run with `python3 -m pytest perfbench` from the
repository root.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import timelock  # noqa: E402
import timelock.cli  # noqa: E402,F401

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 5


def flip_low_bit(a: np.ndarray, i: int) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.view(np.int64)[i] ^= 1
    return out


def with_samples(rep, samples):
    return dataclasses.replace(rep, warped=dataclasses.replace(rep.warped, samples=samples))


@pytest.fixture(scope="module")
def batch():
    w = wl.BatchAlign(timelock, SEED, None)
    (op,) = w.round()[:1]
    return w, op.run()


def interval_index(w, noise_free: bool) -> int:
    return next(i for i, (_, _, mix, identity) in enumerate(w.batches[0])
                if (mix is not None) == noise_free and not identity)


def test_batch_outputs_pass(batch):
    w, reports = batch
    w._check(0, reports)
    w.final_check()


def test_flipped_pre_sample_is_rejected(batch):
    w, reports = batch
    bad = list(reports)
    bad[3] = with_samples(bad[3], flip_low_bit(bad[3].warped.samples, 100))
    with pytest.raises(ck.CheckError, match="pre interval"):
        w._check(0, bad)


def test_flipped_post_sample_is_rejected(batch):
    w, reports = batch
    bad = list(reports)
    bad[1] = with_samples(bad[1], flip_low_bit(bad[1].warped.samples, -1))
    with pytest.raises(ck.CheckError, match="post interval"):
        w._check(0, bad)


def test_shifted_event_is_rejected(batch):
    w, reports = batch
    bad = list(reports)
    events = list(bad[2].warped.events)
    events[1] = timelock.EventMarker(events[1].index + 1, events[1].label)
    bad[2] = dataclasses.replace(bad[2], warped=dataclasses.replace(bad[2].warped,
                                                                    events=tuple(events)))
    with pytest.raises(ck.CheckError, match="events"):
        w._check(0, bad)


@pytest.mark.parametrize("noise_free", [True, False])
def test_scaled_interval_is_rejected(batch, noise_free):
    w, reports = batch
    i = interval_index(w, noise_free)
    samples = np.array(reports[i].warped.samples)
    samples[2048:4096] *= 1.001
    bad = list(reports)
    bad[i] = with_samples(bad[i], samples)
    # noise-free trials fail the closed form or the energy; noisy ones the energy
    with pytest.raises(ck.CheckError, match="closed form|energy_out"):
        w._check(0, bad)


def test_scaled_interval_fails_the_closed_form_alone(batch):
    w, reports = batch
    trial, b, mix, _ = w.batches[0][interval_index(w, True)]
    warped = reports[interval_index(w, True)].warped.samples[b.onset:b.onset + 2048]
    ck.check_closed_form(warped, b.onset, b.transition - b.onset, wl.F_SAMP, mix,
                         ck.DEFAULT_FILTER_TOL, "t1")
    with pytest.raises(ck.CheckError, match="closed form"):
        ck.check_closed_form(warped * 1.001, b.onset, b.transition - b.onset, wl.F_SAMP, mix,
                             ck.DEFAULT_FILTER_TOL, "t1")


def test_identity_sample_change_is_rejected(batch):
    w, reports = batch
    i = next(i for i, (*_, identity) in enumerate(w.batches[0]) if identity)
    trial = w.batches[0][i][0]
    out = flip_low_bit(reports[i].warped.samples, 3000)
    with pytest.raises(ck.CheckError, match="identity warp"):
        ck.check_identity(trial.samples, out, (0.0, 0.0), (1.0, 1.0), "identity")
    with pytest.raises(ck.CheckError, match="DTW distances"):
        ck.check_identity(trial.samples, trial.samples, (0.0, 5e-324), (1.0, 1.0), "identity")


def test_wrong_correlation_is_rejected(batch):
    w, reports = batch
    trial, b, _, _ = w.batches[0][0]
    rep = reports[0].t1
    warped = reports[0].warped.samples[b.onset:b.onset + 2048]
    original = trial.samples[b.onset:b.transition]
    ck.check_interval_scores(original, warped, rep.correlation, rep.energy_in, rep.energy_out, "t1")
    with pytest.raises(ck.CheckError, match="correlation"):
        ck.check_interval_scores(original, warped, rep.correlation - 1e-9, rep.energy_in,
                                 rep.energy_out, "t1")


def test_dtw_distance_one_ulp_off_is_rejected(batch):
    w, reports = batch
    trial, b, _, _ = w.batches[0][1]
    x = trial.samples[b.onset:b.transition]
    y = reports[1].warped.samples[b.onset:b.onset + 2048]
    d = reports[1].t1.dtw.distance
    ck.check_dtw_distance(x, y, d, "t1")
    with pytest.raises(ck.CheckError, match="unpruned DP"):
        ck.check_dtw_distance(x, y, np.nextafter(d, np.inf), "t1")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The cli-files workload after one run of its first warp and its dtw-matrix command."""
    w = wl.CliFiles(timelock, SEED, tmp_path_factory.mktemp("cli"))
    ops = w.round()
    for op in (ops[0], ops[-1]):
        op.check(op.run())
    return w, ops[0]


@pytest.fixture(scope="module")
def matrix(cli_files):
    w, _ = cli_files
    _, x = ck.read_trial_file(w.pair[0])
    _, y = ck.read_trial_file(w.pair[1])
    acc = ck.read_matrix_file(w.prefix.with_name("dtw.matrix.csv"))
    path = ck.read_path_file(w.prefix.with_name("dtw.path.csv"))
    return x, y, acc, path


@pytest.mark.parametrize("cell", [(0, 0), (0, 7), (9, 0), (400, 401), (-1, -1)])
def test_cost_cell_one_ulp_off_is_rejected(matrix, cell):
    x, y, acc, path = matrix
    bad = acc.copy()
    bad[cell] = np.nextafter(bad[cell], np.inf)
    with pytest.raises(ck.CheckError, match="recurrence"):
        ck.check_cost_matrix(x, y, bad, path, "pair")


def test_broken_path_is_rejected(matrix):
    x, y, acc, path = matrix
    jump = path.copy()
    jump[len(path) // 2, 1] += 2
    with pytest.raises(ck.CheckError, match="step"):
        ck.check_cost_matrix(x, y, acc, jump, "pair")
    with pytest.raises(ck.CheckError, match="runs from"):
        ck.check_cost_matrix(x, y, acc, path[1:], "pair")
    # a diagonal step replaced by two unit steps is a path, but not the optimal one
    k = next(k for k in range(len(path) - 1) if (path[k + 1] - path[k] == 1).all())
    detour = np.insert(path, k + 1, path[k] + [0, 1], axis=0)
    with pytest.raises(ck.CheckError, match="path cost"):
        ck.check_cost_matrix(x, y, acc, detour, "pair")


def rewrite_trial(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    values = edit(np.array([float(ln) for ln in lines if not ln.startswith("#")]))
    path.write_text("\n".join(head + [repr(float(v)) for v in values]) + "\n", encoding="utf-8")


def test_cli_warp_file_perturbations_are_rejected(cli_files):
    w, _ = cli_files
    case = w.cases[0]
    _, out, t1, b, _ = case
    original = out.read_text(encoding="utf-8")
    events_path = out.with_suffix(".events.json")
    events = events_path.read_text(encoding="utf-8")
    try:
        rewrite_trial(out, lambda v: flip_low_bit(v, 5))
        with pytest.raises(ck.CheckError, match="pre interval"):
            w._check_warp(case)
        out.write_text(original, encoding="utf-8")

        def scale(v):
            v[b.onset:b.onset + t1] *= 1.001
            return v
        rewrite_trial(out, scale)
        with pytest.raises(ck.CheckError, match="closed form|energy_out"):
            w._check_warp(case)
        out.write_text(original, encoding="utf-8")

        payload = json.loads(events)
        payload["events"][1]["index"] += 1
        events_path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ck.CheckError, match="events"):
            w._check_warp(case)
    finally:
        out.write_text(original, encoding="utf-8")
        events_path.write_text(events, encoding="utf-8")
    w._check_warp(case)


def test_nonzero_exit_is_rejected(cli_files):
    _, op = cli_files
    with pytest.raises(ck.CheckError, match="exited 3"):
        op.check(3)


def test_sweep_rows_are_checked():
    w = wl.FsampSweep(timelock, SEED, None)
    (op,) = w.round()
    rows = op.run()
    op.check(rows)
    with pytest.raises(ck.CheckError, match="rows"):
        op.check(rows[:-1])
    with pytest.raises(ck.CheckError, match="status"):
        op.check(rows[:5] + [dataclasses.replace(rows[5], status="BadTargetError")] + rows[6:])
    with pytest.raises(ck.CheckError, match="out of order"):
        op.check([rows[1], rows[0]] + rows[2:])
