"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts. Quality thresholds are evaluated
on the default demonstration trial (4 s at 2048 Hz); the sinc filter runs at
its package defaults except where a criterion probes pure numerical accuracy,
which uses the high-accuracy configuration noted inline.
"""

import json
import time

import numpy as np
import pytest

from helpers import (
    assert_valid_path,
    brute_force_min_cost,
    dijkstra_min_cost,
    path_count,
)

from timelock import (
    SincConfig,
    SweepConfig,
    SynthSpec,
    dtw,
    fsamp_sweep,
    generate,
    padding_sweep,
    partition_from_events,
    plan_warp,
    warp_trial,
)
from timelock.cli import main as cli_main
from timelock.resample import resample

REFERENCE_PAD = 0.10
WARP_MAGNITUDE = 0.2


def _report(criterion, elapsed, budget, checks):
    ok = all(passed for _, passed in checks)
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {criterion}: {elapsed:.2f}s (budget {budget:.0f}s)")
    failed = [label for label, passed in checks if not passed]
    assert not failed, f"{criterion}: failed checks: {failed}"
    assert elapsed < budget, f"{criterion}: {elapsed:.2f}s exceeded {budget:.0f}s budget"


def _split_targets(partition, scale):
    total = partition.len_t1 + partition.len_t2
    t1 = round(partition.len_t1 * scale)
    return t1, total - t1


def _direction_reports(trial, partition, pad_fraction):
    reports = {}
    for name, scale in (("contract_t1", 1 - WARP_MAGNITUDE),
                        ("expand_t1", 1 + WARP_MAGNITUDE)):
        t1, t2 = _split_targets(partition, scale)
        spec = plan_warp(partition, t1, t2, pad_fraction, trial.f_samp)
        reports[name] = warp_trial(trial, partition, spec)
    return reports


def test_criterion_01_identity_warp(demo_trial, demo_partition):
    start = time.perf_counter()
    checks = []
    for pad in (0.0, REFERENCE_PAD):
        spec = plan_warp(demo_partition, demo_partition.len_t1,
                         demo_partition.len_t2, pad, demo_trial.f_samp)
        rep = warp_trial(demo_trial, demo_partition, spec)
        err = np.abs(rep.warped.samples - demo_trial.samples).max()
        checks += [
            (f"pad={pad}: max abs error {err:.2e} <= 1e-9", err <= 1e-9),
            (f"pad={pad}: t1 correlation == 1.0", rep.t1.correlation == pytest.approx(1.0, abs=1e-12)),
            (f"pad={pad}: t2 correlation == 1.0", rep.t2.correlation == pytest.approx(1.0, abs=1e-12)),
            (f"pad={pad}: t1 dtw distance == 0", rep.t1.dtw.distance == 0.0),
            (f"pad={pad}: t2 dtw distance == 0", rep.t2.dtw.distance == 0.0),
        ]
    _report("criterion 1 (identity warp)", time.perf_counter() - start, 1.0, checks)


def test_criterion_02_length_and_fixed_interval_preservation(demo_trial, demo_partition):
    start = time.perf_counter()
    p = demo_partition
    total = p.len_t1 + p.len_t2
    rng = np.random.default_rng(20252)
    ok_len = ok_pre = ok_post = True
    for _ in range(100):
        t1 = int(rng.integers(1, total))
        spec = plan_warp(p, t1, total - t1, REFERENCE_PAD, demo_trial.f_samp)
        rep = warp_trial(demo_trial, p, spec)
        ok_len &= len(rep.warped) == len(demo_trial)
        ok_pre &= np.array_equal(rep.warped.samples[:p.onset],
                                 demo_trial.samples[:p.onset])
        ok_post &= np.array_equal(rep.warped.samples[p.offset:],
                                  demo_trial.samples[p.offset:])
    checks = [("output length equals input length for all 100 splits", ok_len),
              ("pre slices bitwise equal", ok_pre),
              ("post slices bitwise equal", ok_post)]
    _report("criterion 2 (length & fixed-interval preservation)",
            time.perf_counter() - start, 10.0, checks)


def test_criterion_03_correlation_claim(demo_trial, demo_partition):
    start = time.perf_counter()
    reports = _direction_reports(demo_trial, demo_partition, REFERENCE_PAD)
    checks = []
    for name, rep in reports.items():
        for label, interval in (("t1", rep.t1), ("t2", rep.t2)):
            checks.append((
                f"{name}/{label}: correlation {interval.correlation:.4f} >= 0.80",
                interval.correlation >= 0.80,
            ))
    _report("criterion 3 (correlation >= 0.80 at reference padding)",
            time.perf_counter() - start, 5.0, checks)


def test_criterion_04_dtw_similarity_claim(demo_trial, demo_partition):
    start = time.perf_counter()
    reports = _direction_reports(demo_trial, demo_partition, REFERENCE_PAD)
    checks = []
    for name, rep in reports.items():
        for label, interval in (("t1", rep.t1), ("t2", rep.t2)):
            checks.append((
                f"{name}/{label}: similarity {interval.dtw.similarity:.5f} >= 0.99",
                interval.dtw.similarity >= 0.99,
            ))
    _report("criterion 4 (DTW similarity >= 0.99 at reference padding)",
            time.perf_counter() - start, 30.0, checks)


def test_criterion_05_padding_degradation():
    start = time.perf_counter()
    rows = padding_sweep(SweepConfig())
    corr = {}
    for r in rows:
        corr.setdefault(r.pad_fraction, []).append(r.correlation)
    low = np.mean([c for pad, cs in corr.items() if pad <= 1e-3 for c in cs])
    mid = np.mean(corr[1e-2])
    high = np.mean([c for pad, cs in corr.items() if pad >= 1e-1 for c in cs])
    checks = [
        (f"mean corr at pad >= 1e-1 ({high:.8f}) strictly exceeds pad <= 1e-3 ({low:.8f})",
         high > low),
        (f"mean corr at 1e-2 ({mid:.8f}) lies between the two", low <= mid <= high),
    ]
    _report("criterion 5 (padding degradation)", time.perf_counter() - start,
            120.0, checks)


def test_criterion_06_sampling_rate_robustness():
    start = time.perf_counter()
    sweep = SweepConfig()
    rows = [r for r in fsamp_sweep(sweep) if r.pad_fraction == REFERENCE_PAD]
    cells = {}
    for r in rows:
        cells[(r.fsamp_factor, r.direction, r.interval)] = r
    factors = sweep.fsamp_factors
    checks = []

    drift = 0.0
    for (factor, direction, interval), r in cells.items():
        base = cells[(1.0, direction, interval)]
        drift = max(drift, abs(r.correlation - base.correlation))
    checks.append((f"max correlation drift {drift:.4f} <= 0.05 down to 1/32",
                   drift <= 0.05))

    failing = [f for f in factors
               if any(cells[(f, d, iv)].dtw_similarity < 0.99
                      for d in sweep.directions for iv in ("t1", "t2"))]
    held_above = [f for f in factors if f > 0.125 and f not in failing]
    checks.append(("similarity >= 0.99 at every factor > 1/8",
                   held_above == [f for f in factors if f > 0.125]))
    checks.append((f"first failing factor {failing[:1]} exists and is <= 1/8",
                   bool(failing) and failing[0] <= 0.125))
    _report("criterion 6 (sampling-rate robustness)", time.perf_counter() - start,
            300.0, checks)


def test_criterion_07_energy_scaling_law(demo_trial, demo_partition):
    start = time.perf_counter()
    rng = np.random.default_rng(20257)
    worst = 0.0
    for magnitude in rng.uniform(0.05, 0.4, 20):
        t1, t2 = _split_targets(demo_partition, 1 - magnitude)
        spec = plan_warp(demo_partition, t1, t2, REFERENCE_PAD, demo_trial.f_samp)
        rep = warp_trial(demo_trial, demo_partition, spec)
        for interval in (rep.t1, rep.t2):
            worst = max(worst, abs(interval.energy_ratio - 1.0))
    checks = [(f"worst |E_out*r/E_in - 1| = {worst:.2e} <= 0.01", worst <= 0.01)]
    _report("criterion 7 (energy scaling law)", time.perf_counter() - start,
            30.0, checks)


def test_criterion_08_dtw_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20258)
    enumerated = 0
    ok_oracle = ok_paths = ok_enum = True
    for _ in range(200):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        x = rng.normal(size=n)
        y = rng.normal(size=m)
        res = dtw(x, y)
        corner = res.distance ** 2
        oracle = dijkstra_min_cost(x, y)
        ok_oracle &= corner == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        try:
            assert_valid_path(res.path, n, m)
        except AssertionError:
            ok_paths = False
        if path_count(n, m) <= 20000:
            enumerated += 1
            ok_enum &= corner == pytest.approx(brute_force_min_cost(x, y),
                                               rel=1e-9, abs=1e-12)
    checks = [
        ("DP distance matches shortest-path oracle on all 200 pairs", ok_oracle),
        (f"DP distance matches exhaustive enumeration on {enumerated} tractable pairs",
         ok_enum and enumerated > 50),
        ("every path obeys endpoint and step constraints", ok_paths),
    ]
    _report("criterion 8 (DTW oracle equivalence)", time.perf_counter() - start,
            10.0, checks)


def test_criterion_09_resampler_analytic_oracle():
    start = time.perf_counter()
    # accuracy-focused configuration; the package default (32 taps, beta=8)
    # bottoms out near 1e-5 and is checked by its own unit tests
    cfg = SincConfig(half_width=64, beta=14.0)
    fs = 2048.0
    n = 2048
    worst = 0.0
    for f_rel in (0.05, 0.1, 0.2, 0.3, 0.39):
        freq = f_rel * fs / 2
        x = np.sin(2 * np.pi * freq * np.arange(n) / fs)
        for ratio in (0.5, 0.75, 1.25, 2.0):
            out_len = int(round(n / ratio))
            y = resample(x, out_len, cfg)
            pos = np.linspace(0.0, n - 1.0, out_len)
            exact = np.sin(2 * np.pi * freq * pos / fs)
            edge = int(np.ceil(cfg.half_width * (out_len - 1) / (n - 1))) + 2
            worst = max(worst, np.abs(y - exact)[edge:-edge].max())
    checks = [(f"worst interior error {worst:.2e} <= 1e-6 over sines below "
               "0.4*f_nyq and ratios in [0.5, 2]", worst <= 1e-6)]
    _report("criterion 9 (resampler analytic oracle)", time.perf_counter() - start,
            10.0, checks)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    checks = []

    def run(*argv):
        return cli_main([str(a) for a in argv])

    def twice(label, outputs, *argv_template):
        blobs = []
        for tag in ("first", "second"):
            d = tmp_path / f"{label}-{tag}"
            d.mkdir()
            argv = [str(a).replace("{out}", str(d)) for a in argv_template]
            code = run(*argv)
            checks.append((f"{label} ({tag}): exit 0", code == 0))
            blobs.append(b"".join((d / name).read_bytes() for name in outputs))
        checks.append((f"{label}: byte-identical outputs", blobs[0] == blobs[1]))

    # deterministic success path for every subcommand
    twice("synth", ["t.csv", "t.events.json"],
          "synth", "-o", "{out}/t.csv", "--duration", "1")

    seed = tmp_path / "seed.csv"
    run("synth", "-o", seed, "--duration", "1")
    twice("warp", ["w.csv", "w.events.json", "w.report.json"],
          "warp", "-i", seed, "-o", "{out}/w.csv",
          "--t1-target", "410", "--t2-target", "614")
    twice("sweep-padding", ["pad.csv"],
          "sweep-padding", "-o", "{out}/pad.csv", "--duration", "0.5",
          "--pad-fractions", "0.001", "0.1")
    twice("sweep-fsamp", ["fs.csv"],
          "sweep-fsamp", "-o", "{out}/fs.csv", "--duration", "0.5",
          "--fsamp-factors", "1.0", "0.5", "--pad-fractions", "0.1")
    small = tmp_path / "small.csv"
    run("synth", "-o", small, "--duration", "0.05")
    twice("dtw-matrix", ["out.matrix.csv", "out.path.csv"],
          "dtw-matrix", small, small, "-o", "{out}/out")

    # one failure case per subcommand, honouring the exit-code contract
    code = run("synth", "-o", tmp_path / "x.csv", "--f1", "600", "--f2", "700",
               "--f-samp", "1024")
    checks.append(("synth failure: Nyquist violation exits 3", code == 3))

    bad = tmp_path / "bad.csv"
    bad.write_text("# f_samp: 100.0\n0.5\noops\n")
    code = run("warp", "-i", bad, "-o", tmp_path / "x.csv",
               "--onset", "0", "--transition", "1", "--offset", "2",
               "--t1-target", "1", "--t2-target", "1")
    checks.append(("warp failure: malformed row exits 2", code == 2))

    badcfg = tmp_path / "bad.cfg"
    badcfg.write_text("no equals sign\n")
    code = run("sweep-padding", "-o", tmp_path / "x.csv", "--config", badcfg)
    checks.append(("sweep-padding failure: malformed config exits 2", code == 2))

    code = run("sweep-fsamp", "-o", tmp_path / "x.csv",
               "--fsamp-factors", "0.5", "1.0")
    checks.append(("sweep-fsamp failure: unsorted factors exit 2", code == 2))

    code = run("dtw-matrix", tmp_path / "missing.csv", tmp_path / "missing.csv",
               "-o", tmp_path / "x")
    checks.append(("dtw-matrix failure: missing input exits 2", code == 2))

    _report("criterion 10 (CLI determinism & exit codes)",
            time.perf_counter() - start, 30.0, checks)
