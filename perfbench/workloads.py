"""The benchmark's workloads: inputs made from a seed, operations, and their checks.

A workload's constructor is its set-up: it builds every input from the seed,
writing any files under workdir. round() returns one round of operations,
each an Op whose run() calls the package's public API and whose check()
verifies the result with the independent checks. Operations look package
names up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import checks as ck

F_SAMP = 2048.0
PAD_FRACTION = 0.10


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], None]


class Bounds(NamedTuple):
    """Event indices of an input trial, as the benchmark placed them."""

    onset: int
    transition: int
    offset: int

    @classmethod
    def quarters(cls, samples: int, len_t1: int) -> Bounds:
        """Onset and offset at the quarter points, the transition len_t1 after the onset."""
        return cls(samples // 4, samples // 4 + len_t1, 3 * samples // 4)

    @property
    def fracs(self) -> tuple[float, float, float]:
        n = 4 * self.onset
        return (0.25, self.transition / n, 0.75)


def _mix(rng) -> dict:
    """The demonstration trial's two frequencies with seeded amplitudes and phases."""
    return {"freqs": (5.0 / math.pi, 2.5),
            "amplitudes": tuple(float(a) for a in rng.uniform(0.5, 1.5, 2)),
            "phases": tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, 2))}


def _gain_mix(rng) -> dict:
    """The demonstration trial times a seeded gain.

    Every DTW cost scales by the gain squared, so the cells the pruned DP
    keeps, and with them the work, do not depend on the seed.
    """
    gain = float(rng.uniform(0.5, 2.0))
    return {"freqs": (5.0 / math.pi, 2.5), "amplitudes": (gain, gain), "phases": (0.0, 0.0)}


def _strata(rng, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of count equal slices of [lo, hi), in ascending order.

    Every seed then gets the same spread of values, so the work of a round
    varies little between seeds.
    """
    width = (hi - lo) / count
    return [lo + (k + float(rng.uniform())) * width for k in range(count)]


def _synth_spec(tl, mix: dict, samples: int, fracs):
    return tl.SynthSpec(f_samp=F_SAMP, duration_s=samples / F_SAMP, event_fracs=fracs,
                        amplitudes=mix["amplitudes"], phases=mix["phases"])


def _interval(rep) -> dict:
    return {"ratio": rep.ratio, "correlation": rep.correlation, "dtw_distance": rep.dtw.distance,
            "energy_in": rep.energy_in, "energy_out": rep.energy_out}


def _check_warp(inp, out, events, b: Bounds, t1_target: int, reports, mix, tol, label) -> None:
    """Checks every warp gets: outer intervals, events, ratios, scores and, noise-free, the closed form."""
    cut = b.onset + t1_target
    ck.check_preserved(inp, out, b.onset, b.offset, label)
    ck.check_events(events, (b.onset, cut, b.offset), label)
    for name, (lo, hi), (start, end), rep in zip(
            ("t1", "t2"), ((b.onset, b.transition), (b.transition, b.offset)),
            ((b.onset, cut), (cut, b.offset)), reports):
        where = f"{label} {name}"
        warped = out[start:end]
        ratio = (hi - lo) / (end - start)
        ck.require(rep["ratio"] == ratio, f"{where}: ratio {rep['ratio']!r}, expected {ratio!r}")
        ck.check_interval_scores(inp[lo:hi], warped, rep["correlation"], rep["energy_in"],
                                 rep["energy_out"], where)
        if mix is not None:
            ck.check_closed_form(warped, lo, hi - lo, F_SAMP, mix, tol, where)


class BatchAlign:
    """align_batch with FixedTargets at the template's lengths, over batches of 4 s trials.

    Each trial is the demonstration mix times its own gain. Transitions are
    jittered so t1 ratios span 0.6-1.4, and one trial per batch already sits
    at the targets (an identity warp). The other trials, in ascending order of
    t1 length, cycle through noise standard deviations 0, 0.01 and 0.1, so
    every batch has noise-free trials for the closed-form check and every seed
    pairs lengths with noise levels alike.
    """

    BATCHES = 2
    BATCH_SIZE = 8
    SAMPLES = 8192
    TEMPLATE = (2048, 2048)
    NOISE = (0.0, 0.01, 0.1)
    DTW_SAMPLES = 2

    def __init__(self, tl, seed: int, workdir: Path):
        self.tl = tl
        self.rng = np.random.default_rng(seed)
        self.batches = []  # per batch: [(trial, bounds, mix or None, identity)]
        for _ in range(self.BATCHES):
            identity = int(self.rng.integers(self.BATCH_SIZE))
            lengths = iter(_strata(self.rng, 1229, 2868, self.BATCH_SIZE - 1))
            batch = []
            for i in range(self.BATCH_SIZE):
                mix = _gain_mix(self.rng)
                if i == identity:
                    len_t1 = self.TEMPLATE[0]
                    noise = float(self.rng.choice(self.NOISE))
                else:
                    len_t1 = int(next(lengths))
                    len_t1 += len_t1 == self.TEMPLATE[0]  # only one identity trial
                    noise = self.NOISE[(i - (i > identity)) % len(self.NOISE)]
                b = Bounds.quarters(self.SAMPLES, len_t1)
                clean = tl.generate(_synth_spec(tl, mix, self.SAMPLES, b.fracs))
                samples = clean.samples + noise * self.rng.standard_normal(self.SAMPLES)
                batch.append((tl.Trial(samples, F_SAMP, clean.events), b,
                              mix if noise == 0.0 else None, i == identity))
            self.batches.append(batch)
        self.items = [[(t, tl.partition_from_events(t)) for t, *_ in batch]
                      for batch in self.batches]
        self.last = {}  # batch index -> its latest reports

    def round(self) -> list[Op]:
        return [Op(lambda k=k: self.tl.align_batch(self.items[k],
                                                   self.tl.FixedTargets(*self.TEMPLATE),
                                                   PAD_FRACTION),
                   lambda reports, k=k: self._check(k, reports))
                for k in range(self.BATCHES)]

    def _check(self, k: int, reports) -> None:
        self.last[k] = reports
        batch = self.batches[k]
        ck.require(len(reports) == len(batch), f"batch {k}: {len(reports)} reports")
        for i, ((trial, b, mix, identity), rep) in enumerate(zip(batch, reports)):
            label = f"batch {k} trial {i}"
            inp, out = trial.samples, rep.warped.samples
            _check_warp(inp, out, [e.index for e in rep.warped.events], b, self.TEMPLATE[0],
                        (_interval(rep.t1), _interval(rep.t2)), mix, ck.DEFAULT_FILTER_TOL,
                        label)
            if identity:
                ck.check_identity(inp, out, (rep.t1.dtw.distance, rep.t2.dtw.distance),
                                  (rep.t1.correlation, rep.t2.correlation), label)

    def final_check(self) -> None:
        """The unpruned DP against a seeded sample of the t1 dtw_score calls."""
        done = sorted(self.last)  # batches whose align_batch returned
        for _ in range(self.DTW_SAMPLES if done else 0):
            k = done[int(self.rng.integers(len(done)))]
            i = int(self.rng.integers(self.BATCH_SIZE))
            trial, b, _, _ = self.batches[k][i]
            rep = self.last[k][i]
            ck.check_dtw_distance(trial.samples[b.onset:b.transition],
                                  rep.warped.samples[b.onset:b.onset + self.TEMPLATE[0]],
                                  rep.t1.dtw.distance, f"batch {k} trial {i} t1")


class LongRecording:
    """warp_trial on 60 s trials with the high-accuracy filter, t1 contracted and expanded."""

    SAMPLES = 122880
    SCALES = ((0.79, 0.81), (1.24, 1.26))

    def __init__(self, tl, seed: int, workdir: Path):
        self.tl = tl
        rng = np.random.default_rng(seed)
        self.cfg = tl.SincConfig(half_width=64, beta=14.0)
        self.cases = []
        for lo, hi in self.SCALES:
            mix = _gain_mix(rng)
            b = Bounds.quarters(self.SAMPLES, self.SAMPLES // 4 + int(rng.integers(-256, 257)))
            trial = tl.generate(_synth_spec(tl, mix, self.SAMPLES, b.fracs))
            part = tl.partition_from_events(trial)
            len_t1 = b.transition - b.onset
            t1 = round(len_t1 * float(rng.uniform(lo, hi)))
            spec = tl.plan_warp(part, t1, self.SAMPLES // 2 - t1, PAD_FRACTION, F_SAMP)
            self.cases.append((trial, part, spec, b, mix))

    def round(self) -> list[Op]:
        return [Op(lambda c=c: self.tl.warp_trial(*c[:3], self.cfg),
                   lambda rep, c=c, k=k: self._check(c, rep, f"trial {k}"))
                for k, c in enumerate(self.cases)]

    def _check(self, case, rep, label: str) -> None:
        trial, _, spec, b, mix = case
        _check_warp(trial.samples, rep.warped.samples, [e.index for e in rep.warped.events],
                    b, spec.t1_target_len, (_interval(rep.t1), _interval(rep.t2)), mix,
                    ck.QUALITY_FILTER_TOL, label)

    def final_check(self) -> None:
        pass


class FsampSweep:
    """fsamp_sweep at SweepConfig() defaults on the demonstration trial times a seeded gain.

    Its first rate factor is 1, so each operation includes the padding sweep
    at the full rate.
    """

    def __init__(self, tl, seed: int, workdir: Path):
        self.tl = tl
        self.config = tl.SweepConfig()
        mix = _gain_mix(np.random.default_rng(seed))
        self.spec = tl.SynthSpec(amplitudes=mix["amplitudes"], phases=mix["phases"])

    def round(self) -> list[Op]:
        c = self.config
        keys = [(f, d, iv, pad) for f in c.fsamp_factors for d in c.directions
                for iv in ("t1", "t2") for pad in c.pad_fractions]
        return [Op(lambda: self.tl.fsamp_sweep(c, self.spec),
                   lambda rows: ck.check_sweep_rows(
                       [(r.fsamp_factor, r.direction, r.interval, r.pad_fraction) for r in rows],
                       [r.status for r in rows],
                       [(r.correlation, r.dtw_similarity) for r in rows], keys, "fsamp_sweep"))]

    def final_check(self) -> None:
        pass


def _cli_op(tl, argv: list[str], check: Callable[[], None]) -> Op:
    """An in-process `timelock` command; it must exit 0 before its files are checked."""
    def checked(code):
        ck.require(code == 0, f"timelock {' '.join(argv)} exited {code}")
        check()
    return Op(lambda: tl.cli.main(argv), checked)


def _synth_file(tl, path: Path, mix: dict, samples: int, fracs) -> None:
    argv = ["synth", "-o", str(path), "--f-samp", repr(F_SAMP),
            "--duration", repr(samples / F_SAMP),
            "--amplitudes", *map(repr, mix["amplitudes"]),
            "--phases", *map(repr, mix["phases"]),
            "--event-fracs", *map(repr, fracs)]
    code = tl.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"timelock {' '.join(argv)} exited {code}")


class CliFiles:
    """`timelock warp` on 4 s trial files with event sidecars, t1 scaled by 0.75-1.25,
    and `timelock dtw-matrix` on a pair of trial files of 512 + d and 512 - d
    samples, d in 0-16."""

    FILES = 4
    SAMPLES = 8192
    PAIR_SAMPLES = 512

    def __init__(self, tl, seed: int, workdir: Path):
        self.tl = tl
        self.rng = np.random.default_rng(seed)
        self.cases = []  # (input, output, t1 target, bounds, mix)
        for k, scale in enumerate(_strata(self.rng, 0.75, 1.25, self.FILES)):
            mix = _mix(self.rng)
            b = Bounds.quarters(self.SAMPLES, int(self.rng.integers(1536, 2561)))
            src = workdir / f"trial{k}.csv"
            _synth_file(tl, src, mix, self.SAMPLES, b.fracs)
            t1 = round((b.transition - b.onset) * scale)
            self.cases.append((src, workdir / f"warped{k}.csv", t1, b, mix))
        d = int(self.rng.integers(0, self.PAIR_SAMPLES // 32 + 1))
        self.pair = [workdir / "a.csv", workdir / "b.csv"]
        for path, samples in zip(self.pair, (self.PAIR_SAMPLES + d, self.PAIR_SAMPLES - d)):
            _synth_file(tl, path, _mix(self.rng), samples, (0.25, 0.5, 0.75))
        self.prefix = workdir / "dtw"

    def round(self) -> list[Op]:
        ops = []
        for case in self.cases:
            src, out, t1, b, _ = case
            argv = ["warp", "-i", str(src), "-o", str(out), "--t1-target", str(t1),
                    "--t2-target", str(b.offset - b.onset - t1)]
            ops.append(_cli_op(self.tl, argv, lambda c=case: self._check_warp(c)))
        argv = ["dtw-matrix", *map(str, self.pair), "-o", str(self.prefix)]
        ops.append(_cli_op(self.tl, argv, self._check_matrix))
        return ops

    @staticmethod
    def _load(case):
        src, out, *_ = case
        _, inp = ck.read_trial_file(src)
        f_samp, warped = ck.read_trial_file(out)
        ck.require(f_samp == F_SAMP, f"{out.name}: f_samp {f_samp!r}")
        return inp, warped, ck.read_json(out.with_suffix(".report.json"))

    def _check_warp(self, case) -> None:
        _, out, t1, b, mix = case
        inp, warped, report = self._load(case)
        events = ck.read_events_file(out.with_suffix(".events.json"))
        ck.require(tuple(e["index"] for e in report["events"]) == events,
                   f"{out.name}: report events {report['events']} differ from the sidecar")
        _check_warp(inp, warped, events, b, t1,
                    (report["intervals"]["t1"], report["intervals"]["t2"]), mix,
                    ck.DEFAULT_FILTER_TOL, out.name)

    def _check_matrix(self) -> None:
        _, x = ck.read_trial_file(self.pair[0])
        _, y = ck.read_trial_file(self.pair[1])
        acc = ck.read_matrix_file(self.prefix.with_name("dtw.matrix.csv"))
        path = ck.read_path_file(self.prefix.with_name("dtw.path.csv"))
        ck.check_cost_matrix(x, y, acc, path, "dtw-matrix")

    def final_check(self) -> None:
        """The unpruned DP against the t2 DTW distance in one seeded warp report."""
        case = self.cases[int(self.rng.integers(self.FILES))]
        _, out, t1, b, _ = case
        inp, warped, report = self._load(case)
        ck.check_dtw_distance(inp[b.transition:b.offset], warped[b.onset + t1:b.offset],
                              report["intervals"]["t2"]["dtw_distance"], f"{out.name} t2")


WORKLOADS = {
    "batch-align": BatchAlign,
    "long-recording": LongRecording,
    "fsamp-sweep": FsampSweep,
    "cli-files": CliFiles,
}
