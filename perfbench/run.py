"""timelock benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload batch-align --seed 1 --seconds 20 --trace 0

The package is imported from src/ of the checkout this file sits in. After
one untimed warm-up round, with --trace 0 the run times whole rounds of the
workload's operations, each between two runs of a fixed reference kernel, for
--seconds of measured time and prints the end-to-end metrics; with --trace 1
it alternates untraced and traced rounds and prints the per-layer metrics
(see tracer.py). Every operation's output is checked after its timing. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import os

# One thread per BLAS pool; must precede the first NumPy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5  # set-ups per CPU
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def import_timelock():
    """Import timelock from this checkout's src/, and nowhere else."""
    package = SRC / "timelock"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no timelock package at {package}")
    sys.path.insert(0, str(SRC))
    import timelock
    import timelock.cli  # noqa: F401  (workloads call timelock.cli.main)
    if Path(timelock.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: timelock imported from {timelock.__file__}, not {package}")
    return timelock


def fingerprint(tl) -> str:
    import numpy as np
    numba = importlib.util.find_spec("numba") is not None
    return (f"# env: python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {os.cpu_count()}, numba {'importable' if numba else 'absent'}, "
            f"timelock {tl.__version__}")


@contextlib.contextmanager
def on_cpu(k: int):
    """Pin this process (and children it starts) to the k-th usable CPU, round-robin."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})
    try:
        yield
    finally:
        if CPUS:
            os.sched_setaffinity(0, CPUS)


def setup_seconds(args) -> float:
    """Wall time of a fresh interpreter that imports timelock and builds the inputs.

    Set-up runs SETUP_REPEATS times on each CPU in turn; the figure is the
    median on the CPU whose median is lower, since other tenants slow each CPU
    on its own.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    cpus = max(len(CPUS), 1)
    times: dict[int, list[float]] = {}
    for k in range(SETUP_REPEATS * cpus):
        with on_cpu(k):
            start = time.perf_counter()
            # no timeout: Popen.wait with one polls in steps of up to 50 ms
            subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
            times.setdefault(k % cpus, []).append(time.perf_counter() - start)
    return min(statistics.median(t) for t in times.values())


def median_per_op(times: dict[int, list[float]]) -> float:
    """Mean over a round's operations of each one's median over the run's rounds."""
    return statistics.fmean(statistics.median(t) for t in times.values())


class Reference:
    """A fixed kernel, part interpreter loop and part NumPy over arrays larger than
    the CPU caches, timed between operations so that op_ref is in its units.

    Other tenants of a shared machine slow it by up to about 1.8x for seconds to
    minutes, mostly through the memory system: an operation's wall time drifts
    with them from run to run, and so does this kernel's. Its source is fixed
    in the benchmark, so a change to timelock moves op_ref as much as it moves
    the operation's time. It makes PASSES passes, about 45 ms each here, since
    one pass alone is too short to time steadily.
    """

    PASSES = 2
    LOOP = 200_000
    SORTED = 1 << 20  # float64 values sorted per pass (8 MB)

    def __init__(self):
        import numpy as np
        self.np = np
        self.data = np.random.default_rng(0).standard_normal(4 * self.SORTED)  # 32 MB

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(self.PASSES):
            total = 0
            for i in range(self.LOOP):
                total += i * i
            self.np.sort(self.data[:self.SORTED])
            float((self.data * self.data).sum())
        return time.perf_counter() - start


class Run:
    """Times rounds of a workload's operations and checks every output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []  # tracebacks of operations that raised
        self.check_errors: list[str] = []
        self.measured = 0.0  # seconds spent in operations and reference runs

    def round(self, times: dict[int, list[float]], cpu: int, tracer=None,
              reference: Reference | None = None) -> None:
        """Run one round on CPU number cpu (round-robin), appending each completed
        operation's time in seconds under its place in the round.

        With a reference, the kernel also runs at the start of the round and
        after each operation, and the time appended is the operation's over the
        mean of the kernel's times just before and after it. Other tenants slow
        each CPU on its own, so rounds alternate between the CPUs and the kernel
        runs on the operation's CPU.
        """
        with on_cpu(cpu):
            before = self._reference(reference)
            for i, op in enumerate(self.workload.round()):
                self.attempted += 1
                start = time.perf_counter()
                try:
                    result = op.run() if tracer is None else tracer.span("op", op.run)
                except Exception:  # a failed operation is counted, not fatal
                    self.failures.append(traceback.format_exc(limit=3))
                    continue
                finally:
                    elapsed = time.perf_counter() - start
                    self.measured += elapsed
                if reference is not None:
                    after = self._reference(reference)
                    elapsed = 2 * elapsed / (before + after)
                    before = after
                times.setdefault(i, []).append(elapsed)
                self.check(op.check, result)

    def _reference(self, reference: Reference | None) -> float:
        if reference is None:
            return 0.0
        elapsed = reference.seconds()
        self.measured += elapsed
        return elapsed

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except AssertionError as err:
            self.check_errors.append(str(err))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (timed for setup_s)")
    args = parser.parse_args(argv)

    tl = import_timelock()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tr
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](tl, args.seed, workdir)
        if args.setup_only:
            return 0
        print(fingerprint(tl))
        run = Run(workload)
        run.round({}, 0)  # warm-up: caches, lazy set-up, and the program's peak memory
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.measured = 0.0  # --seconds counts timed rounds only
        if args.trace:
            tracer = tr.Tracer()
            plain, traced = {}, {}
            pairs = 0
            while run.measured < args.seconds:
                run.round(plain, pairs)
                tracer.install()
                try:
                    run.round(traced, pairs, tracer)
                finally:
                    tracer.uninstall()
                pairs += 1
            if not traced:
                return report_failure(run)
            values = tracer.per_op_metrics(sum(map(len, traced.values())), {
                "trace.overhead_s": median_per_op(traced) - median_per_op(plain),
                "op.wall_ms": median_per_op(plain) * 1e3,
            })
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in tr.METRICS}
            tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        else:
            reference = Reference()  # after the peak is read: its arrays are not timelock's
            ratios = {}
            rounds = 1
            while run.measured < args.seconds:
                run.round(ratios, rounds, reference=reference)
                rounds += 1
            if not ratios:
                return report_failure(run)
            metrics = {
                "setup_s": {"value": setup_seconds(args), "unit": "s"},
                "op_ref": {"value": median_per_op(ratios), "unit": "ref"},
                "peak_rss_mb": {"value": peak, "unit": "MB"},
            }
        run.check(workload.final_check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in run.failures + [f"check failed: {e}" for e in run.check_errors]:
        print(err, file=sys.stderr)
    print(f"# {args.workload}: {run.attempted} operations, {len(run.failures)} failed, "
          f"{run.measured:.3f} s measured")
    print(json.dumps({"correct": not run.check_errors, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


def report_failure(run: Run) -> int:
    """No operation completed, so there is nothing to time: say why and print no result."""
    for err in run.failures:
        print(err, file=sys.stderr)
    print(f"error: all {run.attempted} operations failed", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
