"""Mutation check of timelock's tests.

Usage: python tools/mutate.py [NAME ...]

MUTANTS is a table of small deliberate faults: in metrics._accumulate and
its helpers, in the resampler's one kernel path at unit cutoff and its
evaluation of several ranges and pads at once, in the sweeps' grouping and keying of their cells, in the
statistics that pairs sharing an original share, and
one deletion of each guard, clamp or check in src/timelock that the code
keeps and whose deletion no older entry covers. Each entry names a file,
one or more edits (an exact old text, which must occur exactly once, and
its new text) and the pytest arguments that should catch it. For each mutant, all of them or those named on the
command line, the checkout's src/, tests/ and pyproject.toml are copied
into a temporary directory, the edits are applied to the copy and pytest
runs the selection there; the checkout itself is never written. One line
per mutant says "killed", with the number of failed and erroring tests,
or "survived".

An equivalent mutant changes no result, so no test can kill it. Its entry
records why it is exact, and its survival is expected. The exit status is
1 when a mutant that is not equivalent survives, when one recorded as
equivalent is killed, or when an old text does not occur exactly once;
otherwise 0. Each mutant runs its selection once, so a full run takes
minutes and is not part of the test suite.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = "src/timelock/metrics.py"
DP_TESTS = ("tests/test_metrics.py",)
RESAMPLE = "src/timelock/resample.py"
RESAMPLE_TESTS = ("tests/test_resample.py", "tests/test_sweeps.py")
MODEL = "src/timelock/model.py"
SYNTH = "src/timelock/synth.py"
PIPELINE = "src/timelock/pipeline.py"
SWEEPS = "src/timelock/sweeps.py"
PIPELINE_TESTS = ("tests/test_pipeline.py",)
API_TESTS = ("tests/test_api.py",)
ALL_TESTS = ("tests",)
TIMEOUT_S = 900
# A mutant can make a loop run away and allocate without end; each run's
# address space is capped so that it fails with MemoryError instead of
# taking the machine's memory.
MEMORY_CAP = 1 << 30


@dataclass(frozen=True)
class Mutant:
    name: str
    edits: tuple[tuple[str, str], ...]  # (old text, new text), applied in order
    file: str = METRICS
    select: tuple[str, ...] = DP_TESTS
    equivalent: str = ""  # why the mutant changes no result; empty if a test must kill it


MUTANTS = [
    # faults recorded for the one-table cost block, adapted to this code
    Mutant("corner read from the row before",
           (("ends.append((p, last + 2 - k,", "ends.append((p, last + 1 - k,"),)),
    Mutant("carried rows taken one row early",
           (("carried = table[kb:].copy()", "carried = table[kb - 1:kb + 1].copy()"),)),
    Mutant("diagonal predecessor read from the row before",
           (("minimum(p2, p1, out=span)", "minimum(p1, p1, out=span)"),)),
    Mutant("matrix written from the row before",
           (("table[d + 2 - k, a + 1 - row0", "table[d + 1 - k, a + 1 - row0"),)),
    Mutant("separator x finite (0 in place of inf)",
           (("sep = np.full(1, np.inf)", "sep = np.full(1, 0.0)"),)),
    # faults recorded for the two per-block strips
    Mutant("y strip owners shifted by +1",
           (("j = c + a - k - kb\n", "j = c + a - k - kb + 1\n"),
            ("strip = np.zeros(s + kb)", "strip = np.zeros(s + kb + 1)"),
            ("out=strip[1:s + 1]", "out=strip[2:s + 2]"))),
    Mutant("y strip owners shifted by -1",
           (("margin = _COST_BLOCK + 1", "margin = _COST_BLOCK + 2"),
            ("j = c + a - k - kb\n", "j = c + a - k - kb - 1\n"),
            ("out=strip[1:s + 1]", "out=strip[:s]")),
           equivalent="each segment then owns f - r from its separator slot + 1 - kb; "
                      "the cells that read a neighbour's y instead lie at rows above "
                      "top + r + 1, where every path crosses the carried rows above top, "
                      "all over the bound, so no kept value or corner changes"),
    Mutant("y view offset at kb samples",
           (("strip, (kb - 1) * item, strides)", "strip, kb * item, strides)"),)),
    Mutant("y view offset at kb - 2 samples",
           (("strip, (kb - 1) * item, strides)", "strip, (kb - 2) * item, strides)"),)),
    Mutant("hi capped at n - 1",
           (("width = [t + kb + 2 - a for a, t in zip(lo, top)]",
             "width = [min(t + kb, e[5]) + 2 - a for a, t, e in zip(lo, top, stack)]"),)),
    # faults of one entry per problem
    Mutant("problem dropped at its last diagonal (alive test > k)",
           (("alive = [e[4] >= k", "alive = [e[4] > k"),)),
    Mutant("carried copy one row short",
           (("keep = t + 1 - a", "keep = t - a"),)),
    Mutant("carried copy one row long",
           (("keep = t + 1 - a", "keep = t + 2 - a"),)),
    Mutant("origin one slot early",
           (("origin = [s + 1 - a for", "origin = [s - a for"),)),
    Mutant("straight-path bound reading the longer sequence at the shorter's index",
           (("d = short[rows] - long\n", "d = short[rows] - long[rows]\n"),)),
    # faults of the edge outputs of a narrower pad, found from each chunk's floors
    Mutant("left edge one output short",
           (("np.searchsorted(base, h - b)", "np.searchsorted(base, h - b - 1)"),),
           RESAMPLE, RESAMPLE_TESTS),
    Mutant("right edge one output short",
           (("np.searchsorted(base, n_in - h + b)",
             "np.searchsorted(base, n_in - h + b, 'right')"),),
           RESAMPLE, RESAMPLE_TESTS),
    # the extra output reads the same taps at either pad, so only the count
    # of evaluated outputs tells
    Mutant("left edge one output wide",
           (("np.searchsorted(base, h - b)", "np.searchsorted(base, h - b, 'right')"),),
           RESAMPLE, RESAMPLE_TESTS),
    Mutant("narrower row reading the widest row's taps",
           (("(rows[i, j], first, stop, chunk[i, j])", "(rows[i, 0], first, stop, chunk[i, j])"),),
           RESAMPLE, RESAMPLE_TESTS),
    Mutant("a narrower row's middle not copied from the widest row",
           (("        for (j, _, left), (_, right, _) in zip(spans[1::2], spans[2::2]):\n"
             "            chunk[:, j, left:right] = chunk[:, 0, left:right]\n", ""),),
           RESAMPLE, RESAMPLE_TESTS),
    # faults of one kernel row per position, applied to every range and pad
    Mutant("kernel row applied to another range's taps",
           (("(rows[i, j], first, stop, chunk[i, j])",
             "(rows[(i + 1) % len(starts), j], first, stop, chunk[i, j])"),),
           RESAMPLE, RESAMPLE_TESTS),
    Mutant("a read writing into another range's row",
           (("first, stop, chunk[i, j])", "first, stop, chunk[(i + 1) % len(starts), j])"),),
           RESAMPLE, RESAMPLE_TESTS),
    # the middle outputs read the same taps at either pad, so only the
    # layout of the reads tells
    Mutant("narrower row applied outside its edge positions",
           (("(j, 0, min(int(np.searchsorted(base, h - b)), right))", "(j, 0, right)"),),
           RESAMPLE, RESAMPLE_TESTS),
    # faults of the one kernel path at unit cutoff
    Mutant("second numerator term applied at unit cutoff",
           (("if cutoff != 1.0:", "if True:"),), RESAMPLE, RESAMPLE_TESTS),
    Mutant("integral positions not copied at unit cutoff",
           (("integral = (frac == 0.0) & (cutoff == 1.0)", "integral = np.zeros(len(frac), bool)"),),
           RESAMPLE, RESAMPLE_TESTS),
    Mutant("resampling grouped by interval, not by interval length",
           (("groups.setdefault((stop - start, target),", "groups.setdefault((start, target),"),),
           SWEEPS, RESAMPLE_TESTS),
    Mutant("a group's error recorded only on the directions it makes t1 for",
           (("error = next((m for m in made if isinstance(m, str)), None)",
             "error = made[0] if isinstance(made[0], str) else None"),),
           SWEEPS, RESAMPLE_TESTS),
    Mutant("reads taken in blocks that hold none of their positions",
           (("            if lo < hi:  # the read has positions in this block\n"
             "                at = todo[lo:hi]\n"
             "                values = rows[base[at]]\n"
             "                values *= kernel[lo - s:hi - s]\n"
             "                out[at] = values.sum(axis=1) / total[lo - s:hi - s]\n",
             "            at = todo[lo:hi]\n"
             "            values = rows[base[at]]\n"
             "            values *= kernel[lo - s:hi - s]\n"
             "            out[at] = values.sum(axis=1) / total[lo - s:hi - s]\n"),),
           RESAMPLE, RESAMPLE_TESTS),
    # the warps are the same either way, so only the number of pairs scored tells
    Mutant("sweep cells keyed by pad fraction instead of built pad",
           (("for (direction, _), b in built.items():",
             "for (direction, pad), b in built.items():"),
            ("(direction, b) in cells", "(direction, pad) in cells"),
            ("cells[direction, b] = error or", "cells[direction, pad] = error or"),
            ("else cells[direction, b]\n", "else cells[direction, pad]\n")),
           SWEEPS, RESAMPLE_TESTS),
    Mutant("reach wrapping with a pad one sample short",
           (("b = np.array(bs)[:, None]\n", "b = np.array(bs)[:, None] - 1\n"),),
           RESAMPLE, RESAMPLE_TESTS),
    # one deletion per guard: each is killed by the test that pins it
    Mutant("taper table without its edge zero",
           (("    table[x == 1.0] = 0.0\n", ""),), RESAMPLE, RESAMPLE_TESTS),
    Mutant("pearson without its ndim clause",
           (("if xa.ndim != 1 or ya.ndim != 1 or xa.shape", "if xa.shape"),)),
    Mutant("pearson without its clamp",
           (("return max(-1.0, min(1.0, r))", "return r"),)),
    Mutant("straight-path bound of a one-sample pair dividing by 0",
           (("// max(len(long) - 1, 1)", "// (len(long) - 1)"),)),
    Mutant("score of a constant x as 0 whatever the distance",
           (("    if worst == 0.0:\n"
             "        normalized = 0.0 if distance == 0.0 else 1.0\n"
             "    else:\n"
             "        normalized = min(1.0, distance / worst)\n",
             "    normalized = min(1.0, distance / worst) if worst else 0.0\n"),)),
    Mutant("unscaled pairs up to a peak of 2**510",
           (("< 2.0 ** 496:", "< 2.0 ** 510:"),)),
    Mutant("resample without its own length check",
           (("if seg.size < 2:", "if False:"),), RESAMPLE, RESAMPLE_TESTS),
    Mutant("anti_alias taken whatever its type",
           (("if not isinstance(self.anti_alias, (bool, np.bool_)):", "if False:"),),
           RESAMPLE, RESAMPLE_TESTS),
    Mutant("trial events kept as given, not as a tuple",
           (("\"events\", tuple(self.events))", "\"events\", self.events)"),),
           MODEL, ("tests/test_model.py",)),
    Mutant("event fractions measured before their type is checked",
           (("_holds(self.event_fracs, 3)", "len(self.event_fracs) == 3"),), SYNTH, API_TESTS),
    Mutant("amplitudes and phases measured before their type is checked",
           (("_holds(v, 2)", "len(v) == 2"),), SYNTH, API_TESTS),
    Mutant("a 0-d array measured as having a length",
           (("    try:\n        return len(value) == n\n    except TypeError:\n        return False\n",
             "    return hasattr(value, \"__len__\") and len(value) == n\n"),), SYNTH, API_TESTS),
    Mutant("warp targets planned whatever their type",
           (("if not (is_integer(t1_target) and is_integer(t2_target)):", "if False:"),),
           PIPELINE, API_TESTS),
    Mutant("sweep grids kept as given, not as tuples",
           (("object.__setattr__(self, name, tuple(value))",
             "object.__setattr__(self, name, value)"),), SWEEPS, API_TESTS),
    Mutant("window compared with the names whatever its type",
           (("if not isinstance(self.window, str) or self.window", "if self.window"),),
           RESAMPLE, API_TESTS),
    Mutant("pad_mode compared with the modes whatever its type",
           (("if not isinstance(pad_mode, str) or pad_mode", "if pad_mode"),), RESAMPLE, API_TESTS),
    Mutant("trial events that are not a sequence left to a bare TypeError",
           (("        except TypeError:\n            raise BadEventsError(",
             "        except ValueError:\n            raise BadEventsError("),), MODEL, API_TESTS),
    Mutant("pads that are not a sequence taken as one",
           (("ranges, pads = list(index_ranges), list(pads)", "ranges = list(index_ranges)"),),
           RESAMPLE, RESAMPLE_TESTS),
    # faults of the statistics each original interval shares across its pairs
    Mutant("worst-case corner shared across scale exponents",
           (("key = id(x), e  #", "key = id(x)  #"),), select=PIPELINE_TESTS),
    Mutant("nearest-sample reference shared across warped lengths",
           (("key = id(original), len(warped)", "key = id(original)"),), PIPELINE,
           PIPELINE_TESTS),
    # guards whose deletion changes no result, run against the whole suite
    Mutant("last block not stopped at the stack's last diagonal",
           (("min(_COST_BLOCK, max(e[4] for e in stack) + 1 - k, _BLOCK_CELLS // slots)",
             "min(_COST_BLOCK, _BLOCK_CELLS // slots)"),),
           select=ALL_TESTS,
           equivalent="the term only stops the last block at the stack's last diagonal; "
                      "the diagonals a deeper block adds lie past every problem's end, "
                      "where no corner is read and no matrix cell is written, and no "
                      "block is deeper than _COST_BLOCK either way"),
    Mutant("trial event index without its lower end",
           (("if not 0 <= e.index < len(arr):", "if not e.index < len(arr):"),),
           MODEL, ALL_TESTS,
           equivalent="every event is an EventMarker, checked just before, and "
                      "EventMarker refuses a negative index on construction"),
]


def mutated_copy(mutant: Mutant, dest: Path) -> None:
    """Copy the checkout's sources and tests into dest and apply the edits
    there; raises ValueError when an old text does not occur exactly once."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    path = dest / mutant.file
    text = path.read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise ValueError(f"{old!r} occurs {text.count(old)} times in {mutant.file}")
        text = text.replace(old, new)
    path.write_text(text)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(mutant: Mutant) -> tuple[bool, str]:
    """Whether the selection failed on the mutant, and what it reported;
    raises ValueError when the mutant cannot be made or pytest selects no
    test."""
    with tempfile.TemporaryDirectory(prefix="timelock-mutant-") as tmp:
        dest = Path(tmp)
        mutated_copy(mutant, dest)
        env = dict(os.environ, PYTHONPATH=str(dest / "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.select]
        try:
            done = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return False, "all passed"
    if done.returncode in (4, 5):  # a usage error, or no test selected
        raise ValueError(f"pytest exited {done.returncode}: {done.stdout}{done.stderr}")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (failed|error)", done.stdout)}
    if not counts:  # a crash or a signal ended the run
        return True, f"pytest exited {done.returncode}"
    return True, f"{counts.get('failed', 0)} failed, {counts.get('error', 0)} errors"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    status = 0
    for mutant in chosen:
        try:
            killed, detail = run(mutant)
        except ValueError as err:
            print(f"error     {mutant.name}: {err}")
            status = 1
            continue
        verdict = "killed" if killed else "survived"
        if mutant.equivalent:
            verdict += " (equivalent)"
            detail += f"; exact because {mutant.equivalent}"
        print(f"{verdict:<23} {mutant.name}: {detail}", flush=True)
        if killed == bool(mutant.equivalent):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
