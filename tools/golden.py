"""Golden outputs of the timelock CLI, as hashes that two checkouts can diff.

Usage: python tools/golden.py OUTDIR [--compare OTHER_OUTDIR]

Runs a fixed list of CLI commands in process, with OUTDIR as the working
directory: synth, warp, sweep-padding, sweep-fsamp and dtw-matrix on their
success paths (one of them on a CRLF copy of a synthesized trial), then
exit-2 and exit-3 cases. A 24 s trial and its warp have intervals of more
than 10 000 samples, past the size at which a BLAS dot product splits its
sum over threads, so listings made with OPENBLAS_NUM_THREADS=1 and =2 can
be diffed too. It prints one line per command (exit code, SHA-256 of its
stderr, arguments), followed by one line per warning the command raised
(`warning  Category: message`, without the source path and line, which
differ between checkouts), and then one line per output file
(`sha256  name`). The package is imported from the checkout that holds
this script, so a refactor that must keep every byte is checked by copying
the script into a checkout of the parent commit, running it in both, and
diffing the two listings. With --compare, it then prints one line per
output file whose bytes differ from the file of the same name in
OTHER_OUTDIR, an earlier run's OUTDIR: `differs  D  name`, with D the
largest absolute difference between the two files' numeric fields, or a
note where the fields do not pair up, and `differs  not in DIR  name` for
a file that only one of the two directories holds. It exits 1 when it
prints a `differs` line, so a byte-identity check is one exit status.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from timelock.cli import main  # noqa: E402

SWEEP_CONFIG = ("pad_fractions = 0.002, 0.05\n"
                "directions = expand_t1_contract_t2\n"
                "warp_magnitude = 0.15\n")
BAD_CONFIG = "pad_fractions = 0.1\nspeed = 3\n"
BAD_NUMBER_CONFIG = "pad_fractions = 0.1, fast\n"
BAD_EVENTS = '{"events": [{"index": 2048}]}\n'
BROKEN_EVENTS = '{"events": [\n'
NO_FSAMP = "0.5\n1.0\n"
OVER_BUDGET = "# f_samp: 100.0\n# samples: 16777217\n0.5\n"
NOT_UTF8 = b"\xff\xfe"

SYNTH_COMMANDS = [
    "synth -o demo.csv",
    "synth -o short.csv --duration 1",
    "synth -o small.csv --duration 0.05",
    # 49 152 samples: intervals of 12 288
    "synth -o long.csv --duration 24",
    "synth -o custom.csv --f-samp 1000 --duration 0.09 --f1 3 --f2 11 "
    "--amplitudes 1 0.5 --phases 0.3 1.1 --event-fracs 0.2 0.45 0.8",
    # samples near 2e160, whose DTW costs pass the float range
    "synth -o big.csv --amplitudes 1e160 1e160",
]

# run once SYNTH_COMMANDS have written small.csv and its CRLF copy
COMMANDS = [
    "warp -i short.csv -o w1.csv --t1-target 410 --t2-target 614",
    "warp -i demo.csv -o w2.csv --t1-target 2458 --t2-target 2100 --no-preserve",
    "warp -i demo.csv -o w3.csv --t1-target 1638 --t2-target 2458 --zero-pad",
    "warp -i short.csv -o w4.csv --t1-target 600 --t2-target 424 --window hann --no-anti-alias",
    "warp -i short.csv -o w5.csv --t1-target 300 --t2-target 800 --window blackman --no-preserve",
    "warp -i short.csv -o w6.csv --t1-target 410 --t2-target 614 --pad-fraction 0",
    "warp -i short.csv -o w7.csv --t1-target 1 --t2-target 1023",
    "warp -i demo.csv -o w8.csv --onset 2000 --transition 4100 --offset 6000 "
    "--t1-target 1800 --t2-target 2200 --report w8.json",
    # pad 20 against a half width of 32: taps wrap into the opposite pad
    "warp -i short.csv -o w9.csv --t1-target 410 --t2-target 614 --pad-fraction 0.01",
    "warp -i long.csv -o w10.csv --t1-target 10240 --t2-target 14336",
    "warp -i big.csv -o w11.csv --t1-target 1638 --t2-target 2458",
    # the high-accuracy filter, t1 expanded and then contracted
    "warp -i demo.csv -o w12.csv --t1-target 2560 --t2-target 1536 --half-width 64 --beta 14",
    "warp -i demo.csv -o w13.csv --t1-target 1536 --t2-target 2560 --half-width 64 --beta 14",
    # a Kaiser beta below 2, whose taper table comes from the power series
    "warp -i short.csv -o w14.csv --t1-target 410 --t2-target 614 --beta 0.5",
    "sweep-padding -o pad1.csv",
    "sweep-padding -o pad2.csv --duration 0.5 --pad-fractions 0.001 0.1",
    "sweep-padding -o pad3.csv --config sweep.cfg --warp-magnitude 0.3 --window hann",
    # pads 10, 16, 16, 20 and 512 against a half width of 16
    "sweep-padding -o pad4.csv --half-width 16 --pad-fractions 0.005 0.0078 0.008 0.01 0.25",
    # 51-sample intervals against a half width of 64: every output reads the pad
    "sweep-padding -o pad5.csv --duration 0.1 --half-width 64 "
    "--pad-fractions 0 0.005 0.01 0.03 0.1",
    "sweep-fsamp -o fs1.csv",
    "sweep-fsamp -o fs2.csv --duration 0.5 --fsamp-factors 1.0 0.5 --pad-fractions 0.1",
    "sweep-fsamp -o fs3.csv --config sweep.cfg --duration 1",
    "sweep-fsamp -o fs4.csv --duration 0.02 --fsamp-factors 1 0.5 0.03125 --pad-fractions 0.001",
    # pads on both sides of the half width of 32
    "sweep-fsamp -o fs5.csv --duration 0.5 --fsamp-factors 1 0.25 "
    "--pad-fractions 0 0.004 0.0155 0.016 0.5",
    "dtw-matrix small.csv small.csv -o d1",
    "dtw-matrix small.csv custom.csv -o d2",
    "dtw-matrix custom.csv small.csv -o d3",
    # the same bytes as d1, read from CRLF line ends
    "dtw-matrix small_crlf.csv small_crlf.csv -o d4",
    # exit 2: input and parse errors
    "warp -i missing.csv -o x.csv --t1-target 1 --t2-target 1",
    "warp -i short.csv -o x.csv --t1-target 410 --t2-target 614 --half-width 2",
    "warp -i short.csv -o x.csv --t1-target 410 --t2-target 614 --onset 5",
    "warp -i demo.csv -o x.csv --t1-target 2048 --t2-target 2048 --events bad.events.json",
    "warp -i demo.csv -o x.csv --t1-target 2048 --t2-target 2048 --events broken.events.json",
    "sweep-padding -o x.csv --config bad.cfg",
    "sweep-padding -o x.csv --config badnum.cfg",
    "sweep-fsamp -o x.csv --fsamp-factors 0.5 1.0",
    "dtw-matrix missing.csv small.csv -o x",
    "dtw-matrix bin.csv bin.csv -o x",
    "dtw-matrix nofs.csv small.csv -o x",
    # exit 3: domain and pipeline errors
    "synth -o x.csv --f1 600 --f2 700 --f-samp 1024",
    "warp -i short.csv -o x.csv --t1-target 400 --t2-target 400",
    "warp -i short.csv -o x.csv --t1-target 410 --t2-target 614 --pad-fraction 1e12",
    "dtw-matrix demo.csv demo.csv -o x",
    "synth -o x.csv --duration 1e12",
    "warp -i short.csv -o x.csv --t1-target 100 --t2-target 100000000 --no-preserve",
    "dtw-matrix huge.csv small.csv -o x",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _execute(commands: list[str]) -> list[str]:
    lines = []
    for command in commands:
        err = io.StringIO()
        # every warning is recorded, not only the first from each source line
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(command.split())
        lines.append(f"exit {code}  stderr {sha256(err.getvalue().encode())}  {command}")
        lines += (f"warning  {w.category.__name__}: {w.message}" for w in caught)
    return lines


def run(outdir: Path) -> list[str]:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.cfg").write_text(SWEEP_CONFIG, encoding="utf-8")
    (outdir / "bad.cfg").write_text(BAD_CONFIG, encoding="utf-8")
    (outdir / "badnum.cfg").write_text(BAD_NUMBER_CONFIG, encoding="utf-8")
    (outdir / "bad.events.json").write_text(BAD_EVENTS, encoding="utf-8")
    (outdir / "broken.events.json").write_text(BROKEN_EVENTS, encoding="utf-8")
    (outdir / "nofs.csv").write_text(NO_FSAMP, encoding="utf-8")
    (outdir / "huge.csv").write_text(OVER_BUDGET, encoding="utf-8")
    (outdir / "bin.csv").write_bytes(NOT_UTF8)
    lines = []
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        lines += _execute(SYNTH_COMMANDS)
        small = Path("small.csv").read_bytes()
        Path("small_crlf.csv").write_bytes(small.replace(b"\n", b"\r\n"))
        lines += _execute(COMMANDS)
    finally:
        os.chdir(cwd)
    for path in sorted(outdir.iterdir()):
        lines.append(f"{sha256(path.read_bytes())}  {path.name}")
    return lines


def largest_difference(path: Path, other: Path) -> str:
    """The largest absolute difference between the numeric fields of two
    files, split at whitespace and at the CSV and JSON punctuation."""
    split = re.compile(r'[\s,:\[\]{}"]+')
    fields = split.split(path.read_text(encoding="utf-8", errors="replace"))
    others = split.split(other.read_text(encoding="utf-8", errors="replace"))
    if len(fields) != len(others):
        return f"{len(fields)} fields against {len(others)}"
    worst = 0.0
    for a, b in zip(fields, others):
        if a == b:
            continue
        try:
            worst = max(worst, abs(float(a) - float(b)))
        except ValueError:
            return f"field {a!r} against {b!r}"
    return repr(worst)


def compare(outdir: Path, other: Path) -> list[str]:
    lines = []
    for name in sorted({path.name for path in (*outdir.iterdir(), *other.iterdir())}):
        path, twin = outdir / name, other / name
        if not twin.exists():
            lines.append(f"differs  not in {other}  {name}")
        elif not path.exists():
            lines.append(f"differs  not in {outdir}  {name}")
        elif twin.read_bytes() != path.read_bytes():
            lines.append(f"differs  {largest_difference(path, twin)}  {name}")
    return lines


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) not in (1, 3) or args[1:2] not in ([], ["--compare"]):
        sys.exit(__doc__.strip().splitlines()[2])
    lines = run(Path(args[0]))
    differs = compare(Path(args[0]), Path(args[2])) if args[1:] else []
    print("\n".join(lines + differs))
    sys.exit(1 if differs else 0)
