"""Command-line front end: synth, warp, sweep-padding, sweep-fsamp, dtw-matrix.

Exit codes: 0 on success, 2 on input or parse errors, 3 on domain or pipeline
errors (every other TimelockError, ConfigError included); any other exception
is a defect and propagates. All outputs are byte-identical for identical flags
on one machine and NumPy build; they do not depend on the number of BLAS
threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import trialio
from .errors import ConfigError, ParseError, TimelockError
from .metrics import dtw
from .model import EventMarker, OFFSET, ONSET, TRANSITION, Trial, partition_from_events
from .pipeline import plan_warp, warp_trial
from .resample import SincConfig, WINDOWS
from .sweeps import (DIRECTIONS, FsampSweepRow, PaddingSweepRow, SweepConfig,
                     fsamp_sweep, padding_sweep)
from .synth import SynthSpec, generate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except TimelockError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN


def entrypoint() -> None:
    raise SystemExit(main())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timelock",
        description="Time-lock trials by piecewise windowed-sinc resampling of "
                    "event-bounded intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write the deterministic demonstration trial")
    _add_synth_flags(p)
    p.add_argument("-o", "--output", required=True,
                   help="trial CSV to write (events go to <stem>.events.json)")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("warp", help="warp one trial to target interval lengths")
    p.add_argument("-i", "--input", required=True, help="trial CSV to warp")
    p.add_argument("-o", "--output", required=True, help="warped trial CSV to write")
    p.add_argument("--report", help="report JSON path (default <output stem>.report.json)")
    p.add_argument("--events", help="events JSON (default: sidecar of the input)")
    p.add_argument("--onset", type=int, help="onset sample index (overrides --events)")
    p.add_argument("--transition", type=int, help="transition sample index")
    p.add_argument("--offset", type=int, help="offset sample index")
    p.add_argument("--t1-target", type=int, required=True, help="target length of t1")
    p.add_argument("--t2-target", type=int, required=True, help="target length of t2")
    p.add_argument("--pad-fraction", type=float, default=0.10,
                   help="pad each interval side by round(frac * f_samp) samples")
    p.add_argument("--no-preserve", action="store_true",
                   help="allow targets that change the total trial length")
    p.add_argument("--zero-pad", action="store_true",
                   help="pad with zeros instead of neighbouring samples")
    _add_sinc_flags(p)
    p.set_defaults(handler=cmd_warp)

    p = sub.add_parser("sweep-padding",
                       help="sweep pad_fraction on the demonstration trial")
    _add_sweep_flags(p)
    p.set_defaults(handler=cmd_sweep, sweep=padding_sweep, row_type=PaddingSweepRow)

    p = sub.add_parser("sweep-fsamp",
                       help="rerun the padding sweep across sampling-rate factors")
    _add_sweep_flags(p)
    p.add_argument("--fsamp-factors", type=float, nargs="+",
                   help="rate factors in (0, 1], sorted descending")
    p.set_defaults(handler=cmd_sweep, sweep=fsamp_sweep, row_type=FsampSweepRow)

    p = sub.add_parser("dtw-matrix",
                       help="write the DTW accumulated-cost matrix and warping path")
    p.add_argument("input_a", help="first trial CSV")
    p.add_argument("input_b", help="second trial CSV (length may differ)")
    p.add_argument("-o", "--output", required=True,
                   help="output prefix; writes <prefix>.matrix.csv and <prefix>.path.csv")
    p.set_defaults(handler=cmd_dtw_matrix)

    return parser


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    d = SynthSpec()
    p.add_argument("--f-samp", type=float, default=d.f_samp, help="sampling rate in Hz")
    p.add_argument("--f1", type=float, default=d.f1, help="first component frequency in Hz")
    p.add_argument("--f2", type=float, default=d.f2, help="second component frequency in Hz")
    p.add_argument("--duration", type=float, default=d.duration_s, dest="duration_s",
                   metavar="DURATION", help="trial length in seconds")
    p.add_argument("--event-fracs", type=float, nargs=3, default=list(d.event_fracs),
                   metavar=("ONSET", "TRANSITION", "OFFSET"),
                   help="event positions as fractions of the trial")
    p.add_argument("--amplitudes", type=float, nargs=2, default=list(d.amplitudes))
    p.add_argument("--phases", type=float, nargs=2, default=list(d.phases))


def _add_sinc_flags(p: argparse.ArgumentParser) -> None:
    d = SincConfig()
    p.add_argument("--half-width", type=int, default=d.half_width,
                   help="filter taps per side, in input samples")
    p.add_argument("--window", choices=WINDOWS, default=d.window)
    p.add_argument("--beta", type=float, default=d.beta, help="Kaiser shape parameter")
    p.add_argument("--no-anti-alias", action="store_false", dest="anti_alias",
                   help="keep the full cutoff when contracting")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    d, synth = SweepConfig(), SynthSpec()
    p.add_argument("-o", "--output", required=True, help="table CSV to write")
    p.add_argument("--config", help="key = value file mirroring the sweep config")
    p.add_argument("--pad-fractions", type=float, nargs="+",
                   help="pad fractions of f_samp to sweep")
    p.add_argument("--directions", nargs="+", choices=DIRECTIONS,
                   help="warp directions to sweep")
    p.add_argument("--warp-magnitude", type=float,
                   help=f"fractional change applied to t1 (default {d.warp_magnitude:g})")
    p.add_argument("--f-samp", type=float,
                   help=f"base sampling rate (default {synth.f_samp:g})")
    p.add_argument("--duration", type=float, dest="duration_s", metavar="DURATION",
                   help=f"trial length in seconds (default {synth.duration_s:g})")
    _add_sinc_flags(p)


def _fields_from_args(cls, args, **values):
    """cls(**values), overridden by every parsed flag named after one of its
    fields whose value is not None; lists become tuples."""
    for field in dataclasses.fields(cls):
        value = getattr(args, field.name, None)
        if value is not None:
            values[field.name] = tuple(value) if isinstance(value, list) else value
    return cls(**values)


def _sinc_from_args(args) -> SincConfig:
    try:
        return _fields_from_args(SincConfig, args)
    except ConfigError as err:
        raise ParseError(str(err)) from None


def _numbers(text: str, path: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"{path}: expected a list of numbers, got {text!r}") from None


def _magnitude(text: str, path: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}: bad warp_magnitude {text!r}") from None


# the keys a sweep config file may set, each with its value parser, in parse order
_CONFIG_PARSERS = {
    "pad_fractions": _numbers,
    "fsamp_factors": _numbers,
    "directions": lambda text, path: tuple(text.replace(",", " ").split()),
    "warp_magnitude": _magnitude,
}


def _read_config_file(path: str) -> dict:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(trialio.read_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = map(str.strip, line.partition("="))
        if not sep:
            raise ParseError(f"{path}: line {lineno}: expected 'key = value', got {line!r}")
        if key not in _CONFIG_PARSERS:
            raise ParseError(f"{path}: line {lineno}: unknown key {key!r}")
        entries[key] = value
    return {key: parse(entries[key], path)
            for key, parse in _CONFIG_PARSERS.items() if key in entries}


def _sweep_config_from_args(args) -> SweepConfig:
    values = _read_config_file(args.config) if args.config else {}
    try:
        return _fields_from_args(SweepConfig, args, **values)
    except ConfigError as err:
        raise ParseError(str(err)) from None


def _sweep_header(sweep: SweepConfig, spec: SynthSpec) -> dict[str, str]:
    return {
        "warp_magnitude": trialio.fmt(sweep.warp_magnitude),
        "pad_fractions": ",".join(trialio.fmt(p) for p in sweep.pad_fractions),
        "fsamp_factors": ",".join(trialio.fmt(f) for f in sweep.fsamp_factors),
        "directions": ",".join(sweep.directions),
        "f_samp": trialio.fmt(spec.f_samp),
        "duration_s": trialio.fmt(spec.duration_s),
    }


def cmd_synth(args) -> int:
    trial = generate(_fields_from_args(SynthSpec, args))
    trialio.write_trial_csv(args.output, trial)
    trialio.write_events_json(trialio.events_sidecar_path(args.output), trial.events)
    return EXIT_OK


def _resolve_events(args, input_path: str) -> tuple[EventMarker, ...]:
    inline = (args.onset, args.transition, args.offset)
    if any(v is not None for v in inline):
        if any(v is None for v in inline):
            raise ParseError("--onset, --transition, and --offset must be given together")
        return (EventMarker(args.onset, ONSET),
                EventMarker(args.transition, TRANSITION),
                EventMarker(args.offset, OFFSET))
    events_path = Path(args.events) if args.events else trialio.events_sidecar_path(input_path)
    if not events_path.exists():
        raise ParseError(
            f"no events found: give --onset/--transition/--offset, --events, "
            f"or provide {events_path}"
        )
    return trialio.read_events_json(events_path)


def cmd_warp(args) -> int:
    bare = trialio.read_trial_csv(args.input)
    trial = Trial(bare.samples, bare.f_samp, _resolve_events(args, args.input))
    part = partition_from_events(trial)
    spec = plan_warp(part, args.t1_target, args.t2_target, args.pad_fraction,
                     trial.f_samp, preserve_length=not args.no_preserve)
    pad_mode = "zero" if args.zero_pad else "neighbor"
    report = warp_trial(trial, part, spec, _sinc_from_args(args), pad_mode)

    trialio.write_trial_csv(args.output, report.warped)
    trialio.write_events_json(trialio.events_sidecar_path(args.output),
                              report.warped.events)
    report_path = args.report or Path(args.output).with_suffix(".report.json")
    context = {
        "input": str(args.input),
        "t1_target_len": spec.t1_target_len,
        "t2_target_len": spec.t2_target_len,
        "pad_fraction": args.pad_fraction,
        "pad_left": spec.pad,
        "pad_right": spec.pad,
        "pad_mode": pad_mode,
        "preserve_length": spec.preserve_length,
        "ratios": {"t1": report.t1.ratio, "t2": report.t2.ratio},
    }
    trialio.write_warp_report_json(report_path, report, context)
    return EXIT_OK


def cmd_sweep(args) -> int:
    sweep = _sweep_config_from_args(args)
    spec = _fields_from_args(SynthSpec, args)
    rows = args.sweep(sweep, spec, _sinc_from_args(args))
    trialio.write_sweep_table(args.output, args.row_type, rows, _sweep_header(sweep, spec))
    return EXIT_OK


def cmd_dtw_matrix(args) -> int:
    a = trialio.read_trial_csv(args.input_a)
    b = trialio.read_trial_csv(args.input_b)
    result = dtw(a.samples, b.samples)
    prefix = Path(args.output)
    trialio.write_dtw_matrix_csv(prefix.parent / (prefix.name + ".matrix.csv"), result)
    trialio.write_dtw_path_csv(prefix.parent / (prefix.name + ".path.csv"), result)
    return EXIT_OK
