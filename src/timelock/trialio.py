"""Reading and writing trial files, event sidecars, reports, and sweep tables.

Trial files are UTF-8 CSV: `#`-prefixed metadata lines (`# f_samp: 2048.0`)
followed by one sample value per row. Events live in a JSON sidecar
(`<stem>.events.json`). Every float is written with repr(), the shortest
decimal string that round-trips, so identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ParseError
from .metrics import DtwResult
from .model import EventMarker, Trial
from .pipeline import WarpReport
from .sweeps import FsampSweepRow, PaddingSweepRow

PADDING_COLUMNS = ("direction", "interval", "pad_fraction", "correlation",
                   "dtw_distance", "dtw_similarity", "energy_ratio", "status")
FSAMP_COLUMNS = ("fsamp_factor", "direction", "interval", "pad_fraction",
                 "correlation", "dtw_similarity", "status")


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def events_sidecar_path(trial_path: str | Path) -> Path:
    return Path(trial_path).with_suffix(".events.json")


def write_trial_csv(path: str | Path, trial: Trial) -> None:
    lines = [f"# f_samp: {fmt(trial.f_samp)}", f"# samples: {len(trial)}"]
    lines.extend(fmt(v) for v in trial.samples)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trial_csv(path: str | Path) -> Trial:
    """Parse a trial file; raises ParseError with a line number on bad rows."""
    text = Path(path).read_text(encoding="utf-8")
    f_samp = None
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            if key.strip() == "f_samp":
                try:
                    f_samp = float(val)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}: bad f_samp value {val.strip()!r}"
                    ) from None
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: could not parse {line!r} as a sample value"
            ) from None
    if f_samp is None:
        raise ParseError(f"{path}: missing '# f_samp:' metadata line")
    if not values:
        raise ParseError(f"{path}: no sample rows")
    return Trial(np.array(values), f_samp)


def write_events_json(path: str | Path, events) -> None:
    payload = {"events": [{"index": int(e.index), "label": e.label} for e in events]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_events_json(path: str | Path) -> tuple[EventMarker, ...]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON: {err}") from None
    try:
        return tuple(EventMarker(int(item["index"]), str(item["label"]))
                     for item in payload["events"])
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{path}: malformed events payload: {err}") from None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def _write_table(path: str | Path, header: dict[str, str], columns, rows) -> None:
    lines = [f"# {k}: {v}" for k, v in header.items()]
    lines.append(",".join(columns))
    lines.extend(rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_padding_table(path: str | Path, rows: list[PaddingSweepRow],
                        header: dict[str, str]) -> None:
    body = [",".join([r.direction, r.interval, fmt(r.pad_fraction),
                      _cell(r.correlation), _cell(r.dtw_distance),
                      _cell(r.dtw_similarity), _cell(r.energy_ratio), r.status])
            for r in rows]
    _write_table(path, header, PADDING_COLUMNS, body)


def write_fsamp_table(path: str | Path, rows: list[FsampSweepRow],
                      header: dict[str, str]) -> None:
    body = [",".join([fmt(r.fsamp_factor), r.direction, r.interval,
                      fmt(r.pad_fraction), _cell(r.correlation),
                      _cell(r.dtw_similarity), r.status])
            for r in rows]
    _write_table(path, header, FSAMP_COLUMNS, body)


def read_table(path: str | Path) -> list[dict[str, str]]:
    """Read a sweep table back as a list of row dicts (metadata lines skipped)."""
    with Path(path).open(encoding="utf-8", newline="") as fh:
        data_lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(data_lines))


def write_warp_report_json(path: str | Path, report: WarpReport,
                           context: dict) -> None:
    """Serialise per-interval warp metrics (without cost matrices) plus context."""
    def interval_payload(r):
        return {
            "ratio": r.ratio,
            "correlation": r.correlation,
            "dtw_distance": r.dtw.distance,
            "dtw_normalized_distance": r.dtw.normalized_distance,
            "dtw_similarity": r.dtw.similarity,
            "energy_in": r.energy_in,
            "energy_out": r.energy_out,
            "energy_ratio": r.energy_ratio,
        }

    payload = dict(context)
    payload["intervals"] = {"t1": interval_payload(report.t1),
                            "t2": interval_payload(report.t2)}
    payload["events"] = [{"index": e.index, "label": e.label}
                         for e in report.warped.events]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_dtw_matrix_csv(path: str | Path, result: DtwResult) -> None:
    """Write the cost matrix one row at a time, never holding the whole text."""
    acc = result.cost_matrix
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"# shape: {acc.shape[0]},{acc.shape[1]}\n")
        for row in acc:
            fh.write(",".join(map(fmt, row.tolist())) + "\n")


def write_dtw_path_csv(path: str | Path, result: DtwResult) -> None:
    lines = ["i,j"]
    lines.extend(f"{i},{j}" for i, j in result.path)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
