"""Reading and writing trial files, event sidecars, reports, and sweep tables.

Trial files are UTF-8 CSV: `#`-prefixed metadata lines (`# f_samp: 2048.0`)
followed by one sample value per row. Events live in a JSON sidecar
(`<stem>.events.json`). Every float is written with repr(), the shortest
decimal string that round-trips, so identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import ParseError
from .metrics import DtwResult
from .model import EventMarker, Trial
from .pipeline import WarpReport


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def events_sidecar_path(trial_path: str | Path) -> Path:
    return Path(trial_path).with_suffix(".events.json")


def read_text(path: str | Path) -> str:
    """The file's text; raises ParseError naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err}") from None


def write_trial_csv(path: str | Path, trial: Trial) -> None:
    lines = [f"# f_samp: {fmt(trial.f_samp)}", f"# samples: {len(trial)}"]
    lines.extend(fmt(v) for v in trial.samples)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trial_csv(path: str | Path) -> Trial:
    """Parse a trial file; raises ParseError with a line number on bad rows."""
    text = read_text(path)
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
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON: {err}") from None
    try:
        events = tuple((item["index"], str(item["label"])) for item in payload["events"])
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{path}: malformed events payload: {err}") from None
    for index, _ in events:
        # a JSON float or boolean would otherwise truncate to some sample
        if type(index) is not int:
            raise ParseError(f"{path}: event index must be a JSON integer, got {index!r}")
    return tuple(EventMarker(index, label) for index, label in events)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return fmt(value)


def write_sweep_table(path: str | Path, row_type: type, rows, header: dict[str, str]) -> None:
    """Write `# key: value` metadata lines, then one CSV line per row.

    The columns are row_type's dataclass fields in declaration order, so a
    table without rows still has its header; missing values are empty cells.
    """
    columns = [f.name for f in dataclasses.fields(row_type)]
    lines = [f"# {k}: {v}" for k, v in header.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(getattr(r, c)) for c in columns) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
