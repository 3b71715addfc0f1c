"""Reading and writing trial files, event sidecars, reports, and sweep tables.

Trial files are UTF-8 CSV: `#`-prefixed metadata lines (`# f_samp: 2048.0`,
`# samples: 8192`) followed by one sample value per row. Events live in a
JSON sidecar (`<stem>.events.json`). Every float is written with repr(), the
shortest decimal string that round-trips, so identical inputs always produce
byte-identical files. Every file is read and written one line at a time.
"""

from __future__ import annotations

import dataclasses
import json
import math
from array import array
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParseError, TimelockError, TrialTooLongError
from .metrics import DtwResult
from .model import MAX_SAMPLES as _MAX_SAMPLES  # trial files have the budget of synthesized trials
from .model import EventMarker, Trial
from .pipeline import WarpReport


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def events_sidecar_path(trial_path: str | Path) -> Path:
    return Path(trial_path).with_suffix(".events.json")


_METADATA = {"f_samp": float, "samples": int}  # trial file keys and their parsers


def read_lines(path: str | Path):
    """Yield the file's lines (CRLF and CR read as LF); ParseError if not UTF-8."""
    with Path(path).open(encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as err:
            raise ParseError(f"{path}: not UTF-8 text: {err}") from None


def _write_lines(path: str | Path, lines) -> None:
    """Write each line followed by a newline; the only writer of files."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _blocks(a: np.ndarray, size: int = 4096):
    """a's items along its first axis as Python values, size at a time."""
    for start in range(0, len(a), size):
        yield a[start:start + size].tolist()


def write_trial_csv(path: str | Path, trial: Trial) -> None:
    header = [f"# f_samp: {fmt(trial.f_samp)}", f"# samples: {len(trial)}"]
    samples = ("\n".join(map(fmt, block)) for block in _blocks(trial.samples))
    _write_lines(path, chain(header, samples))


def read_trial_csv(path: str | Path) -> Trial:
    """Parse a trial file; raises ParseError with a line number on bad rows.

    A trial holds at most 2**24 samples: a larger '# samples:' value raises
    TrialTooLongError when its line is read, and so does the row that passes
    the budget. An error of the Trial the file makes, such as NonFiniteError
    for a NaN row or BadRateError for '# f_samp: 0', is raised again with
    the path in front of its message.
    """
    metadata = {}
    values = array("d")
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if line.startswith("#"):
            key, _, val = map(str.strip, line[1:].partition(":"))
            if key in _METADATA:
                try:
                    metadata[key] = _METADATA[key](val)
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: bad {key} value {val!r}") from None
                if key == "samples" and metadata[key] > _MAX_SAMPLES:
                    raise TrialTooLongError(f"{path}: '# samples: {metadata[key]}' exceeds "
                                            f"the limit of {_MAX_SAMPLES} samples")
        elif line:
            try:
                values.append(float(line))
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}: could not parse {line!r} as a sample value"
                ) from None
            if len(values) > _MAX_SAMPLES:
                raise TrialTooLongError(f"{path}: line {lineno}: more sample rows than "
                                        f"the limit of {_MAX_SAMPLES} samples")
    if "f_samp" not in metadata:
        raise ParseError(f"{path}: missing '# f_samp:' metadata line")
    if not values:
        raise ParseError(f"{path}: no sample rows")
    if metadata.get("samples", len(values)) != len(values):
        raise ParseError(f"{path}: '# samples: {metadata['samples']}' but "
                         f"{len(values)} sample rows; the file may be cut short")
    try:
        return Trial(np.frombuffer(values), metadata["f_samp"])
    except TimelockError as err:
        raise type(err)(f"{path}: {err}") from None


def write_events_json(path: str | Path, events) -> None:
    payload = {"events": [{"index": int(e.index), "label": e.label} for e in events]}
    _write_lines(path, [json.dumps(payload, indent=2, allow_nan=False)])


def read_events_json(path: str | Path) -> tuple[EventMarker, ...]:
    try:
        payload = json.loads("".join(read_lines(path)))
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
    _write_lines(path, chain(
        (f"# {k}: {v}" for k, v in header.items()),
        [",".join(columns)],
        (",".join(_cell(getattr(r, c)) for c in columns) for r in rows)))


def write_warp_report_json(path: str | Path, report: WarpReport,
                           context: dict) -> None:
    """Serialise per-interval warp metrics (without cost matrices) plus context.

    A NaN or infinite metric, such as the correlation of a one-sample
    interval or an energy past the float range, is written as null, so the
    file is strict JSON.
    """
    def interval_payload(r):
        values = {
            "ratio": r.ratio,
            "correlation": r.correlation,
            "dtw_distance": r.dtw.distance,
            "dtw_normalized_distance": r.dtw.normalized_distance,
            "dtw_similarity": r.dtw.similarity,
            "energy_in": r.energy_in,
            "energy_out": r.energy_out,
            "energy_ratio": r.energy_ratio,
        }
        return {key: value if math.isfinite(value) else None
                for key, value in values.items()}

    payload = dict(context)
    payload["intervals"] = {"t1": interval_payload(report.t1),
                            "t2": interval_payload(report.t2)}
    payload["events"] = [{"index": e.index, "label": e.label}
                         for e in report.warped.events]
    _write_lines(path, [json.dumps(payload, indent=2, allow_nan=False)])


def write_dtw_matrix_csv(path: str | Path, result: DtwResult) -> None:
    acc = result.cost_matrix
    _write_lines(path, chain([f"# shape: {acc.shape[0]},{acc.shape[1]}"],
                             (",".join(map(fmt, row.tolist())) for row in acc)))


def write_dtw_path_csv(path: str | Path, result: DtwResult) -> None:
    steps = (f"{i},{j}" for block in _blocks(result.path) for i, j in block)
    _write_lines(path, chain(["i,j"], steps))
