"""Spans and counts around the package's public functions, installed from outside.

Each traced function is replaced, under every name a module of the package
binds it to, by a wrapper that records a span (name, start, end, parent span)
and the function's work counts. Callers look names up at call time, so
`timelock.pipeline.resample_padded`, `timelock.sweeps.warp_trial` and
`timelock.cli.dtw` all reach the wrapper. Spans stay in memory until the run
ends. Nothing inside the package changes.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _out_samples(args, kwargs, result):
    return {"out_samples": len(result)}


def _grid_cells(args, kwargs, result):
    x, y = args[:2]
    return {"grid_cells": len(x) * len(y)}


def _matrix_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, counts taken from the call's arguments and result)
TARGETS = (
    ("model", "partition_from_events", None),
    ("synth", "generate", None),
    ("resample", "resample_padded", _out_samples),
    ("metrics", "dtw_score", _grid_cells),
    ("metrics", "dtw", _grid_cells),
    ("metrics", "pearson", None),
    ("metrics", "energy", None),
    ("pipeline", "warp_trial", None),
    ("pipeline", "align_batch", None),
    ("sweeps", "padding_sweep", None),
    ("sweeps", "fsamp_sweep", None),
    ("trialio", "read_trial_csv", None),
    ("trialio", "write_trial_csv", None),
    ("trialio", "write_warp_report_json", None),
    ("trialio", "write_dtw_matrix_csv", _matrix_bytes),
    ("cli", "main", None),
)

SWEEPS = ("sweeps.padding_sweep", "sweeps.fsamp_sweep")

# busy nanoseconds per unit of a layer's work count
PER_UNIT = {"ns_per_out_sample": "out_samples", "ns_per_grid_cell": "grid_cells"}

# (metric, unit); every value is per workload operation
METRICS = (
    ("model.partition_from_events.calls", "calls/op"),
    ("model.partition_from_events.busy_s", "s/op"),
    ("synth.generate.calls", "calls/op"),
    ("synth.generate.busy_s", "s/op"),
    ("resample.resample_padded.calls", "calls/op"),
    ("resample.resample_padded.busy_s", "s/op"),
    ("resample.resample_padded.out_samples", "samples/op"),
    ("resample.resample_padded.ns_per_out_sample", "ns/sample"),
    ("metrics.dtw_score.calls", "calls/op"),
    ("metrics.dtw_score.busy_s", "s/op"),
    ("metrics.dtw_score.grid_cells", "cells/op"),
    ("metrics.dtw_score.ns_per_grid_cell", "ns/cell"),
    ("metrics.dtw.calls", "calls/op"),
    ("metrics.dtw.busy_s", "s/op"),
    ("metrics.dtw.grid_cells", "cells/op"),
    ("metrics.pearson.busy_s", "s/op"),
    ("metrics.energy.busy_s", "s/op"),
    ("pipeline.warp_trial.calls", "calls/op"),
    ("pipeline.warp_trial.busy_s", "s/op"),
    ("pipeline.warp_trial.self_s", "s/op"),
    ("pipeline.align_batch.busy_s", "s/op"),
    ("pipeline.align_batch.self_s", "s/op"),
    ("sweeps.padding_sweep.busy_s", "s/op"),
    ("sweeps.padding_sweep.self_s", "s/op"),
    ("sweeps.fsamp_sweep.busy_s", "s/op"),
    ("sweeps.fsamp_sweep.self_s", "s/op"),
    ("sweeps.cells", "cells/op"),
    ("sweeps.cells_failed", "cells/op"),
    ("trialio.read_trial_csv.busy_s", "s/op"),
    ("trialio.write_trial_csv.busy_s", "s/op"),
    ("trialio.write_warp_report_json.busy_s", "s/op"),
    ("trialio.write_dtw_matrix_csv.busy_s", "s/op"),
    ("trialio.write_dtw_matrix_csv.bytes", "B/op"),
    ("cli.main.busy_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("trace.overhead_s", "s/op"),
    ("op.wall_ms", "ms"),
)


class Tracer:
    """Records spans and counts while installed; derives per-layer metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name, fn, *args, count=None, **kwargs):
        """Call fn inside a span named name, recording count(args, kwargs, result)."""
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx][1:3] = start, end
        if count is not None:
            for key, value in count(args, kwargs, result).items():
                self.counts[f"{name}.{key}"] += value
        if name in SWEEPS and not self._inside(idx, SWEEPS):
            # each sweep cell yields one row per interval
            self.counts["sweeps.cells"] += len(result) // 2
            self.counts["sweeps.cells_failed"] += sum(r.status != "ok" for r in result) // 2
        return result

    def _inside(self, idx: int, names) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def install(self) -> None:
        """Bind a wrapper under every package name that refers to a traced function."""
        for module_name, fn_name, count in TARGETS:
            original = getattr(importlib.import_module(f"timelock.{module_name}"), fn_name)
            wrapper = self._wrapper(f"{module_name}.{fn_name}", original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "timelock" and not mod_name.startswith("timelock."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrapper(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, count=count, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def per_op_metrics(self, ops: int, measured: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics divided by the number of traced workload operations.

        measured holds the metrics the caller timed itself (trace.overhead_s, op.wall_ms).
        """
        calls = defaultdict(int)
        busy = defaultdict(int)
        child = [0] * len(self.spans)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            if not self._inside(idx, (name,)):
                busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(int)
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[idx]

        values = {}
        for metric, _ in METRICS:
            layer, _, kind = metric.rpartition(".")
            if metric in measured:
                v = measured[metric]
            elif kind == "calls":
                v = calls[layer] / ops
            elif kind == "busy_s":
                v = busy[layer] / 1e9 / ops
            elif kind == "self_s":
                v = own[layer] / 1e9 / ops
            elif kind in PER_UNIT:
                units = self.counts[f"{layer}.{PER_UNIT[kind]}"]
                v = busy[layer] / units if units else 0.0
            else:
                v = self.counts[metric] / ops
            values[metric] = v
        return values

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
