"""Time-lock variable-length trials by piecewise windowed-sinc resampling.

Trials are partitioned at their event markers into pre / t1 / t2 / post; the
two middle intervals are padded with neighbouring signal, resampled to the
target lengths by a windowed-sinc filter, truncated, and concatenated back
between the untouched outer intervals. Validation metrics (Pearson
correlation, DTW distance, energy accounting) quantify how closely the
time-locked trials match their unwarped counterparts.
"""

from . import errors
from .errors import TimelockError
from .metrics import DtwResult, DtwScore, dtw, dtw_score, energy, pearson
from .model import (
    OFFSET,
    ONSET,
    TRANSITION,
    EventMarker,
    Partition,
    Trial,
    event_index_from_seconds,
    partition_from_events,
)
from .pipeline import (
    FixedTargets,
    IntervalReport,
    MeanLengths,
    TargetPolicy,
    WarpReport,
    WarpSpec,
    align_batch,
    plan_warp,
    warp_trial,
)
from .resample import SincConfig, resample_padded
from .sweeps import (
    DIRECTIONS,
    FsampSweepRow,
    PaddingSweepRow,
    SweepConfig,
    fsamp_sweep,
    padding_sweep,
)
from .synth import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "DIRECTIONS",
    "DtwResult",
    "DtwScore",
    "EventMarker",
    "FixedTargets",
    "FsampSweepRow",
    "IntervalReport",
    "MeanLengths",
    "OFFSET",
    "ONSET",
    "PaddingSweepRow",
    "Partition",
    "SincConfig",
    "SweepConfig",
    "SynthSpec",
    "TRANSITION",
    "TargetPolicy",
    "TimelockError",
    "Trial",
    "WarpReport",
    "WarpSpec",
    "align_batch",
    "dtw",
    "dtw_score",
    "energy",
    "errors",
    "event_index_from_seconds",
    "fsamp_sweep",
    "generate",
    "padding_sweep",
    "partition_from_events",
    "pearson",
    "plan_warp",
    "resample_padded",
    "warp_trial",
]
