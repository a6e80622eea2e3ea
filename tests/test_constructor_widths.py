"""Constructor widths: the parameters of the control plane's widest classes.

Each of these constructors lost the options no caller outside the tests
ever set; the defaults became module constants or the one code path they
took.  This test pins the exact parameter names left, so an option that
creeps back in fails here and has to be argued for (the parameters that
stay are injection seams tests substitute fakes through, or options a
benchmark or example sets).
"""

from __future__ import annotations

import inspect

import pytest

from repro.core import (
    AutoCompDaemon,
    AutoCompPipeline,
    AutoCompService,
    LstExecutionBackend,
    PolicyPromoter,
    ShardedPipeline,
    WorkerPool,
)
from repro.core.autotune import CostFrugalOptimizer
from repro.engine import TrickleWriter
from repro.fleet import ShardedAutoCompStrategy
from repro.replay import (
    CatalogHistoryRing,
    CatalogReplayer,
    CatalogTraceRecorder,
    TraceRecorder,
)
from repro.workloads import RawIngestionPipeline

WIDTHS = {
    PolicyPromoter: ("store", "guard_cycles", "min_history_cycles"),
    AutoCompPipeline: (
        "connector",
        "backend",
        "traits",
        "policy",
        "selector",
        "scheduler",
        "generation",
        "stats_filters",
        "telemetry",
        "feedback_hooks",
    ),
    AutoCompDaemon: (
        "service",
        "locks",
        "admission",
        "interval_s",
        "schedule",
        "promoter",
        "promoter_interval_s",
        "spill_path",
        "tracer",
        "obs_dir",
        "export_interval_s",
    ),
    ShardedAutoCompStrategy: (
        "model",
        "n_shards",
        "k",
        "selection",
        "workers",
        "max_workers",
        "observe_cost",
        "telemetry",
    ),
    ShardedPipeline: (
        "shards",
        "selection",
        "merge_order",
        "workers",
        "max_workers",
        "telemetry",
        "tracer",
    ),
    WorkerPool: ("max_workers",),
    AutoCompService: ("pipeline", "interval_s"),
    LstExecutionBackend: ("connector", "cluster", "cost_model"),
    CatalogHistoryRing: (
        "catalog",
        "taps",
        "seed",
        "cluster",
        "segment_cycles",
        "max_segments",
    ),
    CatalogReplayer: ("trace",),
    CatalogTraceRecorder: ("sink", "taps", "seed", "catalog", "cluster", "compress"),
    TraceRecorder: ("sink", "taps", "config"),
    CostFrugalOptimizer: ("initial_step", "shrink", "patience"),
    TrickleWriter: ("mean_file_size", "max_files"),
    RawIngestionPipeline: ("table", "session", "events_bytes_per_hour", "target_file_size"),
}


@pytest.mark.parametrize("cls", list(WIDTHS), ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_pinned(cls):
    parameters = tuple(inspect.signature(cls.__init__).parameters)
    assert parameters[0] == "self"
    assert parameters[1:] == WIDTHS[cls]
