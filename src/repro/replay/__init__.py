"""The Policy Lab: trace capture, deterministic replay, what-if search.

AutoComp's evaluation is fundamentally trace-driven — policies are judged
by replaying realistic write workloads and comparing file-count reduction
against GBHr cost.  This package turns every workload the repo can
generate — the vectorised §7 *fleet* plane and the live §6 *LST-catalog*
plane — into a reusable corpus for policy experiments, in three layers:

* **capture** — :class:`~repro.replay.recorder.TraceRecorder` (fleet) and
  :class:`~repro.replay.catalog_trace.CatalogTraceRecorder` (catalog)
  subscribe to simulation events through a
  :class:`~repro.simulation.taps.TapBus` and serialize them to a
  versioned, seed-stamped JSONL trace (:mod:`repro.replay.trace`); a
  catalog recording can be *chunked* into gzip-compressed segment files
  for month-scale runs, with checkpoint-delimited segments so any suffix
  replays standalone (the
  :class:`~repro.replay.catalog_trace.CatalogHistoryRing` behind
  ``AutoCompService.evaluate_recent`` holds such segments in memory);
* **replay** — :class:`~repro.replay.replayer.TraceReplayer` /
  :class:`~repro.replay.catalog_replay.CatalogReplayer` reconstruct state
  from a trace and re-drive AutoComp cycles under a caller-supplied
  :class:`~repro.replay.variants.PolicyVariant`, with the guarantee that
  the same trace + the same variant yields byte-identical cycle reports
  (:func:`~repro.replay.whatif.verify_deterministic` checks it for either
  trace type); a :class:`~repro.replay.perturb.Perturbation`
  deterministically rescales the recorded workload first for
  counterfactual what-ifs;
* **search** — :class:`~repro.replay.whatif.WhatIfRunner` fans a grid of
  variants (:func:`~repro.replay.variants.variant_grid`) out over a worker
  pool (dispatching on the trace's type), scores each against the
  recorded workload, and emits a ranked comparison whose winner can seed
  :mod:`repro.core.autotune` / :mod:`repro.core.weight_learning` as
  offline priors.
"""

from repro.replay.catalog_replay import CatalogReplayer
from repro.replay.catalog_trace import (
    CatalogHistoryRing,
    CatalogTraceRecorder,
    catalog_checkpoint,
    restore_checkpoint,
)
from repro.replay.perturb import Perturbation
from repro.replay.recorder import TraceRecorder
from repro.replay.replayer import ReplayResult, TraceReplayer
from repro.replay.trace import (
    CATALOG_TRACE_EVENT_KINDS,
    TRACE_EVENT_KINDS,
    TRACE_SCHEMA_VERSION,
    Trace,
    TraceReader,
    TraceValidationError,
    TraceWriter,
    serialize_cycle_report,
    trace_size_bytes,
)
from repro.replay.variants import PolicyVariant, variant_grid
from repro.replay.whatif import (
    VariantScore,
    WhatIfReport,
    WhatIfRunner,
    build_replayer,
    verify_deterministic,
)

__all__ = [
    "CATALOG_TRACE_EVENT_KINDS",
    "CatalogHistoryRing",
    "CatalogReplayer",
    "CatalogTraceRecorder",
    "Perturbation",
    "PolicyVariant",
    "ReplayResult",
    "TRACE_EVENT_KINDS",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "TraceReader",
    "TraceRecorder",
    "TraceReplayer",
    "TraceValidationError",
    "TraceWriter",
    "VariantScore",
    "WhatIfReport",
    "WhatIfRunner",
    "build_replayer",
    "catalog_checkpoint",
    "restore_checkpoint",
    "serialize_cycle_report",
    "trace_size_bytes",
    "variant_grid",
    "verify_deterministic",
]
