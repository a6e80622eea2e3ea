"""Deterministic trace replay: reconstruct a fleet, re-drive AutoComp.

Two replay modes, one trace:

* **verbatim** (:meth:`TraceReplayer.replay_verbatim`) — apply every
  recorded event exactly as captured, including the source run's
  compactions.  The resulting :class:`~repro.fleet.model.FleetModel`
  matches the source fleet's per-table file counts *exactly* (growth byte
  deltas are derived by the same arithmetic, compaction states are
  assigned verbatim), which is the recorder/replayer round-trip guarantee.
* **what-if** (:meth:`TraceReplayer.replay`) — apply only the recorded
  *workload* (onboards and write days) and let a caller-supplied
  :class:`~repro.replay.variants.PolicyVariant` make the compaction
  decisions, on the same cadence the source deployment ran (after each
  day's writes).  Replaying the same trace under the same variant yields
  byte-identical cycle reports: fleet reconstruction is exact, every
  pipeline phase is deterministic (NFR2), and the only stochastic input —
  realised compaction noise — draws from an RNG derived from
  ``(trace seed, variant name)``.

The replayer parses the trace once and snapshots the reconstructed state
after the initial onboard prefix, so evaluating many variants pays the
population-rebuild cost once (:meth:`~repro.fleet.model.FleetModel.restore`
per variant instead of a cold build).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import IO

from repro.core.pipeline import CycleReport
from repro.core.sharding import ShardedCycleReport
from repro.fleet.model import FleetModel, FleetSnapshot
from repro.replay.trace import Trace, TraceReader, canonical_json, serialize_cycle_report
from repro.replay.variants import PolicyVariant
from repro.simulation.rng import derive_rng
from repro.units import DAY


@dataclass
class ReplayResult:
    """Outcome of one what-if replay of a trace under one variant."""

    variant: PolicyVariant
    reports: list[CycleReport] = field(default_factory=list)
    #: Fleet files at the start (post initial onboard) and end of the replay.
    files_initial: int = 0
    files_final: int = 0
    #: Files below the 128 MiB reporting threshold at the end.
    files_below_threshold_final: int = 0
    #: Recorded write days replayed.
    days: int = 0

    @property
    def total_files_reduced(self) -> int:
        """Net file-count reduction across all cycles."""
        return sum(report.total_files_reduced for report in self.reports)

    @property
    def total_gbhr(self) -> float:
        """Compute spent across all cycles."""
        return sum(report.total_gbhr for report in self.reports)

    @property
    def total_rewritten_bytes(self) -> int:
        """Bytes rewritten by all compactions."""
        return sum(r.rewritten_bytes for report in self.reports for r in report.results)

    @property
    def tasks(self) -> int:
        """Act-phase tasks executed (successes + skips + failures)."""
        return sum(len(report.results) for report in self.reports)

    @property
    def failures(self) -> int:
        """Tasks that failed without being skips (conflicts etc.)."""
        return sum(
            1
            for report in self.reports
            for r in report.results
            if not r.success and not r.skipped
        )

    @property
    def skips(self) -> int:
        """Tasks skipped because nothing was worth rewriting."""
        return sum(1 for report in self.reports for r in report.results if r.skipped)

    def report_lines(self) -> list[str]:
        """Each cycle report as one canonical JSON line."""
        return [canonical_json(serialize_cycle_report(report)) for report in self.reports]

    def report_bytes(self) -> bytes:
        """The canonical serialization of every cycle report, newline-joined.

        Two replays of the same trace under the same variant produce equal
        values here — byte for byte (the determinism guarantee the Policy
        Lab's property tests pin down).
        """
        return "\n".join(self.report_lines()).encode("utf-8")

    def report_digest(self) -> str:
        """SHA-256 of :meth:`report_bytes` (compact cross-process equality)."""
        return hashlib.sha256(self.report_bytes()).hexdigest()


class TraceReplayer:
    """Replays one parsed trace, verbatim or under policy variants.

    Args:
        trace: a parsed :class:`~repro.replay.trace.Trace`, or anything
            :class:`~repro.replay.trace.TraceReader` accepts (a path or a
            text stream), which is read and validated here.
    """

    def __init__(self, trace: Trace | str | os.PathLike | IO[str]) -> None:
        if not isinstance(trace, Trace):
            trace = TraceReader(trace).read()
        self.trace = trace
        self._base: FleetSnapshot | None = None
        self._base_events_start = 0

    # --- state reconstruction ---------------------------------------------------

    def _fresh_model(self) -> FleetModel:
        """An empty model under the trace's config (no sampling, no taps)."""
        return FleetModel(self.trace.config(), onboard_initial=False)

    def _base_state(self) -> tuple[FleetModel, int]:
        """A model at the trace's starting population, plus the event cursor.

        The leading run of ``onboard`` events (normally exactly one: the
        initial population) is applied once and snapshotted; later calls
        restore the snapshot instead of re-applying.
        """
        model = self._fresh_model()
        if self._base is None:
            cursor = 0
            for event in self.trace.events:
                if event["kind"] != "onboard":
                    break
                model.load_tables(event["columns"])
                cursor += 1
            self._base = model.snapshot()
            self._base_events_start = cursor
        else:
            model.restore(self._base)
        return model, self._base_events_start

    # --- verbatim replay --------------------------------------------------------

    def replay_verbatim(self) -> FleetModel:
        """Reconstruct the source run's final fleet state exactly.

        Applies every recorded event — onboards, write days and the source
        run's own compactions — and returns the resulting model.  Per-table
        file counts and byte totals match the recorded fleet bit for bit.
        """
        model, cursor = self._base_state()
        for event in self.trace.events[cursor:]:
            kind = event["kind"]
            if kind == "onboard":
                model.load_tables(event["columns"])
            elif kind == "day":
                model.apply_growth(
                    event["indices"], event["tiny"], event["mid"], event["large"]
                )
            elif kind == "compact":
                model.apply_compact_state(event["index"], event["state"])
            # cycle events are reference metadata; nothing to apply.
        return model

    # --- what-if replay ---------------------------------------------------------

    def _apply_workload(
        self, model: FleetModel, cursor: int, on_day=None, perturb=None
    ) -> int:
        """Apply the recorded workload (onboards + write days) from ``cursor``.

        Recorded compactions and cycle summaries are ignored — the what-if
        caller supplies its own decisions via ``on_day`` (invoked after each
        applied write day with the 1-based day count).  ``perturb``
        (a :class:`~repro.replay.perturb.Perturbation` or compatible hook)
        rescales each day's deltas first — the counterfactual-workload
        path.  Returns the number of write days applied.  Shared by
        :meth:`replay` and :meth:`replay_baseline` so the two can never
        drift.
        """
        days_seen = 0
        for event in self.trace.events[cursor:]:
            kind = event["kind"]
            if kind == "onboard":
                model.load_tables(event["columns"])
            elif kind == "day":
                if perturb is not None:
                    event = perturb.transform_day(event)
                model.apply_growth(
                    event["indices"], event["tiny"], event["mid"], event["large"]
                )
                days_seen += 1
                if on_day is not None:
                    on_day(days_seen)
        return days_seen

    def replay(self, variant: PolicyVariant, perturb=None) -> ReplayResult:
        """Re-drive the recorded workload under ``variant``'s policy.

        Recorded compactions and cycle summaries are ignored; after every
        ``variant.trigger_interval_days``-th recorded write day, one OODA
        cycle runs against the reconstructed state (mirroring the source
        deployment's step-then-compact cadence).  ``perturb`` replays a
        counterfactually rescaled workload instead of the recorded one.

        Returns:
            The :class:`ReplayResult`, whose :meth:`ReplayResult.report_bytes`
            is identical across repeated calls with an equal variant (and
            equal perturbation).
        """
        model, cursor = self._base_state()
        # The what-if run's only stochasticity is realised compaction noise;
        # derive its stream from (trace seed, variant name) so reruns are
        # exact and distinct variants are statistically independent.
        model._rng = derive_rng(self.trace.seed, "policy-lab", variant.name)
        pipeline = variant.build_pipeline(model)
        result = ReplayResult(variant=variant, files_initial=model.total_files)

        def run_cycle_if_due(days_seen: int) -> None:
            if days_seen % variant.trigger_interval_days == 0:
                report = pipeline.run_cycle(now=float(model.day) * DAY)
                if isinstance(report, ShardedCycleReport):
                    report = report.report
                result.reports.append(report)

        result.days = self._apply_workload(
            model, cursor, on_day=run_cycle_if_due, perturb=perturb
        )
        result.files_final = model.total_files
        result.files_below_threshold_final = model.files_below_threshold
        return result

    def replay_baseline(self, perturb=None) -> ReplayResult:
        """The no-compaction reference replay (workload only, no cycles)."""
        model, cursor = self._base_state()
        result = ReplayResult(
            variant=PolicyVariant(name="baseline-none", k=0),
            files_initial=model.total_files,
        )
        result.days = self._apply_workload(model, cursor, perturb=perturb)
        result.files_final = model.total_files
        result.files_below_threshold_final = model.files_below_threshold
        return result

