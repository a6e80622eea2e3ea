"""Deterministic catalog-trace replay: rebuild a catalog, re-drive AutoComp.

The catalog counterpart of :class:`~repro.replay.replayer.TraceReplayer`,
covering the paper's §6 setting (a live LST catalog under the CAB
workload) with the same two modes:

* **verbatim** (:meth:`CatalogReplayer.replay_verbatim`) — re-execute
  every recorded event, including the source run's own ``replace``
  (compaction) commits, through the real table/commit machinery.  Because
  commits replay in commit order with the clock pinned to each event's
  recorded time, file ids, versions, snapshots and the final live file
  layout match the source catalog exactly.
* **what-if** (:meth:`CatalogReplayer.replay`) — re-execute only the
  *workload* (DDL + non-rewrite commits) and let a
  :class:`~repro.replay.variants.PolicyVariant` make the compaction
  decisions, one synchronous OODA cycle per recorded ``cycle`` marker
  (honouring ``variant.trigger_interval_days`` as an every-Nth-marker
  cadence).  Catalog replay is RNG-free — compaction planning, execution
  and costing are all deterministic functions of table and cluster state —
  so the same trace + the same variant yields byte-identical cycle
  reports, and recording a run that was itself driven through
  ``variant.build_catalog_pipeline`` with synchronous cycles replays its
  own reports back byte-for-byte.

Counterfactual caveat: under a *different* policy (or a
:class:`~repro.replay.perturb.Perturbation`), replayed compactions rewrite
different files than the source run did, so later recorded removals may
name file ids the counterfactual catalog no longer holds.  Those removals
are applied best-effort (missing ids skipped) — mirroring how the live
writer would have retried against fresh metadata — and the replay stays
fully deterministic.
"""

from __future__ import annotations

import os
from typing import IO

from repro.catalog.catalog import Catalog
from repro.catalog.serde import parse_cluster, parse_policy, parse_schema, parse_spec
from repro.core.pipeline import CycleReport
from repro.engine.cluster import Cluster
from repro.errors import ValidationError
from repro.replay.catalog_trace import restore_checkpoint
from repro.replay.replayer import ReplayResult
from repro.replay.trace import Trace, TraceReader
from repro.replay.variants import PolicyVariant
from repro.simulation.clock import SimClock


class CatalogReplayer:
    """Replays one parsed catalog trace, verbatim or under policy variants.

    Args:
        trace: a parsed :class:`~repro.replay.trace.Trace` of type
            ``catalog``, or anything :class:`~repro.replay.trace.TraceReader`
            accepts (a path or a text stream), which is read and validated
            here.

    Each replay compacts on a fresh copy of the cluster serialized in the
    trace header (a stock 3-executor cluster when the header carries
    none), under the engine's default cost model.
    """

    def __init__(self, trace: Trace | str | os.PathLike | IO[str]) -> None:
        if not isinstance(trace, Trace):
            trace = TraceReader(trace).read()
        if trace.trace_type != "catalog":
            raise ValidationError(
                f"CatalogReplayer needs a catalog trace, got {trace.trace_type!r} "
                "(use TraceReplayer for fleet traces)"
            )
        self.trace = trace

    # --- construction helpers ---------------------------------------------------

    def _make_cluster(self) -> Cluster:
        """A fresh (contention-free) compaction cluster for one replay."""
        info = self.trace.header.get("catalog", {}).get("cluster")
        if info:
            return parse_cluster(info)
        return Cluster("compaction-replay", executors=3)

    def _fresh_catalog(self) -> Catalog:
        warehouse = self.trace.header.get("catalog", {}).get("warehouse", "/data")
        return Catalog(clock=SimClock(), warehouse=warehouse)

    # --- event application --------------------------------------------------------

    @staticmethod
    def _advance(catalog: Catalog, t: float) -> None:
        if t > catalog.clock.now:
            catalog.clock.advance_to(t)

    @staticmethod
    def _apply_create(catalog: Catalog, event: dict) -> None:
        catalog.create_table(
            f"{event['database']}.{event['table']}",
            schema=parse_schema(event["schema"]),
            spec=parse_spec(event["spec"]),
            table_format=event["format"],
            properties=dict(event["properties"]),
            policy=parse_policy(event["policy"]),
        )

    @staticmethod
    def _apply_commit(catalog: Catalog, event: dict) -> int:
        """Re-execute one recorded commit; returns removals skipped.

        Removals resolve against the table's *current* live files: under
        verbatim replay (and same-policy what-if) every recorded id is
        live by induction; under counterfactual policies missing ids are
        skipped deterministically.
        """
        table = catalog.load_table(f"{event['database']}.{event['table']}")
        live_by_id = {f.file_id: f for f in table.live_files()}
        op = event["op"]
        skipped = 0
        if op == "append":
            txn = table.new_append()
            for partition, size in event["added"]:
                txn.add_file(size, partition=tuple(partition))
        elif op in ("overwrite", "delete"):
            txn = table.new_overwrite()
            for file_id in event["removed"]:
                data_file = live_by_id.get(file_id)
                if data_file is None:
                    skipped += 1
                    continue
                txn.delete_file(data_file)
            for partition, size in event["added"]:
                txn.add_file(size, partition=tuple(partition))
        elif op == "rowdelta":
            txn = table.new_row_delta()
            for partition, size in event["added"]:
                txn.add_file(size, partition=tuple(partition))
            for partition, size, refs in event["deletes"]:
                partition = tuple(partition)
                references = [live_by_id[r] for r in refs if r in live_by_id]
                skipped += len(refs) - len(references)
                if not references:
                    continue
                # add_deletes takes the delete file's partition from the
                # first reference; order a matching one first when present.
                references.sort(
                    key=lambda f, p=partition: (f.partition != p, f.file_id)
                )
                txn.add_deletes(size, references)
        elif op == "replace":
            txn = table.new_rewrite()
            sources_by_partition: dict[tuple, list] = {}
            for file_id in event["removed"]:
                data_file = live_by_id.get(file_id)
                if data_file is None:
                    skipped += 1
                    continue
                sources_by_partition.setdefault(data_file.partition, []).append(data_file)
            # Outputs arrive in materialization order; group them by
            # partition preserving first appearance so re-staging allocates
            # the exact file ids the source rewrite did.
            outputs_by_partition: dict[tuple, list[int]] = {}
            for partition, size in event["added"]:
                outputs_by_partition.setdefault(tuple(partition), []).append(size)
            for partition, output_sizes in outputs_by_partition.items():
                sources = sorted(
                    sources_by_partition.get(partition, []), key=lambda f: f.file_id
                )
                if not sources:
                    skipped += len(output_sizes)
                    continue
                txn.rewrite(sources, output_sizes)
        else:  # pragma: no cover - reader validation rejects unknown ops
            raise ValidationError(f"unknown commit operation {op!r}")
        txn.commit()
        return skipped

    # --- verbatim replay --------------------------------------------------------

    def replay_verbatim(self) -> Catalog:
        """Reconstruct the source run's final catalog state exactly.

        Applies every recorded event — DDL, user commits and the source
        run's own ``replace`` commits — and returns the resulting catalog.
        Per-table live file layouts (ids, sizes, partitions), versions and
        commit counters match the recorded catalog bit for bit.
        """
        catalog = self._fresh_catalog()
        for index, event in enumerate(self.trace.events):
            kind = event["kind"]
            self._advance(catalog, float(event["t"]))
            if kind == "db_create":
                catalog.create_database(event["name"], quota_objects=event["quota_objects"])
            elif kind == "table_create":
                self._apply_create(catalog, event)
            elif kind == "table_commit":
                self._apply_commit(catalog, event)
            elif kind == "checkpoint" and index == 0:
                restore_checkpoint(catalog, event)
            # cycle events (and redundant mid-trace checkpoints) are
            # reference metadata under verbatim replay.
        return catalog

    # --- what-if replay ---------------------------------------------------------

    def replay(self, variant: PolicyVariant, perturb=None) -> ReplayResult:
        """Re-drive the recorded workload under ``variant``'s policy.

        Recorded ``replace`` commits and cycle reports are ignored; at
        every ``variant.trigger_interval_days``-th recorded cycle marker,
        one synchronous OODA cycle runs against the reconstructed catalog
        through ``variant.build_catalog_pipeline``.

        Returns:
            The :class:`~repro.replay.replayer.ReplayResult`, whose
            :meth:`~repro.replay.replayer.ReplayResult.report_bytes` is
            identical across repeated calls with an equal variant.
        """
        return self._replay_workload(variant, perturb, run_cycles=True)

    def replay_baseline(self, perturb=None) -> ReplayResult:
        """The no-compaction reference replay (workload only, no cycles)."""
        baseline = PolicyVariant(name="baseline-none", k=0)
        return self._replay_workload(baseline, perturb, run_cycles=False)

    def _replay_workload(
        self, variant: PolicyVariant, perturb, run_cycles: bool
    ) -> ReplayResult:
        catalog = self._fresh_catalog()
        pipeline = (
            variant.build_catalog_pipeline(catalog, self._make_cluster())
            if run_cycles
            else None
        )
        try:
            return self._drive_workload(catalog, pipeline, variant, perturb, run_cycles)
        finally:
            # Sharded variants (n_shards > 1) own worker pools; release
            # them per replay so sweeps never strand threads.
            close = getattr(pipeline, "close", None)
            if close is not None:
                close()

    def _drive_workload(
        self, catalog, pipeline, variant: PolicyVariant, perturb, run_cycles: bool
    ) -> ReplayResult:
        result = ReplayResult(variant=variant)
        markers = 0
        files_initial_pending = True

        def total_files() -> int:
            return sum(table.data_file_count for table in catalog.all_tables())

        def run_cycle(now: float) -> None:
            report = pipeline.run_cycle(now=now)
            if not isinstance(report, CycleReport):
                # Sharded variants return a ShardedCycleReport; the merged
                # fleet report is the replay's unit of comparison.
                report = report.report
            result.reports.append(report)

        for index, event in enumerate(self.trace.events):
            kind = event["kind"]
            self._advance(catalog, float(event["t"]))
            if kind == "db_create":
                catalog.create_database(event["name"], quota_objects=event["quota_objects"])
            elif kind == "table_create":
                self._apply_create(catalog, event)
            elif kind == "checkpoint":
                if index == 0:
                    restore_checkpoint(catalog, event)
            elif kind == "table_commit":
                if event["op"] == "replace":
                    continue  # the recorded policy's output, not workload
                if perturb is not None:
                    event = perturb.transform_commit(event)
                self._apply_commit(catalog, event)
            elif kind == "cycle":
                if files_initial_pending:
                    result.files_initial = total_files()
                    files_initial_pending = False
                markers += 1
                result.days = markers
                if run_cycles and markers % variant.trigger_interval_days == 0:
                    run_cycle(catalog.clock.now)
        if files_initial_pending:
            result.files_initial = total_files()
        result.files_final = total_files()
        result.files_below_threshold_final = sum(
            table.small_file_count() for table in catalog.all_tables()
        )
        return result

