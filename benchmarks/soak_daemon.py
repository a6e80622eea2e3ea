"""Daemon soak: two concurrent AutoComp daemons, one catalog, zero collisions.

The §7 production rule the daemonized control plane must uphold is
*no unit is ever double-compacted*, however many AutoComp instances share
a warehouse.  This soak runs two :class:`~repro.core.daemon.AutoCompDaemon`
instances against one live catalog and one shared lock directory while an
ingest thread keeps re-fragmenting every table (so both daemons always
want the same work), injects a recurring worker failure into one of them
(a daemon must outlive bad cycles), then drains both gracefully and
replays the shared lock audit log.

The exit code *is* the verdict: 0 when
:func:`~repro.core.locks.verify_audit` finds a clean log (every
compaction under a held lock, no key double-held, no (key, trigger) pair
compacted twice) and every liveness check holds; 1 otherwise.

Daemon alpha additionally runs the full observability plane — a
:class:`~repro.obs.tracing.Tracer` on its pipeline and a
:class:`~repro.obs.exporter.MetricsExporter` flushing to ``--obs-dir``
throughout the soak — and the final ``metrics.prom`` must round-trip
through the strict Prometheus checker (:mod:`repro.obs.promcheck`), so
the soak also proves the exporter stays valid under concurrent load.

Alpha also carries the self-driving policy plane: a
:class:`~repro.core.promoter.PolicyPromoter` over a durable
:class:`~repro.core.promoter.PolicyStore` ticks on its own cadence
thread while cycles, ingest and the injected failures are all running.
The soak fails unless the promoter actually shadow-evaluated under load
and the full promotion history replays clean
(:func:`~repro.core.promoter.verify_promotions`) — promotions and
rollbacks are allowed (the workload is adversarial), inconsistency is
not.

Two recorded rows ride along (neither is a gate): ``peak_rss_mb``, the
soak process's peak resident set (``ru_maxrss``), and
``ring_retained_bytes``, the traced memory the self-evaluation history
holds over 8 segments of 32 tables × 2,000 files with one compaction per
table per segment, for the ring's pins and for eager checkpoints (a full
checkpoint per segment and each commit's event built when it lands).

Run as a script::

    PYTHONPATH=src python benchmarks/soak_daemon.py [--duration 60]
        [--interval 0.05] [--tables 3] [--databases 2]
        [--json BENCH_daemon_soak.json] [--obs-dir DIR]

CI runs the 60-second soak next to the perf-regression gate (uploading
``--obs-dir`` as an artifact); use a small ``--duration`` (>= 2s) for a
local smoke.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import tempfile
import threading
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.catalog import Catalog
from repro.core import (
    AdmissionController,
    AutoCompDaemon,
    AutoCompService,
    LockManager,
    PolicyPromoter,
    PolicyStore,
    openhouse_pipeline,
    verify_audit,
    verify_promotions,
)
from repro.core.locks import LOCK_SUFFIX
from repro.engine import Cluster
from repro.lst import Field, MonthTransform, PartitionField, PartitionSpec, Schema
from repro.lst.maintenance import execute_rewrite, plan_table_rewrite
from repro.obs.promcheck import check_exposition
from repro.obs.status import log_lines
from repro.obs.tracing import Tracer
from repro.replay import CatalogHistoryRing, PolicyVariant, catalog_checkpoint
from repro.simulation.taps import CATALOG_EVENT_KINDS, TapBus
from repro.units import HOUR, MiB


def build_fleet(databases: int, tables: int) -> tuple[Catalog, list]:
    catalog = Catalog()
    schema = Schema.of(Field("id", "long"), Field("event_date", "date"))
    spec = PartitionSpec.of(PartitionField("event_date", MonthTransform()))
    fleet_tables = []
    for d in range(databases):
        catalog.create_database(f"db{d}", quota_objects=1_000_000)
        for t in range(tables):
            table = catalog.create_table(f"db{d}.t{t}", schema, spec=spec)
            txn = table.new_append()
            for _ in range(8):
                txn.add_file(8 * MiB, partition=(0,))
            txn.commit()
            fleet_tables.append(table)
    catalog.clock.advance_by(2 * HOUR)  # age past the recent-table filter
    return catalog, fleet_tables


#: The ring-retention row: tables, files per table, partitions per table
#: (one is compacted per table per segment), and segments.
RING_TABLES, RING_FILES, RING_PARTITIONS, RING_SEGMENTS = 32, 2_000, 20, 8


def ring_retained_bytes(pinned: bool) -> int:
    """Traced bytes freed when the self-evaluation history is dropped.

    ``pinned`` measures a :class:`CatalogHistoryRing`; otherwise a list
    holding what the ring held before pins.  Tracing starts before the
    catalog is built, so snapshots and files only a pin keeps alive (their
    tables compacted and expired since) count too.
    """
    tracemalloc.start()
    try:
        taps = TapBus()
        catalog = Catalog(taps=taps)
        catalog.create_database("db")
        schema = Schema.of(Field("id", "long"), Field("event_date", "date"))
        spec = PartitionSpec.of(PartitionField("event_date", MonthTransform()))
        tables = [catalog.create_table(f"db.t{t}", schema, spec=spec) for t in range(RING_TABLES)]
        for table in tables:
            for partition in range(RING_PARTITIONS):
                txn = table.new_append()
                for _ in range(RING_FILES // RING_PARTITIONS):
                    txn.add_file(MiB, partition=(partition,))
                txn.commit()
            table.expire_snapshots()
        if pinned:
            ring = CatalogHistoryRing(catalog, taps, segment_cycles=1, max_segments=RING_SEGMENTS)
        else:
            held = [catalog_checkpoint(catalog)]

            def record(kind, payload):
                event = payload.as_event() if kind == "table_commit" else {"kind": kind, **payload}
                held.append(event)
                if kind == "cycle":
                    held.append(catalog_checkpoint(catalog))

            for kind in CATALOG_EVENT_KINDS:
                taps.subscribe(kind, record)
        for segment in range(RING_SEGMENTS):
            if segment:  # seal the last segment and open this one
                taps.publish("cycle", {"t": catalog.clock.now, "report": {}})
            for table in tables:
                execute_rewrite(table, plan_table_rewrite(table, partitions=[(segment,)]))
                table.expire_snapshots()
        holding = tracemalloc.get_traced_memory()[0]
        if pinned:
            ring.close()
            del ring
        else:
            for kind in CATALOG_EVENT_KINDS:
                taps.unsubscribe(kind, record)
            del held, record
        gc.collect()
        return holding - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def build_daemon(catalog, lock_dir, owner, interval_s, **daemon_kwargs):
    pipeline = openhouse_pipeline(catalog, Cluster("maint", executors=3))
    service = AutoCompService(pipeline)
    locks = LockManager(lock_dir, owner=owner, stale_after_s=30.0)
    return AutoCompDaemon(service, locks, interval_s=interval_s, **daemon_kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="two-daemon lock-audit soak")
    parser.add_argument("--duration", type=float, default=60.0, help="soak seconds")
    parser.add_argument("--interval", type=float, default=0.05, help="cycle cadence")
    parser.add_argument("--databases", type=int, default=2)
    parser.add_argument("--tables", type=int, default=3, help="tables per database")
    parser.add_argument(
        "--failure-every",
        type=int,
        default=5,
        help="inject a worker failure into daemon beta every Nth cycle",
    )
    parser.add_argument("--json", help="write the soak metrics JSON here")
    parser.add_argument(
        "--obs-dir",
        help="daemon alpha's observability export directory "
        "(default: a subdirectory of the soak workdir)",
    )
    args = parser.parse_args(argv)
    if args.duration < 2.0:
        parser.error("--duration must be >= 2 seconds to observe any cadence")

    catalog, fleet_tables = build_fleet(args.databases, args.tables)
    workdir = tempfile.mkdtemp(prefix="autocomp-soak-")
    lock_dir = os.path.join(workdir, "locks")
    spill_path = os.path.join(workdir, "history.spill.jsonl")

    obs_dir = args.obs_dir or os.path.join(workdir, "obs")
    # Alpha's self-driving policy plane: durable store, a boot policy
    # matching the constructed pipeline plus two live challengers.
    store = PolicyStore(os.path.join(workdir, "policy"))
    boot = PolicyVariant(name="boot-k10", k=10)
    store.initialize(
        boot,
        pool=[
            boot,
            PolicyVariant(name="eager-k25", k=25),
            PolicyVariant(name="lazy-k5", k=5),
        ],
    )
    promoter = PolicyPromoter(store, guard_cycles=3, min_history_cycles=2)
    alpha = build_daemon(
        catalog,
        lock_dir,
        owner="alpha",
        interval_s=args.interval,
        admission=AdmissionController(max_per_database=2),
        spill_path=spill_path,
        tracer=Tracer(),
        obs_dir=obs_dir,
        export_interval_s=max(args.interval * 4, 0.5),
        promoter=promoter,
        promoter_interval_s=max(args.interval * 10, 0.5),
    )
    alpha.service.enable_history(segment_cycles=4, max_segments=4)
    beta = build_daemon(catalog, lock_dir, owner="beta", interval_s=args.interval)

    # Injected worker failure: beta's every Nth cycle raises mid-service.
    # The daemon must count it, swallow it, and keep its cadence.
    real_run_cycle = beta.service.run_cycle
    cycle_calls = [0]

    def flaky_run_cycle(now=0.0, simulator=None):
        cycle_calls[0] += 1
        if args.failure_every and cycle_calls[0] % args.failure_every == 0:
            raise RuntimeError("injected worker failure")
        return real_run_cycle(now=now, simulator=simulator)

    beta.service.run_cycle = flaky_run_cycle

    stop_ingest = threading.Event()

    def ingest():
        # Keep every table fragmented so both daemons always contend.
        while not stop_ingest.wait(0.01):
            for table in fleet_tables:
                txn = table.new_append()
                for _ in range(3):
                    txn.add_file(4 * MiB, partition=(0,))
                txn.commit()

    ingester = threading.Thread(target=ingest, daemon=True)
    started = time.monotonic()
    alpha.start()
    beta.start()
    ingester.start()
    time.sleep(args.duration)
    stop_ingest.set()
    ingester.join(timeout=10.0)
    alpha.stop()  # graceful drain: finish in-flight work, spill history
    beta.stop()
    elapsed = time.monotonic() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    summary = verify_audit(lock_dir)
    promotion_summary = verify_promotions(store.store_dir)
    leftover_locks = [
        name for name in os.listdir(lock_dir) if name.endswith(LOCK_SUFFIX)
    ]

    # The exporter's final flush ran inside alpha.stop(); the on-disk
    # exposition must satisfy the strict Prometheus checker, and the
    # trace dump must hold the spans of every alpha cycle.
    prom_path = alpha.exporter.prom_path
    prom_errors = ["metrics.prom was never written"]
    if os.path.exists(prom_path):
        with open(prom_path, encoding="utf-8") as stream:
            prom_errors = check_exposition(stream.read())
    # Whole lines of both trace segments (the log rolls at SPAN_RING lines).
    trace_spans = len(log_lines(alpha.exporter.trace_jsonl_path))

    metrics = {
        "duration_s": round(elapsed, 3),
        "cycles_alpha": alpha.cycles_run,
        "cycles_beta": beta.cycles_run,
        "cycle_errors_beta": beta.cycle_errors,
        "audit_events": summary.events,
        "acquires": summary.acquires,
        "contends": summary.contends,
        "compact_commits": summary.compact_commits,
        "double_compactions": summary.double_compactions,
        "violations": summary.violations,
        "leftover_locks": leftover_locks,
        "history_spilled": os.path.exists(spill_path)
        and os.path.getsize(spill_path) > 0,
        "exports": alpha.exporter.exports,
        "export_errors": alpha.exporter.export_errors,
        "prom_errors": prom_errors,
        "trace_spans": trace_spans,
        "obs_dir": obs_dir,
        "promoter_steps": alpha.promoter_steps,
        "promoter_errors": alpha.promoter_errors,
        "shadow_evals": promoter.shadow_evals,
        "promotions": promoter.promotions,
        "rollbacks": promoter.rollbacks,
        "guard_passes": promoter.guard_passes,
        "policy_version": store.version,
        "promotion_violations": promotion_summary.violations,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "ring_retained_bytes": {
            "pins": ring_retained_bytes(pinned=True),
            "eager": ring_retained_bytes(pinned=False),
        },
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(metrics, stream, indent=2, sort_keys=True)
    print(json.dumps(metrics, indent=2, sort_keys=True))

    failures = []
    if not summary.ok:
        failures.append(f"lock audit violations: {summary.violations}")
    if summary.compact_commits == 0:
        failures.append("soak compacted nothing — no coverage")
    if alpha.cycles_run + beta.cycles_run < 4:
        failures.append("fewer than 4 combined cycles — cadence never ran")
    if args.failure_every and beta.cycle_errors == 0 and cycle_calls[0] >= args.failure_every:
        failures.append("injected failures were not counted")
    if beta.cycles_run == 0 and cycle_calls[0] > args.failure_every:
        failures.append("beta never completed a cycle after injected failures")
    if leftover_locks:
        failures.append(f"locks leaked past graceful drain: {leftover_locks}")
    if not metrics["history_spilled"]:
        failures.append("graceful drain did not spill the history ring")
    if prom_errors:
        failures.append(f"prometheus exposition invalid: {prom_errors[:3]}")
    if alpha.exporter.exports == 0:
        failures.append("metrics exporter never exported")
    if trace_spans == 0:
        failures.append("tracer produced no spans across the whole soak")
    if promoter.shadow_evals == 0:
        failures.append("promoter never shadow-evaluated under load")
    if alpha.promoter_errors:
        failures.append(f"{alpha.promoter_errors} promoter step(s) raised")
    if promotion_summary.violations:
        failures.append(
            f"promotion audit violations: {promotion_summary.violations}"
        )
    if failures:
        print("SOAK FAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    print(
        f"SOAK OK: {alpha.cycles_run + beta.cycles_run} cycles, "
        f"{summary.compact_commits} commits, {summary.contends} lock contentions, "
        f"{beta.cycle_errors} injected errors survived, "
        f"{promoter.shadow_evals} shadow evals "
        f"({promoter.promotions} promoted, {promoter.rollbacks} rolled back), "
        f"audits clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
