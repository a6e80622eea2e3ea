"""Policy Lab: what-if policy search over one recorded trace.

The paper's evaluation is trace-driven: policies are judged by replaying a
realistic write workload and comparing file-count reduction against GBHr
cost.  This bench exercises the full Policy Lab loop on either plane:

1. **record** — run the workload under a conservative AutoComp policy with
   a recorder attached, producing a versioned, seed-stamped JSONL trace
   (fleet: :class:`~repro.replay.TraceRecorder`; ``--connector lst``:
   a §6 CAB catalog run through
   :class:`~repro.replay.CatalogTraceRecorder`, chunked + compressed);
2. **verify** — replay the trace verbatim and check the reconstructed
   state matches the live one exactly, and replay one variant twice and
   check the cycle reports are byte-identical (the determinism guarantee;
   catalog mode additionally checks the recorded run replays its *own*
   reports back byte-for-byte);
3. **search** — sweep policy variants over the trace with the
   :class:`~repro.replay.WhatIfRunner` and print the ranked comparison.

Fleet mode also rewrites the recorded trace through the chunked gzip
writer and reports the on-disk compression ratio (gated >=2x — the
month-scale trace-growth fix).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_whatif.py [--smoke]
        [--connector fleet|lst] [--json BENCH_whatif.json]

``--smoke`` runs a tiny workload (CI-sized) and skips the speedup
assertion; the full fleet run sweeps >=8 variants and asserts parallel
what-if execution is >=2x faster than sequential when at least 4 CPU cores
are available (the speedup target is defined on a 4-core runner).
``--json`` writes the measured metrics for the CI perf-regression gate
(``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

import numpy as np

from repro.fleet import AutoCompStrategy, FleetConfig, FleetSimulator
from repro.replay import (
    CatalogReplayer,
    CatalogTraceRecorder,
    PolicyVariant,
    TraceReader,
    TraceRecorder,
    TraceReplayer,
    TraceWriter,
    WhatIfRunner,
    serialize_cycle_report,
    trace_size_bytes,
    variant_grid,
    verify_deterministic,
)
from repro.simulation import Simulator, TapBus
from repro.units import DAY, HOUR, MiB


def _banner(title: str, claim: str) -> str:
    line = "=" * 78
    return f"\n{line}\n{title}\n{claim}\n{line}"


def record_trace(path: str, tables: int, days: int, seed: int) -> FleetSimulator:
    """Run the source fleet under AutoComp k=10, recording to ``path``."""
    taps = TapBus()
    config = FleetConfig(initial_tables=tables, onboarded_per_month=tables // 8, seed=seed)
    recorder = TraceRecorder(path, taps, config=config)
    sim = FleetSimulator(config, taps=taps)
    sim.set_strategy(0, AutoCompStrategy(sim.model, k=10))
    sim.run_days(days)
    recorder.close()
    return sim


def verify_round_trip(path: str, sim: FleetSimulator) -> bool:
    """Verbatim replay reconstructs the live fleet's file counts exactly."""
    replayed = TraceReplayer(path).replay_verbatim()
    source = sim.model
    return (
        replayed.count == source.count
        and replayed.total_files == source.total_files
        and np.array_equal(
            replayed.tiny_files[: replayed.count], source.tiny_files[: source.count]
        )
        and np.array_equal(
            replayed.large_bytes[: replayed.count], source.large_bytes[: source.count]
        )
    )


def verify_determinism(path: str) -> bool:
    """Two replays of the same trace + variant are byte-identical."""
    return verify_deterministic(path, PolicyVariant(name="determinism-probe", k=10))


def rewrite_chunked(src: str, dst: str, segments: int = 8) -> None:
    """Re-write a recorded trace through the chunked gzip writer."""
    trace = TraceReader(src).read()
    per_segment = max(1, (len(trace.events) + segments - 1) // segments)
    writer = TraceWriter(dst, segment_records=per_segment, compress=True)
    try:
        writer.write(trace.header)
        for event in trace.events:
            writer.write(event)
    finally:
        writer.close()


# --- catalog (`--connector lst`) mode -----------------------------------------


def record_catalog_trace(path: str, databases: int, hours: int, seed: int):
    """Run a §6 CAB catalog workload under AutoComp k=10, recording to ``path``.

    Cycles run synchronously on an hourly cadence (the recordable
    step-then-compact setting); the trace is chunked + gzip-compressed,
    rotating on hour boundaries.
    """
    from repro.catalog import Catalog
    from repro.engine import Cluster, EngineSession
    from repro.workloads import CabConfig, CabWorkload

    config = CabConfig(
        databases=databases,
        data_bytes_per_db=256 * MiB,
        duration_s=hours * HOUR,
        lineitem_months=12,
        ro_rate_per_hour=2.0,
        rw_rate_per_hour=3.0,
        write_spike_hour=min(4.0, hours - 1.0),
        spike_events_per_db=2.0,
        insert_bytes_mean=24 * MiB,
        shuffle_partitions=16,
        seed=seed,
    )
    taps = TapBus()
    catalog = Catalog(taps=taps)
    cluster = Cluster("compaction", executors=3)
    recorder = CatalogTraceRecorder(
        path, taps, seed=seed, catalog=catalog, cluster=cluster, compress=True
    )
    session = EngineSession(
        Cluster("query", executors=8),
        telemetry=catalog.telemetry,
        clock=catalog.clock,
        seed=seed,
    )
    session.attach_filesystem(catalog.fs)
    workload = CabWorkload(catalog, session, config)
    workload.load()
    simulator = Simulator(catalog.clock)
    workload.attach(simulator)
    variant = PolicyVariant(name="w0.70-k10", k=10)
    pipeline = variant.build_catalog_pipeline(catalog, cluster)
    pipeline.taps = taps
    reports = []
    for hour in range(1, hours + 1):
        simulator.run_until(hour * HOUR)
        reports.append(pipeline.run_cycle(now=catalog.clock.now))
        recorder.rotate()  # checkpoint-delimited hourly segments
    simulator.run_until(config.duration_s + HOUR)
    recorder.close()
    return catalog, reports, variant


def catalog_layout(catalog) -> dict:
    return {
        str(table.identifier): sorted(
            (f.file_id, f.size_bytes, f.partition) for f in table.live_files()
        )
        for table in catalog.all_tables()
    }


def catalog_main(args) -> int:
    databases = args.tables or (2 if args.smoke else 6)
    hours = args.days or (3 if args.smoke else 5)
    workers = args.workers or min(os.cpu_count() or 1, 4)
    variants = [
        PolicyVariant(name="w0.70-k10", k=10),
        PolicyVariant(name="w0.70-k25", k=25),
        PolicyVariant(name="quota-k10", ranking="quota_aware", k=10),
        PolicyVariant(name="hybrid-k25", k=25, generation="hybrid"),
    ]
    print(
        _banner(
            f"Policy Lab — LST-catalog what-if search, {databases} CAB databases, "
            f"{hours} recorded hours",
            f"Target: byte-identical record->replay of a §6 catalog run; ranked "
            f"sweep of {len(variants)} variants without re-running the catalog",
        )
    )
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.trace.jsonl")
        start = time.perf_counter()
        catalog, live_reports, recorded_variant = record_catalog_trace(
            path, databases, hours, args.seed
        )
        record_s = time.perf_counter() - start
        trace = TraceReader(path).read()
        size = trace_size_bytes(path)
        bytes_per_day = size * DAY / (hours * HOUR)
        print(
            f"recorded {len(trace.events)} events ({size // 1024} KiB chunked+gz, "
            f"{bytes_per_day / 1024:.0f} KiB/simulated-day) in {record_s:.2f}s"
        )

        print("round-trip: verbatim replay reconstructs the catalog ...", end=" ")
        round_trip_ok = (
            catalog_layout(CatalogReplayer(trace).replay_verbatim())
            == catalog_layout(catalog)
        )
        print("exact" if round_trip_ok else "MISMATCH")
        if not round_trip_ok:
            failures.append("verbatim replay did not reconstruct the catalog exactly")

        print("identity: recorded run replayed under its own policy ...", end=" ")
        live_bytes = "\n".join(
            json.dumps(serialize_cycle_report(r), sort_keys=True, separators=(",", ":"))
            for r in live_reports
        ).encode("utf-8")
        replay_bytes = CatalogReplayer(trace).replay(recorded_variant).report_bytes()
        identical = replay_bytes == live_bytes
        print("byte-identical" if identical else "DIVERGED")
        if not identical:
            failures.append("record->replay did not reproduce the recorded reports")

        print("determinism: same trace + same variant replayed twice ...", end=" ")
        deterministic = verify_deterministic(
            trace, PolicyVariant(name="determinism-probe", k=10)
        )
        print("byte-identical" if deterministic else "DIVERGED")
        if not deterministic:
            failures.append("catalog replay is not byte-identical")

        start = time.perf_counter()
        with WhatIfRunner(path, variants) as runner:
            report = runner.run(workers=workers)
        sweep_s = time.perf_counter() - start
        print(
            f"\nsweep: {len(variants)} variants in {sweep_s:.2f}s "
            f"({report.workers} process worker(s); 1 = sequential)\n"
        )
        print(report.render())
        best = report.best()

        if args.json:
            payload = {
                "bench": "whatif_lst",
                "config": {
                    "databases": databases,
                    "hours": hours,
                    "variants": len(variants),
                    "workers": workers,
                    "seed": args.seed,
                    "smoke": args.smoke,
                    "cores": os.cpu_count() or 1,
                },
                "metrics": {
                    "round_trip": int(round_trip_ok),
                    "record_replay_identical": int(identical),
                    "deterministic": int(deterministic),
                    "best_files_reduced": best.files_reduced,
                    "catalog_sweep_wall_s": sweep_s,
                    "trace_bytes_per_day": bytes_per_day,
                },
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"\nwrote metrics to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI-sized run, no speedup assertion"
    )
    parser.add_argument(
        "--connector",
        choices=("fleet", "lst"),
        default="fleet",
        help="workload plane: the §7 fleet simulation (default) or the §6 "
        "LST-catalog CAB run",
    )
    parser.add_argument(
        "--tables", type=int, default=None, help="fleet size / CAB database count override"
    )
    parser.add_argument("--days", type=int, default=None, help="recorded days / CAB hours")
    parser.add_argument("--workers", type=int, default=None, help="parallel pool width")
    parser.add_argument("--seed", type=int, default=20250730)
    parser.add_argument(
        "--json", default=None, help="write measured metrics to this path"
    )
    args = parser.parse_args()

    if args.connector == "lst":
        return catalog_main(args)

    tables = args.tables or (150 if args.smoke else 1200)
    days = args.days or (6 if args.smoke else 30)
    if args.smoke:
        variants = [
            PolicyVariant(name="w0.70-k10", k=10),
            PolicyVariant(name="quota-k10", ranking="quota_aware", k=10),
        ]
    else:
        variants = variant_grid(
            benefit_weights=(0.5, 0.7, 0.9),
            ks=(5, 10, 25),
            rankings=("weighted", "quota_aware"),
        )
    workers = args.workers or min(os.cpu_count() or 1, 4)

    print(
        _banner(
            f"Policy Lab — what-if search, {tables}-table fleet, {days} recorded days",
            f"Target: {len(variants)} variants over one trace; parallel sweep >=2x "
            "faster than sequential on a 4-core runner; byte-identical replays",
        )
    )

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fleet.trace.jsonl")
        start = time.perf_counter()
        sim = record_trace(path, tables, days, args.seed)
        record_s = time.perf_counter() - start
        trace = TraceReader(path).read()
        print(
            f"recorded {len(trace.events)} events "
            f"({os.path.getsize(path) // 1024} KiB) in {record_s:.2f}s"
        )

        print("round-trip: recorder -> replayer reconstructs fleet ...", end=" ")
        round_trip_ok = verify_round_trip(path, sim)
        print("exact" if round_trip_ok else "MISMATCH")
        if not round_trip_ok:
            failures.append("verbatim replay did not reconstruct the fleet exactly")

        print("determinism: same trace + same variant replayed twice ...", end=" ")
        deterministic = verify_determinism(path)
        print("byte-identical" if deterministic else "DIVERGED")
        if not deterministic:
            failures.append("replay is not byte-identical")

        chunked_path = os.path.join(tmp, "fleet.chunked.jsonl")
        rewrite_chunked(path, chunked_path)
        plain_bytes = trace_size_bytes(path)
        chunked_bytes = trace_size_bytes(chunked_path)
        compression = plain_bytes / chunked_bytes if chunked_bytes else float("inf")
        chunked_matches = TraceReader(chunked_path).read().events == trace.events
        print(
            f"chunked trace: {plain_bytes // 1024} KiB plain -> "
            f"{chunked_bytes // 1024} KiB in segments ({compression:.1f}x, "
            f"{'identical events' if chunked_matches else 'EVENT MISMATCH'})"
        )
        if not chunked_matches:
            failures.append("chunked rewrite changed the event stream")
        if compression < 2.0:
            failures.append(
                f"chunked trace compression {compression:.2f}x below the 2x target"
            )

        runner = WhatIfRunner(path, variants)
        start = time.perf_counter()
        sequential = runner.run(workers=1)
        sequential_s = time.perf_counter() - start
        start = time.perf_counter()
        parallel = runner.run(workers=workers)
        parallel_s = time.perf_counter() - start
        runner.close()
        speedup = sequential_s / parallel_s if parallel_s else float("inf")
        print(
            f"\nsweep: {len(variants)} variants — sequential {sequential_s:.2f}s, "
            f"parallel({workers}) {parallel_s:.2f}s, speedup {speedup:.2f}x\n"
        )
        print(parallel.render())
        print(f"\noffline priors for autotune: {parallel.to_priors()}")

        parallel_matches = [s.report_digest for s in sequential.scores] == [
            s.report_digest for s in parallel.scores
        ]
        if not parallel_matches:
            failures.append("parallel scores diverged from sequential")
        cores = os.cpu_count() or 1
        if not args.smoke:
            if cores >= 4:
                if speedup < 2.0:
                    failures.append(f"parallel speedup {speedup:.2f}x below the 2x target")
            else:
                print(f"(speedup assertion skipped: only {cores} CPU core(s) available)")

        if args.json:
            best = parallel.best()
            payload = {
                "bench": "whatif",
                "config": {
                    "tables": tables,
                    "days": days,
                    "variants": len(variants),
                    "workers": workers,
                    "seed": args.seed,
                    "smoke": args.smoke,
                    "cores": cores,
                },
                "metrics": {
                    "round_trip": int(round_trip_ok),
                    "deterministic": int(deterministic),
                    "parallel_matches_sequential": int(parallel_matches),
                    "best_files_reduced": best.files_reduced,
                    "best_efficiency": best.efficiency,
                    "parallel_speedup": speedup,
                    "trace_compression_ratio": compression,
                },
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"\nwrote metrics to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
