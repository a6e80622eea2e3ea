"""Scale-out control plane: cycle latency vs fleet size, shards and workers.

The §7 deployment holds a daily cycle cadence while the fleet grows by
thousands of tables per month, so control-plane cycle latency must stay
sub-linear in fleet size.  This bench measures steady-state daily cycle
latency for:

* the **unsharded sequential baseline** — the seed
  :class:`~repro.fleet.AutoCompStrategy`: every candidate re-observed from
  scratch, every cycle;
* the **sharded control plane** —
  :class:`~repro.fleet.ShardedAutoCompStrategy`: consistent-hash sharding
  plus per-shard incremental observation caches (version-token
  invalidation), global selection;
* (with ``--workers processes``) **thread- vs process-mode shard
  workers** under a CPU-bound observe workload (``--observe-cost`` burns
  deterministic per-candidate CPU emulating real statistics-collection
  cost): threads serialize that work on the GIL, process workers spread
  it across cores via :class:`~repro.core.workers.ShardWorkSpec` round
  trips.

All configurations run the same decisions (global selection is exactly
equivalent to the unsharded pipeline, and worker modes produce identical
cycle reports), so measured latency differences are pure control-plane
overhead.

With ``--connector lst`` the same worker-mode comparison runs over the
*realistic* catalog path instead of the vectorised fleet model: a
:class:`~repro.core.connectors.LstConnector` over live simulated tables
with realistic per-table file populations, shipping shard work over the
:class:`~repro.core.transport.ColumnarTransport` (shared-memory
statistics arrays), with ``selection="local"`` so process cycles
exercise worker-side decide.  A payload measurement accompanies it,
comparing the shipped-back candidates (and bytes) with decide in the
worker vs on the coordinator.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_scaleout.py [--smoke]
        [--workers processes] [--observe-cost N] [--connector lst]
        [--json BENCH_scaleout.json]

``--smoke`` runs a small fleet (CI-sized) and skips the speedup
assertions; the full run asserts the >=2x sharding speedup at 4 shards on
a 2,000-table fleet, that sharded selections are deterministic across
repeated runs, and — under ``--workers processes`` on a >=4-core host —
that process workers beat thread workers by >=1.5x on the CPU-bound
observe workload.  ``--json`` writes the measured metrics for the CI
perf-regression gate (``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import statistics
import time

from repro.core.traits import Trait
from repro.core.workers import burn_cpu
from repro.fleet import (
    AutoCompStrategy,
    FleetConfig,
    FleetModel,
    ShardedAutoCompStrategy,
)
from repro.units import DAY, MiB

#: Selection budget per daily cycle (the paper's conservative rollout k).
TOP_K = 10

#: Default per-candidate CPU units for the worker-mode comparison: enough
#: that observation dominates the cycle (the regime process workers exist
#: for), small enough that smoke runs stay CI-sized.
OBSERVE_COST = 100

#: Default per-candidate CPU units for the LST worker-mode comparison
#: (``--connector lst``).  The simulated catalog hands observation a
#: ready-made size list, so the per-candidate statistics-collection cost a
#: production connector pays (manifest parsing, column-stat decoding —
#: milliseconds per table) is emulated by :class:`ObserveCostTrait`;
#: 600 units is ~0.3ms per observed candidate, still conservative.
LST_OBSERVE_COST = 600

#: Steady-state file sizes for the LST catalog: mostly small files below
#: the 512 MiB default target plus some already-compacted ones at it.
LST_SIZE_MIX = (8 * MiB, 24 * MiB, 64 * MiB, 200 * MiB, 512 * MiB)


def _banner(title: str, claim: str) -> str:
    line = "=" * 78
    return f"\n{line}\n{title}\n{claim}\n{line}"


def _fresh_model(tables: int, seed: int) -> FleetModel:
    model = FleetModel(FleetConfig(initial_tables=tables, seed=seed))
    model.step_day()  # give day-0 fragmentation something to observe
    return model


def measure(tables: int, shard_counts: list[int], days: int, seed: int) -> dict:
    """Latency table: baseline plus one row per shard count.

    All configurations run over identical (independent) fleets and are
    *interleaved* day by day, so low-frequency machine noise lands on every
    configuration alike; the per-configuration median then discards the
    remaining spikes (GC is also disabled around the timed region,
    identically for all configurations).
    """
    configs: list[tuple[str, object, FleetModel]] = []
    baseline_model = _fresh_model(tables, seed)
    configs.append(("baseline", AutoCompStrategy(baseline_model, k=TOP_K), baseline_model))
    for n in shard_counts:
        model = _fresh_model(tables, seed)
        configs.append((f"sharded-{n}", ShardedAutoCompStrategy(model, n_shards=n, k=TOP_K), model))

    latencies: dict[str, list[float]] = {name: [] for name, _, _ in configs}
    gc.collect()
    gc.disable()
    try:
        for cycle in range(1 + days):  # first cycle warms caches, discarded
            for name, strategy, model in configs:
                day = model.day
                start = time.perf_counter()
                strategy.run_day(model, day)
                elapsed = time.perf_counter() - start
                model.step_day()
                if cycle > 0:
                    latencies[name].append(elapsed)
    finally:
        gc.enable()
        for _, strategy, _ in configs[1:]:
            strategy.close()

    rows: dict[str, dict] = {}
    base_latency = statistics.median(latencies["baseline"])
    rows["baseline"] = {"latency_s": base_latency, "speedup": 1.0}
    for name, strategy, _ in configs[1:]:
        median = statistics.median(latencies[name])
        hits = sum(c.hits for c in strategy.caches)
        misses = sum(c.misses for c in strategy.caches)
        rows[name] = {
            "latency_s": median,
            "speedup": base_latency / median,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
    return rows


def measure_worker_modes(
    tables: int, n_shards: int, days: int, seed: int, observe_cost: int
) -> dict:
    """Thread- vs process-mode sharded latency under CPU-bound observation.

    Both modes run identical fleets with the same ``observe_cost`` burned
    per statistics rebuild (in the coordinator for threads, in the worker
    processes for processes), interleaved day by day; per-cycle selections
    are recorded and compared, so the table demonstrates both the
    multi-core speedup and the modes' identical decisions.
    """
    runs: list[tuple[str, ShardedAutoCompStrategy, FleetModel]] = []
    for mode in ("threads", "processes"):
        model = _fresh_model(tables, seed)
        strategy = ShardedAutoCompStrategy(
            model,
            n_shards=n_shards,
            k=TOP_K,
            workers=mode,
            # Explicit width: the process path must engage even when the
            # host advertises a single core (correctness is measured
            # everywhere; the speedup assertion is gated on cores).
            max_workers=n_shards,
            observe_cost=observe_cost,
        )
        runs.append((mode, strategy, model))

    latencies: dict[str, list[float]] = {mode: [] for mode, _, _ in runs}
    selections: dict[str, list[tuple]] = {mode: [] for mode, _, _ in runs}
    gc.collect()
    gc.disable()
    try:
        for cycle in range(1 + days):  # first cycle warms caches + pools
            for mode, strategy, model in runs:
                now = float(model.day) * DAY
                start = time.perf_counter()
                sharded = strategy.pipeline.run_cycle(now=now)
                elapsed = time.perf_counter() - start
                model.step_day()
                selections[mode].append(
                    tuple(str(key) for key in sharded.report.selected)
                )
                if cycle > 0:
                    latencies[mode].append(elapsed)
    finally:
        gc.enable()
        for _, strategy, _ in runs:
            strategy.close()

    thread_latency = statistics.median(latencies["threads"])
    process_latency = statistics.median(latencies["processes"])
    return {
        "threads": {"latency_s": thread_latency, "speedup": 1.0},
        "processes": {
            "latency_s": process_latency,
            "speedup": thread_latency / process_latency,
        },
        "identical_selections": selections["threads"] == selections["processes"],
    }


def measure_tracing_overhead(
    tables: int, n_shards: int, days: int, seed: int, observe_cost: int
) -> float:
    """Median per-day cycle-latency ratio, tracer attached vs detached.

    Two *identical* fleets (same seed; tracing never changes decisions)
    run interleaved day by day, one with a tracer on its sharded pipeline
    and one without, so each day yields a traced/untraced latency pair
    measured back to back under the same machine conditions and the same
    cache/fragmentation state.  The arms' run order alternates each day
    (ABBA) and the reported overhead is the median of per-day ratios —
    pairing and alternation make position effects and low-frequency
    runner noise cancel instead of landing on one arm.

    The workload is the bench's CPU-bound observe configuration
    (``observe_cost`` units burned per candidate, as in the worker-mode
    comparison): span cost is O(shards + selected) per cycle, so the
    production-shaped cycle — where observation does real per-candidate
    work — is the denominator the <5% overhead promise is made against.
    The ratio is gated absolutely (``check: max``) by the CI
    perf-regression baseline.
    """
    from repro.obs.tracing import Tracer

    # The median of per-day ratios needs a handful of pairs to be stable
    # on shared CI runners; stretch short (smoke) runs accordingly.
    cycles = max(days * 4, 12)
    tracer = Tracer()
    runs = []
    for traced in (False, True):
        model = _fresh_model(tables, seed)
        strategy = ShardedAutoCompStrategy(
            model, n_shards=n_shards, k=TOP_K, observe_cost=observe_cost
        )
        strategy.pipeline.tracer = tracer if traced else None
        runs.append((traced, strategy, model))
    pairs: list[dict[bool, float]] = []
    gc.collect()
    gc.disable()
    try:
        for cycle in range(1 + cycles):  # first cycle warms caches, discarded
            order = runs if cycle % 2 == 0 else list(reversed(runs))
            pair: dict[bool, float] = {}
            for traced, strategy, model in order:
                day = model.day
                start = time.perf_counter()
                strategy.pipeline.run_cycle(now=float(day) * DAY)
                pair[traced] = time.perf_counter() - start
                model.step_day()
            tracer.clear()
            if cycle > 0:
                pairs.append(pair)
    finally:
        gc.enable()
        for _, strategy, _ in runs:
            strategy.close()
    return statistics.median(pair[True] / pair[False] for pair in pairs)


class ObserveCostTrait(Trait):
    """Deterministic per-candidate CPU burn emulating real observation cost.

    The simulated catalog hands observation a ready-made file-size list,
    so the statistics-collection work a production connector pays per
    candidate (manifest parsing, column-stat decoding) is absent.  This
    trait burns :func:`~repro.core.workers.burn_cpu` rounds keyed on the
    candidate's file count — bit-identical across the per-object (thread)
    and columnar (worker) paths — and stores the checksum as an inert
    trait value (the
    policy's objectives only read the two named OpenHouse traits).  Thread
    workers serialize the burn on the GIL; process workers spread it.
    """

    name = "observe_cost_checksum"

    def __init__(self, units: int) -> None:
        self.units = units

    def compute(self, statistics) -> float:
        return float(burn_cpu(self.units, str(statistics.file_count).encode()))

    def compute_columnar(self, block):
        return [
            float(burn_cpu(self.units, str(int(count)).encode()))
            for count in block.column("file_count")
        ]


def _build_lst_catalog(tables: int, seed: int):
    """A deterministic catalog: two tenants, mixed partitioned/flat tables.

    Tables carry realistic file populations — 80–240 files each, sizes
    mostly below the 512 MiB compaction target with some already at it —
    so observation rows, worker transports and statistics all see
    production-shaped inputs rather than toy three-file tables.
    """
    from repro.catalog import Catalog
    from repro.lst import Field, MonthTransform, PartitionField, PartitionSpec, Schema

    catalog = Catalog()
    schema = Schema.of(Field("id", "long"), Field("event_date", "date"))
    monthly = PartitionSpec.of(PartitionField("event_date", MonthTransform()))
    catalog.create_database("tenant0", quota_objects=tables * 2000)
    catalog.create_database("tenant1")
    for i in range(tables):
        db = f"tenant{i % 2}"
        files = 80 + (i * 37 + seed) % 160
        if i % 4 == 0:
            table = catalog.create_table(f"{db}.part{i:04d}", schema, spec=monthly)
            partitions = [(0,), (1,)]
        else:
            table = catalog.create_table(f"{db}.flat{i:04d}", schema)
            partitions = [()]
        _append_files(table, partitions, files, salt=i)
    return catalog


def _append_files(table, partitions, files_per_partition, salt=0):
    txn = table.new_append()
    for partition in partitions:
        for j in range(files_per_partition):
            size = LST_SIZE_MIX[(j + salt) % len(LST_SIZE_MIX)]
            txn.add_file(size, partition=partition)
    txn.commit()


def _lst_daily_writes(catalog, day: int) -> None:
    """Dirty a deterministic rotating half of the tables, then advance a day.

    Half the fleet ingests daily (streaming tenants), half sits warm in
    the incremental cache — so cycles exercise both the miss path (fresh
    observation) and the hit path (cached candidates crossing the worker
    transport).
    """
    names = sorted(str(ident) for ident in catalog.list_tables())
    dirty = max(len(names) // 2, 1)
    for offset in range(dirty):
        table = catalog.load_table(names[(day * dirty + offset) % len(names)])
        partition = (0,) if table.spec.is_partitioned else ()
        _append_files(table, [partition], 4, salt=day + offset)
    catalog.clock.advance_by(DAY)


def _lst_pipeline(
    catalog,
    n_shards,
    workers,
    max_workers=None,
    observe_cost=0,
):
    from repro.core import IndexedCandidateCache, openhouse_sharded_pipeline
    from repro.engine import Cluster

    pipeline = openhouse_sharded_pipeline(
        catalog,
        Cluster("maint", executors=2),
        n_shards=n_shards,
        stats_cache=IndexedCandidateCache(),
        selection="local",
        workers=workers,
        max_workers=max_workers,
        k=TOP_K,
        min_table_age_s=0.0,
    )
    if observe_cost:
        # Shards share one registry; the burn trait rides the same
        # trait matrix as the built-ins.
        pipeline.shards[0].traits.register(ObserveCostTrait(observe_cost))
    return pipeline


def _interleaved_lst_cycles(runs: list[tuple], days: int) -> tuple[dict, dict]:
    """Run ``1 + days`` daily cycles for each configuration, interleaved.

    Returns per-configuration cycle latencies (first warm-up cycle
    discarded) and per-cycle selection tuples.
    """
    latencies: dict[str, list[float]] = {name: [] for name, _, _ in runs}
    selections: dict[str, list[tuple]] = {name: [] for name, _, _ in runs}
    gc.collect()
    gc.disable()
    try:
        for cycle in range(1 + days):  # first cycle warms caches + pools
            for name, catalog, pipeline in runs:
                start = time.perf_counter()
                sharded = pipeline.run_cycle(now=catalog.clock.now)
                elapsed = time.perf_counter() - start
                selections[name].append(
                    tuple(str(key) for key in sharded.report.selected)
                )
                _lst_daily_writes(catalog, cycle)
                if cycle > 0:
                    latencies[name].append(elapsed)
    finally:
        gc.enable()
        for _, _, pipeline in runs:
            pipeline.close()
    return latencies, selections


def measure_lst_worker_modes(
    tables: int,
    n_shards: int,
    days: int,
    seed: int,
    observe_cost: int,
) -> dict:
    """Thread- vs process-mode sharded cycles over the live-catalog connector.

    Unlike the fleet rows, LST observation is real per-table Python work
    (file listing, policy lookup, statistics from raw sizes — plus the
    :class:`ObserveCostTrait` emulation of production statistics
    collection), so this is the paper-shaped workload; ``selection="local"``
    lets process cycles run worker-side decide (the default), so the
    comparison covers the full in-worker OODA path.
    """
    runs = []
    for mode in ("threads", "processes"):
        catalog = _build_lst_catalog(tables, seed)
        pipeline = _lst_pipeline(
            catalog,
            n_shards,
            mode,
            max_workers=n_shards,
            observe_cost=observe_cost,
        )
        runs.append((mode, catalog, pipeline))
    latencies, selections = _interleaved_lst_cycles(runs, days)

    thread_latency = statistics.median(latencies["threads"])
    process_latency = statistics.median(latencies["processes"])
    return {
        "threads": {"latency_s": thread_latency, "speedup": 1.0},
        "processes": {
            "latency_s": process_latency,
            "speedup": thread_latency / process_latency,
        },
        "identical_selections": selections["threads"] == selections["processes"],
        "selected_total": sum(len(day) for day in selections["threads"]),
    }


def measure_lst_payload(tables: int, n_shards: int, seed: int) -> dict:
    """Shipped-back candidates, decide-on-coordinator vs decide-in-worker.

    Replays one cold shard cycle's export → (attach decide →) worker →
    result sequence through the shards' own
    :class:`~repro.core.transport.ColumnarTransport` inline (no pool, so
    the results can be pickled and sized exactly).  Without worker decide
    the coordinator takes back every observed miss; with it, only the
    selected candidates' references.  Byte sizes are reported as
    information: the trait matrix covering every miss rides back either
    way, so the bytes stay about level.
    """
    from repro.core import TopKSelector, run_shard_work, shard_for_key, split_selector

    sizes: dict[bool, dict[str, int]] = {}
    for decide in (False, True):
        catalog = _build_lst_catalog(tables, seed)
        pipeline = _lst_pipeline(catalog, n_shards, "threads")
        try:
            shard0 = pipeline.shards[0]
            keys = shard0.connector.list_candidates(shard0.generation)
            selectors = split_selector(TopKSelector(TOP_K), n_shards)
            total_bytes = 0
            total_candidates = 0
            for i, shard in enumerate(pipeline.shards):
                subset = [k for k in keys if shard_for_key(k, n_shards) == i]
                transport = shard.worker_transport()
                placed, spec = transport.export(subset, i, shard.traits)
                if spec is None:
                    continue
                try:
                    if decide:
                        spec = transport.attach_decide(
                            spec,
                            placed,
                            shard.policy,
                            selectors[i],
                            shard.stats_filters,
                            shard.trait_filters,
                        )
                    result = run_shard_work(spec)
                    total_bytes += len(pickle.dumps(result))
                    total_candidates += (
                        len(result.columnar.selected) if decide else len(spec.keys)
                    )
                finally:
                    transport.release(spec)
        finally:
            pipeline.close()
        sizes[decide] = {"bytes": total_bytes, "candidates": total_candidates}
    return {"coordinator_decide": sizes[False], "worker_decide": sizes[True]}


def selected_keys_per_day(tables: int, n_shards: int, days: int, seed: int) -> list[tuple]:
    """The sharded control plane's daily selections, as hashable tuples."""
    model = _fresh_model(tables, seed)
    with ShardedAutoCompStrategy(model, n_shards=n_shards, k=TOP_K) as strategy:
        selections = []
        for _ in range(days):
            day = model.day
            sharded = strategy.pipeline.run_cycle(now=float(day) * DAY)
            selections.append(tuple(str(key) for key in sharded.report.selected))
            model.step_day()
    return selections


def _print_rows(rows: dict) -> None:
    header = f"{'configuration':<14} {'cycle latency':>14} {'speedup':>9} {'cache hit rate':>15}"
    print(header)
    print("-" * len(header))
    for name, row in rows.items():
        if not isinstance(row, dict):
            continue
        hit = f"{row['hit_rate']:.0%}" if "hit_rate" in row else "-"
        print(
            f"{name:<14} {row['latency_s'] * 1e3:>12.2f}ms {row['speedup']:>8.2f}x {hit:>15}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small CI-sized run, no speedup assertion"
    )
    parser.add_argument("--tables", type=int, default=None, help="fleet size override")
    parser.add_argument("--days", type=int, default=None, help="measured cycles")
    parser.add_argument("--seed", type=int, default=20250730)
    parser.add_argument(
        "--workers",
        choices=["threads", "processes"],
        default=None,
        help="also compare shard worker modes (threads vs processes) "
        "under a CPU-bound observe workload",
    )
    parser.add_argument(
        "--observe-cost",
        type=int,
        default=None,
        help="per-candidate CPU units for the worker-mode comparison "
        f"(default: {OBSERVE_COST} fleet, {LST_OBSERVE_COST} lst)",
    )
    parser.add_argument(
        "--connector",
        choices=["fleet", "lst"],
        default="fleet",
        help="fleet: vectorised fleet model (default); lst: the realistic "
        "live-catalog connector with columnar shard export and "
        "worker-side decide",
    )
    parser.add_argument(
        "--json", default=None, help="write measured metrics to this path"
    )
    args = parser.parse_args()

    if args.connector == "lst":
        return main_lst(args)

    tables = args.tables or (500 if args.smoke else 2000)
    days = args.days or (2 if args.smoke else 7)
    shard_counts = [2] if args.smoke else [1, 2, 4, 8]
    worker_shards = 2 if args.smoke else 4
    cores = os.cpu_count() or 1
    observe_cost = (
        args.observe_cost if args.observe_cost is not None else OBSERVE_COST
    )

    print(
        _banner(
            f"Scale-out control plane — cycle latency, {tables}-table fleet",
            "Target: >=2x steady-state cycle-latency speedup at 4 shards "
            "(sharding + incremental observation) vs the unsharded baseline; "
            ">=1.5x process-worker speedup over threads on CPU-bound observe "
            "(4-core host)",
        )
    )
    rows = measure(tables, shard_counts, days, args.seed)
    _print_rows(rows)

    worker_rows = None
    if args.workers is not None:
        print(
            f"\nworker modes — {worker_shards} shards, observe cost "
            f"{observe_cost} units/candidate (CPU-bound observe):"
        )
        worker_rows = measure_worker_modes(
            tables, worker_shards, days, args.seed, observe_cost
        )
        _print_rows(worker_rows)
        print(
            "worker-mode selections: "
            + ("identical" if worker_rows["identical_selections"] else "DIVERGED")
        )

    tracing_overhead = measure_tracing_overhead(
        tables, worker_shards, days, args.seed, observe_cost
    )
    print(
        f"\ntracing overhead — tracer-on vs tracer-off interleaved cycles "
        f"(observe cost {observe_cost}): {tracing_overhead:.3f}x "
        f"(budget: <1.05x)"
    )

    print("\ndeterminism: repeated sharded runs with the same seed ...", end=" ")
    reference = selected_keys_per_day(tables, shard_counts[-1], days, args.seed)
    repeat = selected_keys_per_day(tables, shard_counts[-1], days, args.seed)
    identical = reference == repeat
    print("identical selections" if identical else "DIVERGED")

    failures = []
    if not identical:
        failures.append("sharded selections are not deterministic")
    if worker_rows is not None and not worker_rows["identical_selections"]:
        failures.append("process-mode selections diverged from thread mode")
    if not args.smoke:
        speedup = rows["sharded-4"]["speedup"]
        if speedup < 2.0:
            failures.append(f"sharded-4 speedup {speedup:.2f}x below the 2x target")
        if worker_rows is not None:
            worker_speedup = worker_rows["processes"]["speedup"]
            if cores >= 4:
                if worker_speedup < 1.5:
                    failures.append(
                        f"process-worker speedup {worker_speedup:.2f}x below the "
                        "1.5x target"
                    )
            else:
                print(
                    f"(worker speedup assertion skipped: only {cores} CPU core(s))"
                )

    if args.json:
        sharded_key = f"sharded-{shard_counts[-1]}"
        metrics: dict[str, float] = {
            "sharded_speedup": rows[sharded_key]["speedup"],
            "cache_hit_rate": rows[sharded_key]["hit_rate"],
            "deterministic": int(identical),
            "selected_total": sum(len(day) for day in reference),
            "tracing_overhead": tracing_overhead,
        }
        if worker_rows is not None:
            metrics["worker_speedup"] = worker_rows["processes"]["speedup"]
            metrics["worker_modes_identical"] = int(
                worker_rows["identical_selections"]
            )
        payload = {
            "bench": "scaleout",
            "config": {
                "tables": tables,
                "days": days,
                "seed": args.seed,
                "shards": shard_counts,
                "smoke": args.smoke,
                "cores": cores,
            },
            "metrics": metrics,
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


def main_lst(args) -> int:
    """The ``--connector lst`` flow: worker modes and returned payload."""
    tables = args.tables or (240 if args.smoke else 400)
    days = args.days or (2 if args.smoke else 5)
    n_shards = 2 if args.smoke else 4
    cores = os.cpu_count() or 1
    observe_cost = (
        args.observe_cost if args.observe_cost is not None else LST_OBSERVE_COST
    )

    print(
        _banner(
            f"Scale-out control plane — LST catalog connector, {tables} tables",
            "Realistic catalog path on process workers: columnar shared-memory "
            "transport, worker-side decide (selection='local'), O(selected) "
            "returned candidates; selections must be identical across worker "
            "modes",
        )
    )
    print(
        f"\nworker modes — {n_shards} shards, observe cost {observe_cost} "
        "units/candidate:"
    )
    rows = measure_lst_worker_modes(tables, n_shards, days, args.seed, observe_cost)
    _print_rows(rows)
    print(
        "worker-mode selections: "
        + ("identical" if rows["identical_selections"] else "DIVERGED")
    )

    payload = measure_lst_payload(tables, n_shards, args.seed)
    coordinator, worker = payload["coordinator_decide"], payload["worker_decide"]
    print(
        f"\ncold-cycle return payload — decide on coordinator: "
        f"{coordinator['candidates']} candidates / {coordinator['bytes']} B; "
        f"decide in worker: {worker['candidates']} candidates / "
        f"{worker['bytes']} B"
    )

    failures = []
    if not rows["identical_selections"]:
        failures.append("LST process-mode selections diverged from thread mode")
    if worker["candidates"] >= coordinator["candidates"]:
        failures.append("worker-side decide did not shrink the returned candidates")
    if not args.smoke:
        worker_speedup = rows["processes"]["speedup"]
        if cores >= 4:
            if worker_speedup < 1.0:
                failures.append(
                    f"LST process-worker speedup {worker_speedup:.2f}x — "
                    "process mode must not lose to threads"
                )
        else:
            print(f"(worker speedup assertion skipped: only {cores} CPU core(s))")

    if args.json:
        payload_metrics = {
            "lst_worker_speedup": rows["processes"]["speedup"],
            "lst_modes_identical": int(rows["identical_selections"]),
            "lst_selected_total": rows["selected_total"],
            "lst_returned_coordinator_decide": coordinator["candidates"],
            "lst_returned_worker_decide": worker["candidates"],
        }
        blob = {
            "bench": "scaleout_lst",
            "config": {
                "tables": tables,
                "days": days,
                "seed": args.seed,
                "shards": n_shards,
                "smoke": args.smoke,
                "cores": cores,
                "observe_cost": observe_cost,
            },
            "metrics": payload_metrics,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote metrics to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
