"""Shared infrastructure for the reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure from the paper's
evaluation.  The expensive scenario here is the §6 CAB experiment — a
5-simulated-hour, multi-database run per compaction strategy — which
Figures 6, 7, 8 and Table 1 all read from; :func:`cab_run` executes each
strategy once per process and caches the result so the four benches share
it.

Scale note: the paper runs 20 databases × 25 GB on 16 Azure nodes; we run
8 databases × 1 GiB on the simulated engine.  All reproduced claims are
relative (who wins, by what factor, where crossovers fall).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.catalog import Catalog
from repro.core import PeriodicTrigger
from repro.core.pipeline import CycleReport
from repro.core.scheduling import ConcurrentScheduler
from repro.core.service import openhouse_pipeline
from repro.engine import Cluster, EngineSession
from repro.simulation import Simulator
from repro.units import GiB, HOUR, MiB
from repro.workloads import CabConfig, CabWorkload

#: The §6 strategy matrix: label -> (generation, top-k).
CAB_STRATEGIES: dict[str, tuple[str, int] | None] = {
    "none": None,
    "table-10": ("table", 10),
    "hybrid-50": ("hybrid", 50),
    "hybrid-500": ("hybrid", 500),
}

#: Paper-matching MOOP weights.
BENEFIT_WEIGHT = 0.7


def cab_scheduler(generation: str) -> ConcurrentScheduler:
    """The act-phase scheduler for a CAB strategy run.

    The §6 benches now go through the scale-out
    :class:`~repro.core.scheduling.ConcurrentScheduler` with parameters
    that preserve the paper's scheduling semantics on the Iceberg v1.2.0
    profile (table-serial chains, since distinct-partition rewrites of one
    table conflict there):

    * ``hybrid`` — all table chains launch concurrently, partitions of one
      table stay sequential: exactly the paper's hybrid-strategy
      behaviour (and ``openhouse_pipeline(generation="hybrid")``'s default);
    * ``table`` — chains launch one at a time (``max_parallelism=1``),
      matching the shared-cluster sequential ordering previously expressed
      with ``SequentialScheduler``.
    """
    return ConcurrentScheduler(
        table_serial=True, max_parallelism=1 if generation == "table" else None
    )


def banner(title: str, paper: str) -> str:
    """Standard header printed by every bench: experiment + paper claim."""
    line = "=" * 78
    return f"\n{line}\n{title}\nPaper: {paper}\n{line}"


@dataclass
class CabRunResult:
    """Everything the CAB-derived benches need from one strategy run."""

    strategy: str
    catalog: Catalog
    workload: CabWorkload
    reports: list[CycleReport]
    makespan_s: float


def _cab_config() -> CabConfig:
    return CabConfig(
        databases=8,
        data_bytes_per_db=1 * GiB,
        duration_s=5 * HOUR,
        # dbgen ship dates span ~7 years: 84 monthly partitions, making the
        # hybrid top-500 selection genuinely constrained (8x84 lineitem
        # partitions + 56 table-scope units > 500), as at paper scale.
        lineitem_months=84,
        ro_rate_per_hour=5.0,
        rw_rate_per_hour=2.0,
        write_spike_hour=4.0,
        spike_events_per_db=3.0,
        insert_bytes_mean=48 * MiB,
        shuffle_partitions=48,
        sample_interval_s=600.0,
        seed=424242,
    )


@functools.lru_cache(maxsize=None)
def cab_run(strategy: str) -> CabRunResult:
    """Run the §6 CAB experiment under one compaction strategy (cached).

    Args:
        strategy: one of :data:`CAB_STRATEGIES`.

    Returns:
        The completed run, including the catalog (telemetry) and AutoComp
        cycle reports.
    """
    if strategy not in CAB_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected {list(CAB_STRATEGIES)}")
    config = _cab_config()
    catalog = Catalog()
    session = EngineSession(
        Cluster("query", executors=15, cores_per_executor=8),
        telemetry=catalog.telemetry,
        clock=catalog.clock,
        seed=config.seed,
    )
    session.attach_filesystem(catalog.fs)
    workload = CabWorkload(catalog, session, config)
    workload.load()
    simulator = Simulator(catalog.clock)
    workload.attach(simulator)

    reports: list[CycleReport] = []
    if CAB_STRATEGIES[strategy] is not None:
        generation, k = CAB_STRATEGIES[strategy]
        # Hybrid runs use the §3.3 write-activity filter at partition
        # granularity: hot partitions are skipped, which is what keeps the
        # hybrid strategies free of cluster-side conflicts in Table 1.
        quiesce = 45 * 60.0 if generation == "hybrid" else 0.0
        pipeline = openhouse_pipeline(
            catalog,
            compaction_cluster=Cluster("compaction", executors=3),
            generation=generation,
            k=k,
            benefit_weight=BENEFIT_WEIGHT,
            min_table_age_s=0.0,
            quiesce_s=quiesce,
            scheduler=cab_scheduler(generation),
        )
        trigger = PeriodicTrigger(pipeline, HOUR, until=config.duration_s).attach(simulator)
        reports = trigger.reports

    simulator.run_until(config.duration_s + HOUR)
    return CabRunResult(
        strategy=strategy,
        catalog=catalog,
        workload=workload,
        reports=reports,
        makespan_s=max(workload.counters.last_completion, config.duration_s),
    )


def hourly_file_counts(result: CabRunResult) -> list[float]:
    """End-of-hour data-file counts for a CAB run (Figure 6 series)."""
    series = result.catalog.telemetry.series("cab.data_file_count")
    return [
        value
        for _, value in series.bucket(HOUR, end=_cab_config().duration_s, agg="last")
    ]


def hourly_latencies(result: CabRunResult, label: str) -> list[list[float]]:
    """Per-hour query latencies for a CAB run (Figure 8 candlesticks)."""
    series = result.catalog.telemetry.series(f"engine.query.{label}.latency")
    duration = _cab_config().duration_s
    return [series.between(h * HOUR, (h + 1) * HOUR) for h in range(int(duration // HOUR))]
