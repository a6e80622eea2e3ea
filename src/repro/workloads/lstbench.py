"""LST-Bench-like phase runner and the §6.3 auto-tuning workloads.

LST-Bench structures benchmarks as *phases* over LSTs; the paper extends it
with CAB streams and uses three of its built-in workloads to tune
optimize-after-write trigger thresholds on Delta Lake v2.4.0:

* **TPC-DS WP1** — a long-running single-cluster workload with frequent
  data modifications; compaction helps when tables get too fragmented
  (up to ~2× in Figure 9a).
* **TPC-DS WP3** — one cluster handles all writes (and compaction),
  another all reads; decoupling removes contention so compaction is
  consistently beneficial (Figure 9d).
* **TPC-H** — unpartitioned tables and a dominant data-modification phase;
  compaction must rewrite whole tables, so *no* auto-compaction is best
  (Figure 9b).

Each ``run_*`` function builds a fresh world, executes the phases while an
optional :class:`~repro.core.triggers.OptimizeAfterWriteHook` watches every
write, and returns an :class:`LstBenchRun` whose total duration is the
auto-tuner's objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.core.connectors import LstConnector
from repro.core.scheduling import LstExecutionBackend
from repro.core.traits import Trait
from repro.core.triggers import OptimizeAfterWriteHook
from repro.engine.cluster import Cluster
from repro.engine.cost_model import CostModel
from repro.engine.session import EngineSession
from repro.engine.writers import MisconfiguredShuffleWriter, WellTunedWriter
from repro.errors import ValidationError
from repro.lst.base import BaseTable
from repro.simulation.rng import derive_rng
from repro.units import MiB
from repro.workloads.tpcds import create_tpcds_database
from repro.workloads.tpch import create_tpch_database


@dataclass(frozen=True)
class PhaseResult:
    """Timing record for one benchmark phase."""

    name: str
    duration_s: float
    operations: int
    compactions: int = 0


@dataclass
class LstBenchRun:
    """Timing record for a full benchmark execution."""

    workload: str
    phases: list[PhaseResult] = field(default_factory=list)

    @property
    def total_duration_s(self) -> float:
        """End-to-end duration — the auto-tuning objective."""
        return sum(p.duration_s for p in self.phases)


class _World:
    """Shared construction for the three tuning workloads."""

    def __init__(
        self,
        seed: int,
        table_format: str,
        query_cluster: Cluster,
        write_cluster: Cluster | None = None,
    ) -> None:
        self.catalog = Catalog()
        # Calibrated for the §6.3 scale point (SF 100 on 16 nodes, where
        # per-file overheads dominate scan bandwidth): task startup and the
        # columnar small-read floor are heavier than the global defaults,
        # and OPTIMIZE startup is lighter since LST-Bench reuses a warm
        # session for maintenance calls.
        self.cost_model = CostModel(
            compaction_startup_s=5.0,
            task_overhead_s=0.3,
            small_read_floor=32 * MiB,
        )
        self.query_session = EngineSession(
            query_cluster,
            cost_model=self.cost_model,
            telemetry=self.catalog.telemetry,
            clock=self.catalog.clock,
            seed=seed,
        )
        if write_cluster is not None:
            self.write_session = EngineSession(
                write_cluster,
                cost_model=self.cost_model,
                telemetry=self.catalog.telemetry,
                clock=self.catalog.clock,
                seed=seed + 1,
            )
        else:
            self.write_session = self.query_session
        self.table_format = table_format
        self.rng = derive_rng(seed, "lstbench")

    def make_hook(
        self, trait: Trait | None, threshold: float, compaction_cluster: Cluster
    ) -> OptimizeAfterWriteHook | None:
        if trait is None:
            return None
        connector = LstConnector(self.catalog)
        backend = LstExecutionBackend(connector, compaction_cluster, self.cost_model)
        return OptimizeAfterWriteHook(
            connector=connector, trait=trait, threshold=threshold, backend=backend
        )


def _hook_write(
    session: EngineSession,
    hook: OptimizeAfterWriteHook | None,
    table: BaseTable,
    volume: int,
    writer,
    partitions,
) -> tuple[float, int]:
    """One write plus the hook evaluation; returns (duration, compactions)."""
    result = session.write(table, volume, writer, partitions=partitions, label="rw")
    duration = result.latency_s
    compactions = 0
    if hook is not None:
        decision = hook.on_write(table)
        if decision.triggered and decision.result is not None and decision.result.success:
            duration += decision.result.duration_s
            compactions = 1
    session.clock.advance_by(duration)
    return duration, compactions


def _query_phase(
    session: EngineSession, tables: list[BaseTable], count: int, rng
) -> tuple[float, int]:
    """``count`` sequential scan queries over random tables."""
    total = 0.0
    for _ in range(count):
        table = tables[int(rng.integers(0, len(tables)))]
        result = session.execute_read([(table, None)], label="ro")
        total += result.latency_s
        session.clock.advance_by(result.latency_s)
    return total, count


def run_wp1(
    trigger_trait: Trait | None = None,
    threshold: float = 0.0,
    scale_factor: float = 2.0,
    cycles: int = 6,
    writes_per_cycle: int = 10,
    queries_per_cycle: int = 16,
    seed: int = 11,
    table_format: str = "delta",
) -> LstBenchRun:
    """TPC-DS WP1: alternating modification and query phases, one cluster.

    Args:
        trigger_trait: optimize-after-write trigger trait (None disables
            auto-compaction — the tuner's "default" iteration).
        threshold: trigger threshold for the trait.
        scale_factor: TPC-DS scale (§6.3 uses SF 100 on 16 nodes).
        cycles: modification+query cycles.
        writes_per_cycle: mis-tuned incremental writes per cycle.
        queries_per_cycle: scan queries per cycle.
        seed: determinism root.
        table_format: LST profile (§6.3 ran Delta Lake v2.4.0).
    """
    if cycles <= 0:
        raise ValidationError("cycles must be positive")
    cluster = Cluster("wp1", executors=16, cores_per_executor=8)
    world = _World(seed, table_format, cluster)
    hook = world.make_hook(trigger_trait, threshold, cluster)
    tables = create_tpcds_database(
        world.catalog,
        "tpcds",
        scale_factor,
        world.query_session,
        WellTunedWriter(),
        table_format=table_format,
    )
    facts = [t for name, t in tables.items() if t.spec.is_partitioned]
    writer = MisconfiguredShuffleWriter(num_partitions=128)
    run = LstBenchRun(workload="tpcds-wp1")
    for cycle in range(cycles):
        duration = 0.0
        compactions = 0
        for _ in range(writes_per_cycle):
            fact = facts[int(world.rng.integers(0, len(facts)))]
            volume = max(1, int(fact.total_data_bytes * 0.02))
            months = fact.partitions()
            d, c = _hook_write(
                world.query_session, hook, fact, volume, writer, months[-3:] or months
            )
            duration += d
            compactions += c
        run.phases.append(
            PhaseResult(f"modify-{cycle}", duration, writes_per_cycle, compactions)
        )
        q_duration, q_ops = _query_phase(
            world.query_session, list(tables.values()), queries_per_cycle, world.rng
        )
        run.phases.append(PhaseResult(f"query-{cycle}", q_duration, q_ops))
    return run


def run_wp3(
    trigger_trait: Trait | None = None,
    threshold: float = 0.0,
    scale_factor: float = 2.0,
    cycles: int = 6,
    writes_per_cycle: int = 10,
    queries_per_cycle: int = 16,
    seed: int = 13,
    table_format: str = "delta",
) -> LstBenchRun:
    """TPC-DS WP3: a write cluster (plus a sidecar for compaction) and a
    separate read cluster running concurrently.

    Per cycle the two clusters proceed in parallel, so the cycle's duration
    is the maximum of the write-side time (including hook compactions) and
    the read-side time — decoupling that makes compaction consistently
    beneficial in Figure 9d.
    """
    if cycles <= 0:
        raise ValidationError("cycles must be positive")
    read_cluster = Cluster("wp3-read", executors=16, cores_per_executor=8)
    write_cluster = Cluster("wp3-write", executors=7, cores_per_executor=8)
    world = _World(seed, table_format, read_cluster, write_cluster)
    hook = world.make_hook(trigger_trait, threshold, write_cluster)
    tables = create_tpcds_database(
        world.catalog,
        "tpcds",
        scale_factor,
        world.write_session,
        WellTunedWriter(),
        table_format=table_format,
    )
    facts = [t for t in tables.values() if t.spec.is_partitioned]
    writer = MisconfiguredShuffleWriter(num_partitions=128)
    run = LstBenchRun(workload="tpcds-wp3")
    for cycle in range(cycles):
        write_time = 0.0
        compactions = 0
        for _ in range(writes_per_cycle):
            fact = facts[int(world.rng.integers(0, len(facts)))]
            volume = max(1, int(fact.total_data_bytes * 0.02))
            months = fact.partitions()
            result = world.write_session.write(
                fact, volume, writer, partitions=months[-3:] or months, label="rw"
            )
            write_time += result.latency_s
            if hook is not None:
                decision = hook.on_write(fact)
                if (
                    decision.triggered
                    and decision.result is not None
                    and decision.result.success
                ):
                    write_time += decision.result.duration_s
                    compactions += 1
        read_time = 0.0
        for _ in range(queries_per_cycle):
            table = list(tables.values())[int(world.rng.integers(0, len(tables)))]
            result = world.query_session.execute_read([(table, None)], label="ro")
            read_time += result.latency_s
        cycle_duration = max(write_time, read_time)
        world.catalog.clock.advance_by(cycle_duration)
        run.phases.append(
            PhaseResult(
                f"cycle-{cycle}",
                cycle_duration,
                writes_per_cycle + queries_per_cycle,
                compactions,
            )
        )
    return run


def run_tpch(
    trigger_trait: Trait | None = None,
    threshold: float = 0.0,
    scale_factor: float = 1.0,
    modification_rounds: int = 12,
    queries: int = 12,
    seed: int = 17,
    table_format: str = "delta",
) -> LstBenchRun:
    """TPC-H: unpartitioned tables, modification-heavy (Figure 9b).

    Compaction must rewrite entire non-partitioned tables, making each
    trigger expensive, while the long data-modification phase dominates the
    runtime anyway — so the no-compaction default wins.
    """
    if modification_rounds <= 0:
        raise ValidationError("modification_rounds must be positive")
    cluster = Cluster("tpch", executors=16, cores_per_executor=8)
    world = _World(seed, table_format, cluster)
    hook = world.make_hook(trigger_trait, threshold, cluster)
    tables = create_tpch_database(
        world.catalog,
        "tpch",
        scale_factor,
        world.query_session,
        WellTunedWriter(),
        table_format=table_format,
        partition_lineitem=False,
    )
    targets = [tables["lineitem"], tables["orders"]]
    writer = MisconfiguredShuffleWriter(num_partitions=32)
    run = LstBenchRun(workload="tpch")
    duration = 0.0
    compactions = 0
    for _ in range(modification_rounds):
        table = targets[int(world.rng.integers(0, len(targets)))]
        volume = max(1, int(table.total_data_bytes * 0.03))
        d, c = _hook_write(world.query_session, hook, table, volume, writer, None)
        duration += d
        compactions += c
    run.phases.append(
        PhaseResult("modify", duration, modification_rounds, compactions)
    )
    q_duration, q_ops = _query_phase(
        world.query_session, list(tables.values()), queries, world.rng
    )
    run.phases.append(PhaseResult("query", q_duration, q_ops))
    return run
