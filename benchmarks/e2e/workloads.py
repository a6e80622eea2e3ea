"""Seed-deterministic workload episodes for the end-to-end benchmark.

An *episode* is one fixed amount of work: build the inputs from the seed,
set the system up (catalog, pipeline, worker pool, warm-up), then run a
measured window of *rounds*.  A round is the work between two compaction
cycles, cycle included: user appends, the cycle, and the control-plane
calls that ride along.  The same seed gives the same inputs, the same
operations in the same order and the same decisions, so the episodes of
one run produce aligned timing samples — sample ``i`` of every episode
times the same operation — and the same decision digest.  Another seed
writes the files in another order but the same bytes to each partition
(see :func:`stratified`), so it reaches the same decisions too.

Every workload is a closed loop driven by one thread: the next write or
cycle starts when the previous one returned, with no wall-clock pacing and
the garbage collector left on.  Simulated time (the catalog clock) moves
only when the workload advances it.

* ``ingest_stream`` makes the storage substrate and LST commit do most of
  the work: Arc-rate minute appends into hourly partitions, hybrid
  compaction racing them in simulated time.
* ``fleet_cycle`` makes the control plane do most of the work: a
  two-shard process-worker sharded pipeline over dozens of tables with a
  CPU-bound observe cost.
* ``daemon_durable`` makes the durability and operator surfaces do most
  of the work: lock files and their audit log, admission quotas, a
  tracer, a metrics export every cycle and policy shadow evaluations.

This module imports only the standard library, numpy and ``repro``, so
editing another benchmark script can never move this benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.catalog import Catalog, DataServices, TablePolicy
from repro.core import (
    AdmissionController,
    AutoCompDaemon,
    AutoCompService,
    ConcurrentScheduler,
    IndexedCandidateCache,
    LockManager,
    PolicyPromoter,
    PolicyStore,
    openhouse_pipeline,
    openhouse_sharded_pipeline,
    verify_audit,
    verify_promotions,
)
from repro.core.locks import LOCK_SUFFIX
from repro.core.traits import Trait
from repro.core.workers import burn_cpu
from repro.engine import Cluster
from repro.lst import (
    Field,
    IdentityTransform,
    MonthTransform,
    PartitionField,
    PartitionSpec,
    Schema,
)
from repro.obs.tracing import Tracer
from repro.replay import PolicyVariant
from repro.simulation.simulator import Simulator
from repro.units import DAY, HOUR, MINUTE

#: The seed a run uses when ``--seed`` is not given.
DEFAULT_SEED = 1

#: Seed of ``fleet_cycle``'s layout (which table holds how many files),
#: fixed so that every ``--seed`` runs the same fleet.
LAYOUT_SEED = 0

#: File-size percentiles of the wikidata-pq dump (SNIPPETS.md snippet 2):
#: (percentile, size in GB), from the minimum to the maximum file.
WIKIDATA_PERCENTILES = (
    (0.0, 0.005),
    (10.0, 0.093),
    (25.0, 0.131),
    (50.0, 0.165),
    (75.0, 0.204),
    (90.0, 0.251),
    (95.0, 0.290),
    (99.0, 0.404),
    (100.0, 0.733),
)

#: Per-workload episode sizes.  ``default`` is what the benchmark measures;
#: ``tiny`` only exercises every code path (the smoke test).  ``rounds``
#: is the window length in compaction cycles.
SIZES = {
    "ingest_stream": {
        "default": {
            "tables": 2,
            "files_per_append": 12,
            "ramp_h": 2,
            "rounds": 120,
            "cycle_min": 10,
            "k": 64,
            "size_scale": 1 / 16,
        },
        "tiny": {
            "tables": 2,
            "files_per_append": 4,
            "ramp_h": 2,
            "rounds": 8,
            "cycle_min": 15,
            "k": 16,
            "size_scale": 1 / 16,
        },
    },
    "fleet_cycle": {
        "default": {
            "tables": 48,
            "min_files": 80,
            "max_files": 240,
            "warmup_cycles": 4,
            "rounds": 120,
            "files_per_append": 4,
            "observe_cost": 600,
            "k": 10,
        },
        "tiny": {
            "tables": 24,
            "min_files": 8,
            "max_files": 24,
            "warmup_cycles": 2,
            "rounds": 6,
            "files_per_append": 4,
            "observe_cost": 20,
            "k": 4,
        },
    },
    "daemon_durable": {
        "default": {
            "databases": 4,
            "tables_per_database": 4,
            "initial_files": 8,
            "files_per_append": 3,
            "warmup_cycles": 3,
            "rounds": 120,
            "promoter_every": 60,
            "rival_every": 7,
            "size_scale": 1 / 32,
        },
        "tiny": {
            "databases": 2,
            "tables_per_database": 4,
            "initial_files": 4,
            "files_per_append": 3,
            "warmup_cycles": 2,
            "rounds": 6,
            "promoter_every": 3,
            "rival_every": 3,
            "size_scale": 1 / 32,
        },
    },
}


def stratified(rng: np.random.Generator, shape) -> np.ndarray:
    """Quantiles in [0, 1): each row the midpoints of equal strata, in a seeded order.

    A row (the last axis) holds one quantile from each of as many equal
    strata as it has entries, shuffled per row.  Every seed gives each
    row the same multiset and moves only which file gets which.  The
    workloads make a row of each unit the compaction planner sums over —
    an hourly partition, an append — so the planner sees the same bytes
    and makes the same decisions on every seed, while each seed still
    writes the files in another order.
    """
    shape = tuple(np.atleast_1d(shape))
    midpoints = (np.arange(shape[-1]) + 0.5) / shape[-1]
    return rng.permuted(np.broadcast_to(midpoints, shape), axis=-1)


def wikidata_sizes(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    """File sizes in bytes from the wikidata percentile curve.

    Inverse-CDF sampling of :func:`stratified` quantiles with linear
    interpolation between the published percentiles, scaled by ``scale``:
    the unscaled median (0.165 GB) merges only about three files per
    512 MiB target, which is not the small-file regime compaction exists
    for.
    """
    percentiles = np.array([p for p, _ in WIKIDATA_PERCENTILES])
    sizes_gb = np.array([s for _, s in WIKIDATA_PERCENTILES])
    draws = stratified(rng, shape) * 100.0
    return np.maximum((np.interp(draws, percentiles, sizes_gb) * 1e9 * scale), 1).astype(
        np.int64
    )


#: ``fleet_cycle`` file sizes: mostly small, some already at the 512 MiB target.
FLEET_SIZES = np.array([8, 24, 64, 200, 512], dtype=np.int64) * 1024 * 1024


def fleet_sizes(rng: np.random.Generator, shape) -> np.ndarray:
    """:data:`FLEET_SIZES`, each equally often, in a :func:`stratified` order."""
    picks = (stratified(rng, shape) * len(FLEET_SIZES)).astype(np.int64)
    return FLEET_SIZES[picks]


def timed(call):
    """``call()``'s result and its wall seconds."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class _ProbeRow:
    __slots__ = ("attrs", "name", "number")

    def __init__(self, number: int) -> None:
        self.number = number
        self.name = str(number)
        self.attrs = {"number": number}


def _probe_work(rows: int = 600) -> int:
    objects = [_ProbeRow(i) for i in range(rows)]
    by_name = {row.name: row for row in objects}
    return sum(by_name[str(i)].number for i in range(0, rows, 3))


def probe() -> float:
    """Wall seconds of a fixed piece of plain Python work: the CPU's speed now.

    Builds 600 small objects each holding a string and a dict, indexes
    them by name and looks a third of them up — allocation, attribute and
    dict access, the kind of work the program does — with the garbage
    collector paused (330–750 µs on the machine the bounds were set on).
    The window runs it before and after every round, on the CPU the window
    is pinned to and outside the timing; it uses only the standard
    library, so no change to the program can move it.  The shared
    machine's CPUs switch between speeds up to about 2x apart for seconds
    to minutes at a time, and code slows by more the more memory it
    touches: a probe of 150 sorted tuples slowed by less than the
    program's commits and cycles, one of 2,400 objects by more than its
    cycles.  No single probe tracks the commits; they still slow by more
    than this one.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ObserveCostTrait(Trait):
    """Per-candidate CPU burn standing in for production statistics collection.

    The simulated catalog hands observation ready-made file sizes, so the
    manifest parsing a real connector pays per candidate is absent.  This
    trait burns :func:`~repro.core.workers.burn_cpu` rounds keyed on the
    candidate's file count, identically on the per-object and columnar
    paths, and stores the checksum as an inert trait value that no policy
    objective reads.
    """

    name = "observe_cost_checksum"

    def __init__(self, units: int) -> None:
        self.units = units

    def compute(self, statistics) -> float:
        return float(burn_cpu(self.units, str(statistics.file_count).encode()))

    def compute_columnar(self, block) -> np.ndarray:
        return np.array(
            [
                float(burn_cpu(self.units, str(int(count)).encode()))
                for count in block.column("file_count")
            ],
            dtype=np.float64,
        )


@dataclass
class Episode:
    """What one episode measured and decided.

    Every timing list but ``round_s`` has a twin ``*_round`` holding the
    window round each sample was taken in, whose CPU speed is
    ``round_probe_s``.  The lists are aligned across the episodes of a
    run: entry ``i`` of ``commit_s`` times the same commit in every
    episode, and so on for cycles, control calls and rounds.
    """

    setup_s: float = 0.0
    #: :func:`probe` just before and just after set-up.
    setup_probe_s: list[float] = field(default_factory=list)
    window_s: float = 0.0
    #: Wall seconds of each user append ``commit()`` in the window.
    commit_s: list[float] = field(default_factory=list)
    commit_round: list[int] = field(default_factory=list)
    files_committed: int = 0
    #: Wall seconds of each compaction cycle in the window.
    cycle_s: list[float] = field(default_factory=list)
    cycle_round: list[int] = field(default_factory=list)
    #: Wall seconds of each control-plane call in the window: the cycles,
    #: retention sweeps, exports and promoter steps.
    control_s: list[float] = field(default_factory=list)
    control_round: list[int] = field(default_factory=list)
    #: Wall seconds of each round: appends, cycle and everything between.
    round_s: list[float] = field(default_factory=list)
    #: Geometric mean of the :func:`probe` before and after each round.
    round_probe_s: list[float] = field(default_factory=list)
    candidates: int = 0
    #: Selected keys of each window cycle, in selection order.
    selections: list[list[str]] = field(default_factory=list)
    #: Live data files per table at the end of the window.
    live_files: dict[str, int] = field(default_factory=dict)
    #: Mean live data files per table after each window cycle.
    live_files_mean: list[float] = field(default_factory=list)
    files_reduced: int = 0
    gbhr: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Correctness violations found after the window (empty = correct).
    problems: list[str] = field(default_factory=list)
    #: Workload-side counts the per-layer ledger reports.
    counts: dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over every cycle's selection and the final layout."""
        payload = json.dumps(
            {"selections": self.selections, "live_files": sorted(self.live_files.items())},
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def add_results(self, reports) -> None:
        """Fold compaction outcomes of the window's cycle reports in."""
        for report in reports:
            for result in report.results:
                if result.success:
                    self.files_reduced += result.actual_reduction
                    self.gbhr += result.gbhr
                elif not result.skipped:
                    self.failed += 1  # a compaction lost to a commit conflict


class Workload:
    """One workload: ``setup()``, ``run(episode)``, ``check(episode)``, ``close()``.

    Subclasses build every input from ``seed`` in ``setup`` before any of
    it reaches the program, and implement ``round(index, episode)``: one
    round of the loop, recording into ``episode`` (None during warm-up).
    ``run`` is the measured window of ``size["rounds"]`` rounds.
    ``catalog`` is exposed so the traced run can time the commit hooks on
    its tables; ``connector`` is read for the stats-cache counters.
    """

    name = ""

    def __init__(self, seed: int, size: dict, workdir: str) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.catalog: Catalog | None = None
        self.connector = None
        self.window_reports: list = []
        self._appended: dict[str, int] = {}
        self._tables: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, episode: Episode | None) -> None:
        raise NotImplementedError

    def run(self, episode: Episode) -> None:
        """The measured window: every round timed as a whole, between probes."""
        cache_before = self.connector.cache_counters()
        for index in range(self.size["rounds"]):
            before = probe()
            _, elapsed = timed(functools.partial(self.round, index, episode))
            episode.round_s.append(elapsed)
            episode.round_probe_s.append(math.sqrt(before * probe()))
        cache_after = self.connector.cache_counters()
        if cache_before is not None and cache_after is not None:
            episode.counts["cache_hits"] = cache_after["hits"] - cache_before["hits"]
            episode.counts["cache_misses"] = cache_after["misses"] - cache_before["misses"]

    def close(self) -> None:
        """Release what ``setup`` started (idempotent)."""

    def check(self, episode: Episode) -> None:
        """Account the window's outcomes and check the invariants."""
        episode.add_results(self.window_reports)
        live = {str(t.identifier): t.data_file_count for t in self._tables}
        episode.live_files = live
        episode.counts["live_files_p50"] = float(np.median(list(live.values())))
        for table in self._tables:
            name = str(table.identifier)
            # Compaction rewrites bytes, never drops or invents them.
            if table.total_data_bytes != self._appended[name]:
                episode.problems.append(
                    f"{name}: {table.total_data_bytes} live bytes != "
                    f"{self._appended[name]} appended"
                )
        if episode.gbhr <= 0:
            episode.problems.append("no compaction succeeded in the window")

    def _append(self, table, partition: tuple, sizes, episode: Episode | None) -> None:
        """One user append, timed from the benchmark's side when an episode records."""
        txn = table.new_append()
        for size in sizes:
            txn.add_file(int(size), partition=partition)
        _, elapsed = timed(txn.commit)
        self._appended[str(table.identifier)] += int(sum(sizes))
        if episode is not None:
            episode.commit_s.append(elapsed)
            episode.commit_round.append(len(episode.round_s))
            episode.files_committed += len(sizes)
            episode.attempted += 1

    def _track(self, table) -> None:
        self._tables.append(table)
        self._appended[str(table.identifier)] = 0

    def _control(self, episode: Episode | None, elapsed: float) -> None:
        """Book one control-plane call of the window: its wall time and round."""
        if episode is not None:
            episode.control_s.append(elapsed)
            episode.control_round.append(len(episode.round_s))
            episode.attempted += 1

    def _record_cycle(self, episode: Episode, report, elapsed: float) -> None:
        """Book one window cycle: its wall time, decisions and the layout after it."""
        self._control(episode, elapsed)
        episode.cycle_s.append(elapsed)
        episode.cycle_round.append(len(episode.round_s))
        episode.candidates += report.candidates_generated
        episode.selections.append([str(key) for key in report.selected])
        episode.live_files_mean.append(
            statistics.fmean(table.data_file_count for table in self._tables)
        )
        self.window_reports.append(report)


class IngestStream(Workload):
    """Arc-rate streaming ingest racing hybrid compaction in simulated time.

    Tables in two tenants take one append per simulated minute into an
    hourly identity partition (about 12 files a minute per measurement,
    SNIPPETS.md snippet 1), with file sizes from the wikidata curve scaled
    to a ~10 MiB median.  Hybrid generation with a 15-minute quiescence
    filter compacts each hour's partition once it goes cold, so the
    compaction never races the appends; a table written every minute
    never passes that filter at table scope, and without the filter most
    table-scope rewrites conflict with the appends.  The first ``ramp_h``
    hours are set-up; each round is the next ``cycle_min`` simulated
    minutes, ending with a compaction cycle.
    """

    name = "ingest_stream"

    def setup(self) -> None:
        size = self.size
        rng = np.random.default_rng(self.seed)
        catalog = self.catalog = Catalog()
        self.sim = Simulator(clock=catalog.clock)
        schema = Schema.of(Field("id", "long"), Field("event_hour", "long"))
        spec = PartitionSpec.of(PartitionField("event_hour", IdentityTransform()))
        policy = TablePolicy(snapshot_retention_s=HOUR)
        for tenant in ("tenant0", "tenant1"):
            catalog.create_database(tenant)
        for i in range(size["tables"]):
            self._track(
                catalog.create_table(
                    f"tenant{i % 2}.events{i:02d}", schema, spec=spec, policy=policy
                )
            )
        self.window_start = size["ramp_h"] * HOUR
        self.cycle_s = size["cycle_min"] * MINUTE
        minutes = int((self.window_start + size["rounds"] * self.cycle_s) // MINUTE) + 1
        hours = -(-minutes // 60)
        # One stratified row per hourly partition: every partition gets the
        # same sizes, the seed decides which minute writes which.
        per_hour = wikidata_sizes(
            rng, (size["tables"], hours, 60 * size["files_per_append"]), size["size_scale"]
        )
        self.sizes = per_hour.reshape(size["tables"], hours * 60, -1).transpose(1, 0, 2)
        pipeline = openhouse_pipeline(
            catalog,
            Cluster("maint", executors=4),
            generation="hybrid",
            quiesce_s=15 * MINUTE,
            k=size["k"],
            scheduler=ConcurrentScheduler(table_serial=True),
        )
        self.connector = pipeline.connector
        self.service = AutoCompService(pipeline, interval_s=self.cycle_s)
        self.data_services = DataServices(catalog)
        self.episode: Episode | None = None
        self.sim.every(MINUTE, self._ingest, name="ingest", start=0.0)
        self.sim.every(self.cycle_s, self._cycle, name="autocomp")
        self.sim.every(HOUR, self._retention, name="retention")
        self.sim.run_until(self.window_start)

    def _ingest(self) -> None:
        minute = int(self.sim.now // MINUTE)
        partition = (int(self.sim.now // HOUR),)
        for table, sizes in zip(self._tables, self.sizes[minute]):
            self._append(table, partition, sizes, self.episode)

    def _cycle(self) -> None:
        if self.service.cycle_in_flight():
            return  # the previous cycle's rewrites are still running
        report, elapsed = timed(lambda: self.service.run_cycle(simulator=self.sim))
        if self.episode is not None:
            self._record_cycle(self.episode, report, elapsed)

    def _retention(self) -> None:
        _, elapsed = timed(self.data_services.run_retention)
        self._control(self.episode, elapsed)

    def round(self, index: int, episode: Episode | None) -> None:
        self.episode = episode
        try:
            self.sim.run_until(self.window_start + (index + 1) * self.cycle_s)
        finally:
            self.episode = None


class FleetCycle(Workload):
    """A sharded control plane over dozens of tables, process workers.

    Tables hold 80–240 files each (a quarter of them monthly-partitioned,
    sizes from 8 MiB to the 512 MiB target) behind a two-shard
    ``openhouse_sharded_pipeline`` with process workers, the negotiated
    columnar transport, local selection and the dense candidate cache.
    Each round, a rotating half of the tables takes a 4-file append before
    the cycle, so every cycle sees both cache hits and fresh observations;
    the observe-cost trait makes each fresh observation CPU-bound.
    """

    name = "fleet_cycle"

    def setup(self) -> None:
        size = self.size
        rng = np.random.default_rng(self.seed)
        catalog = self.catalog = Catalog()
        schema = Schema.of(Field("id", "long"), Field("event_date", "date"))
        monthly = PartitionSpec.of(PartitionField("event_date", MonthTransform()))
        catalog.create_database("tenant0")
        catalog.create_database("tenant1")
        # Evenly spread counts in one fixed order: the fleet's layout is the
        # same on every seed, the seed orders the files of each write.
        counts = np.random.default_rng(LAYOUT_SEED).permutation(
            np.linspace(size["min_files"], size["max_files"], size["tables"]).round()
        )
        for i, files in enumerate(counts):
            db = f"tenant{i % 2}"
            if i % 4 == 0:
                # Two monthly partitions share the table's files.
                table = catalog.create_table(f"{db}.part{i:04d}", schema, spec=monthly)
                layout = [((0,), int(files) - int(files) // 2), ((1,), int(files) // 2)]
            else:
                table = catalog.create_table(f"{db}.flat{i:04d}", schema)
                layout = [((), int(files))]
            self._track(table)
            for partition, count in layout:
                self._append(table, partition, fleet_sizes(rng, count), None)
        cycles = size["warmup_cycles"] + size["rounds"]
        self.dirty = max(len(self._tables) // 2, 1)
        # One stratified row per append.
        self.write_sizes = fleet_sizes(rng, (cycles, self.dirty, size["files_per_append"]))
        self.pipeline = openhouse_sharded_pipeline(
            catalog,
            Cluster("maint", executors=2),
            n_shards=2,
            stats_cache=IndexedCandidateCache(),
            selection="local",
            workers="processes",
            max_workers=2,
            k=size["k"],
            min_table_age_s=0.0,
        )
        # Shards share one connector and one trait registry; the burn rides
        # the columnar transport.
        self.connector = self.pipeline.shards[0].connector
        self.pipeline.shards[0].traits.register(ObserveCostTrait(size["observe_cost"]))
        for cycle in range(size["warmup_cycles"]):
            self._writes(cycle, None)
            self.pipeline.run_cycle(now=catalog.clock.now)

    def _writes(self, cycle: int, episode: Episode | None) -> None:
        tables = self._tables
        for offset, sizes in enumerate(self.write_sizes[cycle]):
            table = tables[(cycle * self.dirty + offset) % len(tables)]
            partition = (0,) if table.spec.is_partitioned else ()
            self._append(table, partition, sizes, episode)
        self.catalog.clock.advance_by(DAY)

    def round(self, index: int, episode: Episode | None) -> None:
        self._writes(self.size["warmup_cycles"] + index, episode)
        sharded, elapsed = timed(lambda: self.pipeline.run_cycle(now=self.catalog.clock.now))
        self._record_cycle(episode, sharded.report, elapsed)

    def close(self) -> None:
        pipeline = getattr(self, "pipeline", None)
        if pipeline is not None:
            pipeline.close()


class DaemonDurable(Workload):
    """The durable daemon: locks, admission, tracing, export, shadow evals.

    Small tables in four databases each take a 3-file append before every
    :meth:`~repro.core.daemon.AutoCompDaemon.run_once`, called directly so
    no scheduler thread runs.  The daemon carries a
    :class:`~repro.core.locks.LockManager` in the run's work directory,
    per-database admission quotas, a tracer, and a policy store whose
    promoter shadow-evaluates the candidate pool over the history ring.
    A second lock manager, the rival, holds every ``rival_every``-th
    table's lock on a rotating offset, so lock contention happens on a
    deterministic schedule.  Metrics are exported after every cycle.
    """

    name = "daemon_durable"

    def setup(self) -> None:
        size = self.size
        rng = np.random.default_rng(self.seed)
        catalog = self.catalog = Catalog()
        schema = Schema.of(Field("id", "long"), Field("event_date", "date"))
        for d in range(size["databases"]):
            catalog.create_database(f"db{d}")
            for t in range(size["tables_per_database"]):
                self._track(catalog.create_table(f"db{d}.t{t:02d}", schema))
        tables = len(self._tables)
        # One stratified row per table's initial files and per append.
        initial = wikidata_sizes(rng, (tables, size["initial_files"]), size["size_scale"])
        for table, sizes in zip(self._tables, initial):
            self._append(table, (), sizes, None)
        cycles = size["warmup_cycles"] + size["rounds"]
        self.write_sizes = wikidata_sizes(
            rng, (cycles, tables, size["files_per_append"]), size["size_scale"]
        )
        catalog.clock.advance_by(2 * HOUR)  # age past the recent-table filter
        self.lock_dir = os.path.join(self.workdir, "locks")
        self.store = PolicyStore(os.path.join(self.workdir, "policy"))
        # Admission lets at most two tables per database (eight) through a
        # cycle.  Shadow replays run without admission, so the narrow k wins
        # them and is promoted at the first step on every seed, while the
        # live daemon keeps compacting at about admission capacity either
        # way: promote and guard both run, and the layout stays comparable
        # across seeds.
        boot = PolicyVariant(name="boot-k16", k=16)
        self.store.initialize(
            boot,
            pool=[
                boot,
                PolicyVariant(name="narrow-k8", k=8),
                PolicyVariant(name="wide-k32", k=32),
            ],
        )
        self.promoter = PolicyPromoter(self.store, guard_cycles=3, min_history_cycles=2)
        self.tracer = Tracer()
        service = AutoCompService(openhouse_pipeline(catalog, Cluster("maint", executors=3)))
        self.connector = service.pipeline.connector
        self.daemon = AutoCompDaemon(
            service,
            LockManager(self.lock_dir, owner="daemon"),
            admission=AdmissionController(max_per_database=2),
            tracer=self.tracer,
            obs_dir=os.path.join(self.workdir, "obs"),
            promoter=self.promoter,
        )
        self.promoter.attach(service)
        # A bounded ring keeps each shadow evaluation the same size.
        service.enable_history(segment_cycles=2, max_segments=2)
        self.rival = LockManager(self.lock_dir, owner="rival")
        self.stopped = False
        self.errors_before = 0
        for cycle in range(size["warmup_cycles"]):
            self._cycle(cycle, None)
        self.errors_before = self.daemon.promoter_errors

    def _cycle(self, cycle: int, episode: Episode | None) -> None:
        size = self.size
        self.rival.release_all()
        for i, table in enumerate(self._tables):
            if (i + cycle) % size["rival_every"] == 0:
                self.rival.acquire(str(table.identifier))
        for table, sizes in zip(self._tables, self.write_sizes[cycle]):
            self._append(table, (), sizes, episode)
        self.catalog.clock.advance_by(10 * MINUTE)
        daemon = self.daemon
        report, elapsed = timed(daemon.run_once)
        if episode is not None and report is None:
            self._control(episode, elapsed)
            episode.failed += 1  # the daemon swallowed a raising cycle
        elif episode is not None:
            self._record_cycle(episode, report, elapsed)
        self._control(episode, timed(daemon.exporter.export_once)[1])
        if (cycle + 1) % size["promoter_every"] == 0:
            self._control(episode, timed(daemon.run_promoter_once)[1])

    def round(self, index: int, episode: Episode | None) -> None:
        self._cycle(self.size["warmup_cycles"] + index, episode)

    def check(self, episode: Episode) -> None:
        episode.failed += self.daemon.promoter_errors - self.errors_before
        episode.counts.update(
            {
                "shadow_evals": self.promoter.shadow_evals,
                "promotions": self.promoter.promotions,
                "rollbacks": self.promoter.rollbacks,
                "spans": len(self.tracer.finished()),
            }
        )
        self.close()  # graceful stop releases every daemon lock before the audit
        super().check(episode)
        summary = verify_audit(self.lock_dir)
        episode.problems.extend(f"lock audit: {v}" for v in summary.violations)
        if summary.compact_commits == 0:
            episode.problems.append("lock audit saw no compaction commit")
        promotions = verify_promotions(self.store.store_dir)
        episode.problems.extend(f"promotion audit: {v}" for v in promotions.violations)
        leftover = [n for n in os.listdir(self.lock_dir) if n.endswith(LOCK_SUFFIX)]
        if leftover:
            episode.problems.append(f"locks left behind: {leftover}")
        if self.promoter.shadow_evals == 0:
            episode.problems.append("the promoter never shadow-evaluated")

    def close(self) -> None:
        if getattr(self, "stopped", True):
            return
        self.stopped = True
        self.rival.close()
        self.daemon.stop()


WORKLOADS = {cls.name: cls for cls in (IngestStream, FleetCycle, DaemonDurable)}


@contextlib.contextmanager
def pinned():
    """Keep the benchmark thread on one CPU, so :func:`probe` runs where the work does.

    The CPUs of a shared virtual machine change speed independently; a
    thread the kernel moves between them would be probed on one and
    timed on another.  Worker processes started earlier keep every CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(home)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)


def run_episode(
    name: str, seed: int, size: str, workdir: str, before_window=None, after_window=None
) -> Episode:
    """Set one episode up, run its window, check it, tear it down.

    ``before_window(workload)`` and ``after_window(workload, episode)`` run
    right around the window, outside every timing — the traced run
    installs its per-episode hooks before and reads its ledger after.
    """
    workload = WORKLOADS[name](seed, SIZES[name][size], workdir)
    episode = Episode()
    try:
        episode.setup_probe_s.append(probe())
        start = time.perf_counter()
        workload.setup()
        episode.setup_s = time.perf_counter() - start
        episode.setup_probe_s.append(probe())
        if before_window is not None:
            before_window(workload)
        gc.collect()  # every window starts from the same heap
        with pinned():
            start = time.perf_counter()
            workload.run(episode)
            episode.window_s = time.perf_counter() - start
        if after_window is not None:
            after_window(workload, episode)
        workload.check(episode)
    finally:
        workload.close()
    return episode
