"""Vectorised fleet state and fragmentation processes.

Each table's live files are summarised in three size classes:

* **tiny** — below 128 MiB (the paper's small-file reporting threshold);
* **mid** — 128 MiB to the 512 MiB target;
* **large** — at or above target.

The ΔF_c estimator counts tiny+mid (files below target); the storage-health
metric of Figure 2 is the tiny share.  Tables belong to archetypes that
mirror §2's populations: centrally managed raw ingestion (well-sized, high
volume), hot derived tables (trickle/CDC writers — fast tiny-file growth),
batch derived tables (bursty moderate growth), and static tables.

Compaction applies the *partition-boundary* reality of §7: only a fraction
of a table's small files can actually merge (they must share partitions),
so realised reduction falls short of the table-level estimate (~28% in the
paper), while realised compute cost overshoots the GBHr estimate (~19%).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.simulation.rng import derive_rng
from repro.simulation.taps import TapBus
from repro.units import DAY, GiB, MiB, SMALL_FILE_THRESHOLD, DEFAULT_TARGET_FILE_SIZE


class Archetype(enum.IntEnum):
    """Table population archetypes (§2's workload mix)."""

    RAW_INGESTION = 0
    DERIVED_HOT = 1
    DERIVED_BATCH = 2
    STATIC = 3


#: Default archetype mix (fractions of onboarded tables).
DEFAULT_ARCHETYPE_MIX: dict[Archetype, float] = {
    Archetype.RAW_INGESTION: 0.15,
    Archetype.DERIVED_HOT: 0.30,
    Archetype.DERIVED_BATCH: 0.35,
    Archetype.STATIC: 0.20,
}

#: Per-archetype (tiny files/day, mid files/day, large files/day) growth means.
_GROWTH_RATES: dict[Archetype, tuple[float, float, float]] = {
    Archetype.RAW_INGESTION: (0.5, 0.3, 2.0),
    Archetype.DERIVED_HOT: (14.0, 1.2, 0.1),
    Archetype.DERIVED_BATCH: (5.0, 0.8, 0.3),
    Archetype.STATIC: (0.15, 0.02, 0.0),
}

#: Per-archetype daily read frequency (scans/day) means.
_READ_FREQ: dict[Archetype, float] = {
    Archetype.RAW_INGESTION: 6.0,
    Archetype.DERIVED_HOT: 10.0,
    Archetype.DERIVED_BATCH: 4.0,
    Archetype.STATIC: 0.5,
}

#: Mean sizes of newly written files per class.
TINY_MEAN_BYTES = 24 * MiB
MID_MEAN_BYTES = 256 * MiB
LARGE_MEAN_BYTES = 512 * MiB


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of a fleet simulation."""

    #: Tables live at day 0.
    initial_tables: int = 2000
    #: Tables onboarded per 30-day month (deployment growth, Figure 10c).
    onboarded_per_month: int = 250
    #: Tenant databases tables are spread across.
    databases: int = 40
    #: Namespace-object quota per database (drives §7's w₁ weight).
    quota_objects_per_db: int = 400_000
    #: Compaction target size.
    target_file_size: int = DEFAULT_TARGET_FILE_SIZE
    #: Memory term of the GBHr estimator.
    executor_memory_gb: float = 192.0
    #: Throughput term of the GBHr estimator (768 GiB rewritten per hour).
    rewrite_bytes_per_hour: float = 768 * GiB
    #: Mean fraction of a table's small files that actually merge
    #: (partition-boundary efficiency; yields the ~28% overestimate).
    merge_efficiency_mean: float = 0.88
    merge_efficiency_sd: float = 0.08
    #: Log-normal multiplier on realised cost (yields the ~19% underestimate).
    cost_noise_mu: float = 0.17
    cost_noise_sigma: float = 0.10
    #: Root seed.
    seed: int = 123

    def __post_init__(self) -> None:
        if self.initial_tables <= 0:
            raise ValidationError("initial_tables must be positive")
        if self.databases <= 0:
            raise ValidationError("databases must be positive")
        if not 0 < self.merge_efficiency_mean <= 1:
            raise ValidationError("merge_efficiency_mean must be in (0, 1]")


@dataclass(frozen=True)
class ObserveView:
    """Per-day observation columns, unboxed to plain Python lists.

    Shared by every shard of the scale-out control plane within one cycle:
    the vectorised derivations and the numpy→Python conversion happen once
    per :attr:`FleetModel.mutation_tick`, so per-shard batch observation is
    pure list indexing with no per-call numpy overhead.
    """

    files: list[int]
    small_files: list[int]
    small_bytes: list[int]
    total_bytes: list[int]
    created_s: list[float]
    modified_s: list[float]
    quota: list[float]
    versions: list[int]

    #: Column names, in declaration order (what :meth:`take` copies).
    COLUMNS = (
        "files",
        "small_files",
        "small_bytes",
        "total_bytes",
        "created_s",
        "modified_s",
        "quota",
        "versions",
    )

    def take(self, indices: list[int]) -> "ObserveView":
        """The view restricted to ``indices``, row for row.

        Everything inside is a plain Python list, so the result is a
        picklable connector snapshot — exactly what a
        :class:`~repro.core.workers.ShardWorkSpec` ships to a shard worker
        process: only the dirty slice crosses the boundary, never the
        whole fleet.
        """
        picked = {}
        for name in self.COLUMNS:
            column = getattr(self, name)
            picked[name] = [column[i] for i in indices]
        return ObserveView(**picked)


#: Per-table state columns, in canonical order.  One name per array attribute
#: of :class:`FleetModel`; capacity growth, trace capture
#: (:mod:`repro.replay`) and snapshot/restore all iterate this list so the
#: three can never drift apart.
TABLE_COLUMNS = (
    "archetype",
    "database",
    "created_day",
    "last_write_day",
    "tiny_files",
    "mid_files",
    "large_files",
    "tiny_bytes",
    "mid_bytes",
    "large_bytes",
    "growth_tiny",
    "growth_mid",
    "growth_large",
    "read_freq",
    "merge_efficiency",
    "stats_version",
)

#: The per-class file/byte state rewritten by a compaction (the payload of a
#: recorded ``compact`` event, and the input of :meth:`FleetModel.apply_compact_state`).
COMPACT_STATE_FIELDS = (
    "tiny_files",
    "mid_files",
    "large_files",
    "tiny_bytes",
    "mid_bytes",
    "large_bytes",
    "stats_version",
)


@dataclass
class FleetSnapshot:
    """A restorable copy of a :class:`FleetModel`'s full state.

    Columns are defensive copies, so one snapshot supports any number of
    :meth:`FleetModel.restore` calls — the Policy Lab restores the same
    snapshot once per policy variant it evaluates.
    """

    count: int
    day: int
    mutation_tick: int
    columns: dict[str, np.ndarray]
    rng_state: dict


@dataclass
class CompactionApplication:
    """Realised outcome of compacting one fleet table."""

    table_index: int
    estimated_reduction: float
    actual_reduction: int
    estimated_gbhr: float
    actual_gbhr: float
    rewritten_bytes: int


class FleetModel:
    """Numpy-backed state of every table in the fleet."""

    def __init__(
        self,
        config: FleetConfig,
        taps: TapBus | None = None,
        onboard_initial: bool = True,
    ) -> None:
        """Build a fleet.

        Args:
            config: fleet parameters.
            taps: optional event bus; when given, the model publishes
                ``onboard`` / ``day`` / ``compact`` events carrying the full
                realised state change (what a
                :class:`~repro.replay.recorder.TraceRecorder` serializes).
            onboard_initial: onboard ``config.initial_tables`` immediately
                (the normal path).  Trace replay passes False and rebuilds
                the population from recorded ``onboard`` events instead.
        """
        self.config = config
        self.taps = taps
        self._rng = derive_rng(config.seed, "fleet-model")
        capacity = config.initial_tables
        self.count = 0
        self.day = 0

        self.archetype = np.zeros(capacity, dtype=np.int64)
        self.database = np.zeros(capacity, dtype=np.int64)
        self.created_day = np.zeros(capacity, dtype=np.int64)
        self.last_write_day = np.zeros(capacity, dtype=np.int64)
        self.tiny_files = np.zeros(capacity, dtype=np.int64)
        self.mid_files = np.zeros(capacity, dtype=np.int64)
        self.large_files = np.zeros(capacity, dtype=np.int64)
        self.tiny_bytes = np.zeros(capacity, dtype=np.int64)
        self.mid_bytes = np.zeros(capacity, dtype=np.int64)
        self.large_bytes = np.zeros(capacity, dtype=np.int64)
        self.growth_tiny = np.zeros(capacity, dtype=np.float64)
        self.growth_mid = np.zeros(capacity, dtype=np.float64)
        self.growth_large = np.zeros(capacity, dtype=np.float64)
        self.read_freq = np.zeros(capacity, dtype=np.float64)
        self.merge_efficiency = np.zeros(capacity, dtype=np.float64)
        #: Per-table change counter: bumped on every write day and every
        #: compaction.  Connectors use it as a freshness token for the
        #: incremental-observation cache (O(dirty) observe cycles).
        self.stats_version = np.zeros(capacity, dtype=np.int64)
        #: Whole-model mutation counter (any step/compact/onboard); keys
        #: the memoised :meth:`observe_view`.
        self.mutation_tick = 0
        self._observe_view: tuple[int, ObserveView] | None = None

        if onboard_initial:
            self.onboard(config.initial_tables)

    # --- population -----------------------------------------------------------

    def _ensure_capacity(self, extra: int) -> None:
        capacity = len(self.archetype)
        if self.count + extra <= capacity:
            return
        new_capacity = max(capacity * 2, self.count + extra)
        for name in TABLE_COLUMNS:
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=old.dtype)
            grown[: self.count] = old[: self.count]
            setattr(self, name, grown)

    def onboard(self, n: int) -> None:
        """Onboard ``n`` new tables with archetype-mixed initial state."""
        if n <= 0:
            return
        self._ensure_capacity(n)
        rng = self._rng
        start, end = self.count, self.count + n
        kinds = list(DEFAULT_ARCHETYPE_MIX)
        probs = np.array([DEFAULT_ARCHETYPE_MIX[k] for k in kinds])
        chosen = rng.choice(len(kinds), size=n, p=probs / probs.sum())
        self.archetype[start:end] = [int(kinds[c]) for c in chosen]
        self.database[start:end] = rng.integers(0, self.config.databases, size=n)
        self.created_day[start:end] = self.day
        self.last_write_day[start:end] = self.day

        for i in range(start, end):
            kind = Archetype(self.archetype[i])
            g_tiny, g_mid, g_large = _GROWTH_RATES[kind]
            # Heavy-tailed per-table scale: production fragmentation is
            # highly skewed — a few hundred tables hold most small files
            # (the paper's worst offenders averaged 42M files each).
            scale = float(rng.lognormal(0.0, 1.5))
            self.growth_tiny[i] = g_tiny * scale
            self.growth_mid[i] = g_mid * scale
            self.growth_large[i] = g_large * scale
            self.read_freq[i] = _READ_FREQ[kind] * float(rng.lognormal(0.0, 0.4))
            self.merge_efficiency[i] = float(
                np.clip(
                    rng.normal(
                        self.config.merge_efficiency_mean,
                        self.config.merge_efficiency_sd,
                    ),
                    0.3,
                    1.0,
                )
            )
            # Existing tables arrive with history: ~60 days of accumulation.
            backlog = rng.uniform(10, 90)
            self.tiny_files[i] = int(self.growth_tiny[i] * backlog)
            self.mid_files[i] = int(self.growth_mid[i] * backlog)
            self.large_files[i] = int(self.growth_large[i] * backlog) + 1
        count = end - start
        self.tiny_bytes[start:end] = (
            self.tiny_files[start:end]
            * rng.uniform(0.5, 1.5, size=count)
            * TINY_MEAN_BYTES
        ).astype(np.int64)
        self.mid_bytes[start:end] = (
            self.mid_files[start:end]
            * rng.uniform(0.8, 1.2, size=count)
            * MID_MEAN_BYTES
        ).astype(np.int64)
        self.large_bytes[start:end] = (
            self.large_files[start:end]
            * rng.uniform(0.9, 1.3, size=count)
            * LARGE_MEAN_BYTES
        ).astype(np.int64)
        self.count = end
        self.mutation_tick += 1
        if self.taps is not None and self.taps.has_subscribers("onboard"):
            self.taps.publish(
                "onboard",
                {
                    "day": self.day,
                    "start": start,
                    "count": n,
                    "columns": {
                        name: getattr(self, name)[start:end].tolist()
                        for name in TABLE_COLUMNS
                    },
                },
            )

    def load_tables(self, columns: dict[str, list]) -> None:
        """Append tables with explicit per-table state (trace replay).

        The deterministic counterpart of :meth:`onboard`: instead of
        sampling archetypes and backlogs, every :data:`TABLE_COLUMNS` value
        is supplied by the caller — typically from a recorded ``onboard``
        event — so the resulting population is bit-identical to the one the
        source run drew.

        Args:
            columns: name → per-table values; all :data:`TABLE_COLUMNS`
                keys are required and must share one length.
        """
        missing = [name for name in TABLE_COLUMNS if name not in columns]
        if missing:
            raise ValidationError(f"load_tables missing columns: {missing}")
        lengths = {len(columns[name]) for name in TABLE_COLUMNS}
        if len(lengths) != 1:
            raise ValidationError(f"load_tables column lengths differ: {sorted(lengths)}")
        n = lengths.pop()
        if n == 0:
            return
        self._ensure_capacity(n)
        start, end = self.count, self.count + n
        for name in TABLE_COLUMNS:
            array = getattr(self, name)
            array[start:end] = np.asarray(columns[name], dtype=array.dtype)
        self.count = end
        self.mutation_tick += 1

    # --- daily dynamics -------------------------------------------------------------

    def step_day(self) -> None:
        """Advance one day: every table accumulates new files."""
        n = self.count
        rng = self._rng
        new_tiny = rng.poisson(self.growth_tiny[:n])
        new_mid = rng.poisson(self.growth_mid[:n])
        new_large = rng.poisson(self.growth_large[:n])
        self._grow(new_tiny, new_mid, new_large)

    def apply_growth(
        self,
        indices: list[int],
        new_tiny: list[int],
        new_mid: list[int],
        new_large: list[int],
    ) -> None:
        """Apply one recorded day of growth (trace replay).

        The deterministic counterpart of :meth:`step_day`: instead of
        Poisson draws, the per-table file deltas come from a recorded
        ``day`` event (sparse — only tables that wrote appear).  Byte
        deltas, write stamps and version bumps are derived exactly as
        :meth:`step_day` derives them, so replayed state matches the
        source run bit for bit.
        """
        n = self.count
        tiny = np.zeros(n, dtype=np.int64)
        mid = np.zeros(n, dtype=np.int64)
        large = np.zeros(n, dtype=np.int64)
        if indices:
            if max(indices) >= n or min(indices) < 0:
                raise ValidationError("growth index out of range for replayed fleet")
            if not len(indices) == len(new_tiny) == len(new_mid) == len(new_large):
                # Guard against numpy's silent length-1 broadcast on fancy
                # assignment: a truncated event must fail, not fan out.
                raise ValidationError("growth delta lists must match indices length")
            tiny[indices] = new_tiny
            mid[indices] = new_mid
            large[indices] = new_large
        self._grow(tiny, mid, large)

    def _grow(self, new_tiny, new_mid, new_large) -> None:
        """One day's worth of per-table file deltas (shared step/replay path)."""
        n = self.count
        self.tiny_files[:n] += new_tiny
        self.mid_files[:n] += new_mid
        self.large_files[:n] += new_large
        self.tiny_bytes[:n] += (new_tiny * TINY_MEAN_BYTES).astype(np.int64)
        self.mid_bytes[:n] += (new_mid * MID_MEAN_BYTES).astype(np.int64)
        self.large_bytes[:n] += (new_large * LARGE_MEAN_BYTES).astype(np.int64)
        totals = new_tiny + new_mid + new_large
        wrote = totals > 0
        self.last_write_day[:n][wrote] = self.day
        self.stats_version[:n][wrote] += 1
        self.mutation_tick += 1
        if self.taps is not None and self.taps.has_subscribers("day"):
            written = np.nonzero(wrote)[0]
            self.taps.publish(
                "day",
                {
                    "day": self.day,
                    "indices": written.tolist(),
                    "tiny": new_tiny[written].tolist(),
                    "mid": new_mid[written].tolist(),
                    "large": new_large[written].tolist(),
                },
            )
        self.day += 1

    # --- aggregate metrics ----------------------------------------------------------

    @property
    def total_files(self) -> int:
        """All live data files in the fleet."""
        n = self.count
        return int(
            self.tiny_files[:n].sum()
            + self.mid_files[:n].sum()
            + self.large_files[:n].sum()
        )

    @property
    def files_below_threshold(self) -> int:
        """Files below 128 MiB (the Figure 2 reporting metric)."""
        return int(self.tiny_files[: self.count].sum())

    @property
    def small_file_fraction(self) -> float:
        """Share of files below 128 MiB."""
        total = self.total_files
        return self.files_below_threshold / total if total else 0.0

    def small_files_per_table(self) -> np.ndarray:
        """Files below target per table (the ΔF_c estimator input)."""
        n = self.count
        return self.tiny_files[:n] + self.mid_files[:n]

    def files_per_table(self) -> np.ndarray:
        """Total live files per table."""
        n = self.count
        return self.tiny_files[:n] + self.mid_files[:n] + self.large_files[:n]

    def database_quota_utilization(self) -> np.ndarray:
        """Per-database UsedQuota/TotalQuota (clipped to [0, 1])."""
        n = self.count
        files = self.files_per_table()
        used = np.bincount(
            self.database[:n], weights=files, minlength=self.config.databases
        )
        return np.clip(used / self.config.quota_objects_per_db, 0.0, 1.0)

    def observe_view(self) -> ObserveView:
        """The memoised per-cycle observation columns (see :class:`ObserveView`)."""
        cached = self._observe_view
        if cached is not None and cached[0] == self.mutation_tick:
            return cached[1]
        n = self.count
        tiny, mid, large = self.tiny_files[:n], self.mid_files[:n], self.large_files[:n]
        tiny_b, mid_b = self.tiny_bytes[:n], self.mid_bytes[:n]
        small = tiny + mid
        small_b = tiny_b + mid_b
        quota_by_db = self.database_quota_utilization()
        view = ObserveView(
            files=(small + large).tolist(),
            small_files=small.tolist(),
            small_bytes=small_b.tolist(),
            total_bytes=(small_b + self.large_bytes[:n]).tolist(),
            created_s=(self.created_day[:n].astype(np.float64) * DAY).tolist(),
            modified_s=(self.last_write_day[:n].astype(np.float64) * DAY).tolist(),
            quota=quota_by_db[self.database[:n]].tolist(),
            versions=self.stats_version[:n].tolist(),
        )
        self._observe_view = (self.mutation_tick, view)
        return view

    def daily_scan_metrics(self) -> dict[str, float]:
        """Workload-side metrics for one day (Figure 11a/11b inputs).

        Query time and cost use the same per-file + per-byte decomposition
        as the engine cost model, scaled to fleet units.
        """
        n = self.count
        files = self.files_per_table().astype(np.float64)
        data_bytes = (
            self.tiny_bytes[:n] + self.mid_bytes[:n] + self.large_bytes[:n]
        ).astype(np.float64)
        scans = self.read_freq[:n]
        files_scanned = float((scans * files).sum())
        bytes_scanned = float((scans * data_bytes).sum())
        # Per-file overheads dominate fragmented scans (the paper's causal
        # mechanism): 0.3 s-equivalents per file vs 8 GiB/s-equivalent
        # bandwidth, so file-count reductions show up directly in query
        # time (Figure 11a's "closely corresponds").
        query_time = files_scanned * 0.3 + bytes_scanned / (8.0 * GiB)
        query_cost_gbhr = query_time / 3600.0 * 64.0
        open_calls = files_scanned
        return {
            "files_scanned": files_scanned,
            "query_time": query_time,
            "query_cost_gbhr": query_cost_gbhr,
            "open_calls": open_calls,
        }

    # --- estimators & compaction -----------------------------------------------------

    def estimate_reduction(self, index: int) -> float:
        """ΔF_c (paper formula): files below target."""
        return float(self.tiny_files[index] + self.mid_files[index])

    def estimate_gbhr(self, index: int) -> float:
        """GBHr_c (paper formula) from the table's small-file bytes."""
        small_bytes = float(self.tiny_bytes[index] + self.mid_bytes[index])
        return self.config.executor_memory_gb * (
            small_bytes / self.config.rewrite_bytes_per_hour
        )

    def compact(self, index: int) -> CompactionApplication:
        """Compact one table, realising estimator noise.

        Returns:
            The realised :class:`CompactionApplication`.

        Raises:
            ValidationError: for out-of-range indices.
        """
        if not 0 <= index < self.count:
            raise ValidationError(f"table index {index} out of range")
        rng = self._rng
        est_reduction = self.estimate_reduction(index)
        est_gbhr = self.estimate_gbhr(index)

        efficiency = self.merge_efficiency[index]
        mergeable_tiny = int(round(float(self.tiny_files[index]) * efficiency))
        mergeable_mid = int(round(float(self.mid_files[index]) * efficiency))
        merged_files = mergeable_tiny + mergeable_mid
        if merged_files == 0:
            return CompactionApplication(index, est_reduction, 0, est_gbhr, 0.0, 0)

        frac_tiny = mergeable_tiny / max(float(self.tiny_files[index]), 1.0)
        frac_mid = mergeable_mid / max(float(self.mid_files[index]), 1.0)
        merged_bytes = int(
            self.tiny_bytes[index] * frac_tiny + self.mid_bytes[index] * frac_mid
        )
        new_large = max(1, math.ceil(merged_bytes / self.config.target_file_size))
        actual_reduction = merged_files - new_large
        if actual_reduction <= 0:
            return CompactionApplication(index, est_reduction, 0, est_gbhr, 0.0, 0)

        self.tiny_files[index] -= mergeable_tiny
        self.mid_files[index] -= mergeable_mid
        self.tiny_bytes[index] = int(self.tiny_bytes[index] * (1 - frac_tiny))
        self.mid_bytes[index] = int(self.mid_bytes[index] * (1 - frac_mid))
        self.large_files[index] += new_large
        self.large_bytes[index] += merged_bytes
        self.stats_version[index] += 1
        self.mutation_tick += 1

        cost_noise = float(
            rng.lognormal(self.config.cost_noise_mu, self.config.cost_noise_sigma)
        )
        actual_gbhr = est_gbhr * cost_noise
        application = CompactionApplication(
            table_index=index,
            estimated_reduction=est_reduction,
            actual_reduction=actual_reduction,
            estimated_gbhr=est_gbhr,
            actual_gbhr=actual_gbhr,
            rewritten_bytes=merged_bytes,
        )
        if self.taps is not None and self.taps.has_subscribers("compact"):
            self.taps.publish(
                "compact",
                {
                    "day": self.day,
                    "index": index,
                    "state": {
                        name: int(getattr(self, name)[index])
                        for name in COMPACT_STATE_FIELDS
                    },
                    "application": {
                        "estimated_reduction": application.estimated_reduction,
                        "actual_reduction": application.actual_reduction,
                        "estimated_gbhr": application.estimated_gbhr,
                        "actual_gbhr": application.actual_gbhr,
                        "rewritten_bytes": application.rewritten_bytes,
                    },
                },
            )
        return application

    def apply_compact_state(self, index: int, state: dict[str, int]) -> None:
        """Set one table's post-compaction class state (trace replay).

        The deterministic counterpart of :meth:`compact`: a recorded
        ``compact`` event carries the table's exact file/byte state after
        the source run's rewrite, and verbatim replay assigns it directly —
        no merge-efficiency or cost-noise draws, so reconstruction is exact.
        """
        if not 0 <= index < self.count:
            raise ValidationError(f"table index {index} out of range")
        missing = [name for name in COMPACT_STATE_FIELDS if name not in state]
        if missing:
            raise ValidationError(f"compact state missing fields: {missing}")
        for name in COMPACT_STATE_FIELDS:
            getattr(self, name)[index] = int(state[name])
        self.mutation_tick += 1

    # --- snapshot / restore -----------------------------------------------------

    def snapshot(self) -> FleetSnapshot:
        """Capture the full model state (columns, clock, RNG) for later restore."""
        return FleetSnapshot(
            count=self.count,
            day=self.day,
            mutation_tick=self.mutation_tick,
            columns={
                name: getattr(self, name)[: self.count].copy()
                for name in TABLE_COLUMNS
            },
            rng_state=self._rng.bit_generator.state,
        )

    def restore(self, snapshot: FleetSnapshot) -> None:
        """Reset the model to a snapshot taken from it (or an equal-config model).

        The snapshot's columns are copied in, so the same snapshot can be
        restored repeatedly — the Policy Lab's what-if runner branches many
        policy variants off one reconstructed base state this way.
        """
        n = snapshot.count
        self.count = 0
        self._ensure_capacity(n)
        for name in TABLE_COLUMNS:
            array = getattr(self, name)
            array[:n] = snapshot.columns[name]
        self.count = n
        self.day = snapshot.day
        self.mutation_tick = snapshot.mutation_tick + 1
        self._rng.bit_generator.state = snapshot.rng_state
        self._observe_view = None
