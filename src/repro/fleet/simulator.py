"""Month-scale fleet simulation with pluggable compaction strategies.

Reproduces the §7 deployment narrative: months of no compaction, then the
ad-hoc *manual* strategy (a fixed set of ~100 susceptible tables compacted
daily), then AutoComp — first with a conservative fixed k, later with
dynamic (budget-based) k.  The simulator steps one day at a time, runs the
active strategy, and records the telemetry series behind Figures 2, 10
and 11:

* ``fleet.total_files``, ``fleet.files_below_128``, ``fleet.deployment_size``;
* ``fleet.files_reduced``, ``fleet.gbhr`` (per day, aggregated weekly in
  Figure 10a/10b);
* ``fleet.files_scanned``, ``fleet.query_time``, ``fleet.query_cost``,
  ``fleet.open_calls`` (Figure 11);
* per-compaction estimator accuracy pairs for the §7 model-accuracy study.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import AutoCompPipeline
from repro.core.ranking import Objective, QuotaAwareWeightedSumPolicy, WeightedSumPolicy
from repro.core.selection import BudgetSelector, Selector, TopKSelector
from repro.core.scheduling import SequentialScheduler
from repro.core.sharding import ShardedPipeline
from repro.core.statscache import IndexedCandidateCache
from repro.core.traits import ComputeCostTrait, FileCountReductionTrait, TraitRegistry
from repro.errors import ValidationError
from repro.fleet.connectors import FleetBackend, FleetConnector
from repro.fleet.model import FleetConfig, FleetModel
from repro.simulation.taps import TapBus
from repro.simulation.telemetry import Telemetry
from repro.units import DAY


@dataclass
class DailyCompactionOutcome:
    """Aggregate of one day's compaction activity."""

    day: int
    tables_compacted: int = 0
    files_reduced: int = 0
    gbhr: float = 0.0
    estimate_pairs: list[tuple[float, float, float, float]] = field(default_factory=list)
    """``(est_reduction, actual_reduction, est_gbhr, actual_gbhr)`` tuples."""


class CompactionStrategy(abc.ABC):
    """A daily compaction decision procedure over the fleet."""

    name: str = "strategy"

    @abc.abstractmethod
    def run_day(self, model: FleetModel, day: int) -> DailyCompactionOutcome:
        """Execute one day's compaction."""


class NoCompactionStrategy(CompactionStrategy):
    """The do-nothing baseline."""

    name = "none"

    def run_day(self, model: FleetModel, day: int) -> DailyCompactionOutcome:
        return DailyCompactionOutcome(day=day)


class ManualCompactionStrategy(CompactionStrategy):
    """LinkedIn's initial mitigation: a fixed top-k list compacted daily.

    The table set is chosen *once*, when the strategy first runs, by
    current small-file count — exactly the "susceptibility to high
    fragmentation" selection of §7 — and never revisited, which is why its
    returns diminish once those tables are clean.
    """

    name = "manual"

    def __init__(self, k: int = 100) -> None:
        if k <= 0:
            raise ValidationError("k must be positive")
        self.k = k
        self._chosen: list[int] | None = None

    def run_day(self, model: FleetModel, day: int) -> DailyCompactionOutcome:
        if self._chosen is None:
            small = model.small_files_per_table()
            order = np.argsort(-small, kind="stable")
            self._chosen = [int(i) for i in order[: self.k]]
        outcome = DailyCompactionOutcome(day=day)
        for index in self._chosen:
            application = model.compact(index)
            if application.actual_reduction <= 0:
                continue
            outcome.tables_compacted += 1
            outcome.files_reduced += application.actual_reduction
            outcome.gbhr += application.actual_gbhr
            outcome.estimate_pairs.append(
                (
                    application.estimated_reduction,
                    application.actual_reduction,
                    application.estimated_gbhr,
                    application.actual_gbhr,
                )
            )
        return outcome


def _fleet_decision_components(
    model: FleetModel,
    k: int | None,
    budget_gbhr: float | None,
    quota_aware: bool,
) -> tuple[TraitRegistry, WeightedSumPolicy | QuotaAwareWeightedSumPolicy, Selector]:
    """Traits, policy and selector shared by the fleet strategies."""
    if k is None and budget_gbhr is None:
        raise ValidationError("provide k or budget_gbhr")
    traits = TraitRegistry(
        [
            FileCountReductionTrait(),
            ComputeCostTrait(
                executor_memory_gb=model.config.executor_memory_gb,
                rewrite_bytes_per_hour=model.config.rewrite_bytes_per_hour,
            ),
        ]
    )
    if quota_aware:
        policy = QuotaAwareWeightedSumPolicy()
    else:
        policy = WeightedSumPolicy(
            [
                Objective("file_count_reduction", 0.7, maximize=True),
                Objective("compute_cost_gbhr", 0.3, maximize=False),
            ]
        )
    selector: Selector
    if budget_gbhr is not None:
        selector = BudgetSelector(budget_gbhr)
    else:
        selector = TopKSelector(k if k is not None else 10)
    return traits, policy, selector


def _outcome_from_results(day: int, results) -> DailyCompactionOutcome:
    """Aggregate act-phase results into one day's outcome."""
    outcome = DailyCompactionOutcome(day=day)
    for result in results:
        if not result.success:
            continue
        outcome.tables_compacted += 1
        outcome.files_reduced += result.actual_reduction
        outcome.gbhr += result.gbhr
        outcome.estimate_pairs.append(
            (
                result.estimated_reduction,
                float(result.actual_reduction),
                result.estimated_gbhr,
                result.gbhr,
            )
        )
    return outcome


class AutoCompStrategy(CompactionStrategy):
    """AutoComp over the fleet: the real pipeline on the fleet connector.

    Args:
        model: fleet state.
        k: fixed top-k selection (the conservative §7 rollout, k≈10).
        budget_gbhr: dynamic-k budget selection (the week-22 transition);
            overrides ``k`` when given.
        quota_aware: use the §7 quota-aware weights instead of fixed
            0.7/0.3 MOOP weights.
    """

    name = "autocomp"

    def __init__(
        self,
        model: FleetModel,
        k: int | None = 10,
        budget_gbhr: float | None = None,
        quota_aware: bool = True,
    ) -> None:
        traits, policy, selector = _fleet_decision_components(
            model, k, budget_gbhr, quota_aware
        )
        self.pipeline = AutoCompPipeline(
            connector=FleetConnector(model, min_small_files=2),
            backend=FleetBackend(model),
            traits=traits,
            policy=policy,
            selector=selector,
            scheduler=SequentialScheduler(),
            generation="table",
        )

    def run_day(self, model: FleetModel, day: int) -> DailyCompactionOutcome:
        report = self.pipeline.run_cycle(now=float(day) * DAY)
        return _outcome_from_results(day, report.results)


#: TTL fallback for the statistics :class:`ShardedAutoCompStrategy` caches:
#: bounds how stale a quiet table's quota-dependent score can get.
STATS_CACHE_TTL_S = 7 * DAY


class ShardedAutoCompStrategy(CompactionStrategy):
    """AutoComp behind the scale-out control plane.

    The same decision components as :class:`AutoCompStrategy` with its
    defaults (quota-aware weights, fixed top-k), but candidate keys are
    consistent-hashed across ``n_shards`` per-shard pipelines whose
    connectors carry incremental-observation caches — daily cycles observe
    only the tables that wrote or were compacted since the last cycle
    (version-token invalidation), with :data:`STATS_CACHE_TTL_S` bounding
    quota staleness.

    Args:
        model: fleet state.
        n_shards: number of per-shard pipelines.
        k: fixed top-k selection, as for :class:`AutoCompStrategy`.
        selection: ``"global"`` (exactly the unsharded decisions) or
            ``"local"`` (split budgets, fully independent shards).
        workers: shard execution mode — ``"inline"`` (default) or
            ``"processes"`` (true multi-core observe/orient via columnar
            shard work; see :mod:`repro.core.workers`).  Both produce
            byte-identical cycle reports.
        max_workers: the cycle's parallelism in process mode, counting the
            coordinator, which observes shard 0 itself: the pool forks
            ``max_workers - 1`` workers (see
            :class:`~repro.core.sharding.ShardedPipeline`).
        observe_cost: per-candidate CPU units emulating real statistics-
            collection cost (see
            :attr:`~repro.fleet.connectors.FleetConnector.observe_cost`).
        telemetry: fleet-level metric sink.

    In process mode the strategy owns a persistent worker pool; call
    :meth:`close` (or use the strategy as a context manager) when done
    with it.
    """

    name = "autocomp-sharded"

    def __init__(
        self,
        model: FleetModel,
        n_shards: int = 4,
        k: int = 10,
        selection: str = "global",
        workers: str = "inline",
        max_workers: int | None = None,
        observe_cost: int = 0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if n_shards <= 0:
            raise ValidationError("n_shards must be positive")
        traits, policy, selector = _fleet_decision_components(
            model, k, budget_gbhr=None, quota_aware=True
        )
        # One cache shared by every shard: consistent hashing partitions
        # the table-index space disjointly, so shards never contend for a
        # slot, and a single slot table keeps the working set compact.
        cache = IndexedCandidateCache(ttl_s=STATS_CACHE_TTL_S)
        self.caches = [cache]
        shards = [
            AutoCompPipeline(
                connector=FleetConnector(
                    model,
                    min_small_files=2,
                    stats_cache=cache,
                    observe_cost=observe_cost,
                ),
                backend=FleetBackend(model),
                traits=traits,
                policy=policy,
                selector=selector,
                scheduler=SequentialScheduler(),
                generation="table",
            )
            for _ in range(n_shards)
        ]
        self.pipeline = ShardedPipeline(
            shards,
            selection=selection,
            # The fleet policies normalise over the candidate set and sort
            # into a key-tie-broken total order, so merge order is free.
            merge_order="any",
            workers=workers,
            max_workers=max_workers,
            telemetry=telemetry,
        )

    def run_day(self, model: FleetModel, day: int) -> DailyCompactionOutcome:
        sharded = self.pipeline.run_cycle(now=float(day) * DAY)
        return _outcome_from_results(day, sharded.report.results)

    def close(self) -> None:
        """Shut the pipeline's worker pool down."""
        self.pipeline.close()

    def __enter__(self) -> "ShardedAutoCompStrategy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FleetSimulator:
    """Day-stepped fleet simulation with a strategy schedule.

    Args:
        config: fleet parameters.
        telemetry: metric sink (a private one if omitted).

    The strategy schedule maps a start day to a strategy; the most recent
    entry at or before the current day is active.
    """

    def __init__(
        self,
        config: FleetConfig,
        telemetry: Telemetry | None = None,
        taps: TapBus | None = None,
    ) -> None:
        self.config = config
        self.taps = taps
        self.model = FleetModel(config, taps=taps)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.schedule: dict[int, CompactionStrategy] = {0: NoCompactionStrategy()}
        self.outcomes: list[DailyCompactionOutcome] = []

    def set_strategy(self, start_day: int, strategy: CompactionStrategy) -> None:
        """Activate ``strategy`` from ``start_day`` onwards."""
        if start_day < 0:
            raise ValidationError("start_day must be >= 0")
        self.schedule[start_day] = strategy

    def active_strategy(self, day: int) -> CompactionStrategy:
        """The strategy in force on ``day``."""
        eligible = [d for d in self.schedule if d <= day]
        return self.schedule[max(eligible)]

    def run_days(self, days: int, onboard_monthly: bool = True) -> None:
        """Advance the simulation ``days`` days.

        Each day: onboarding (on 30-day boundaries), organic fragmentation
        growth, the active strategy's compactions, then telemetry.
        """
        if days <= 0:
            raise ValidationError("days must be positive")
        for _ in range(days):
            day = self.model.day
            if onboard_monthly and day > 0 and day % 30 == 0:
                self.model.onboard(self.config.onboarded_per_month)
            self.model.step_day()
            strategy = self.active_strategy(day)
            outcome = strategy.run_day(self.model, day)
            self.outcomes.append(outcome)
            self._record(day, strategy, outcome)
            if self.taps is not None and self.taps.has_subscribers("cycle"):
                # Stamped with the post-step model clock (like compact
                # events) so trace event days stay non-decreasing; the
                # outcome itself belongs to logical day ``model.day - 1``.
                self.taps.publish(
                    "cycle",
                    {
                        "day": self.model.day,
                        "strategy": strategy.name,
                        "tables_compacted": outcome.tables_compacted,
                        "files_reduced": outcome.files_reduced,
                        "gbhr": outcome.gbhr,
                    },
                )

    def _record(
        self, day: int, strategy: CompactionStrategy, outcome: DailyCompactionOutcome
    ) -> None:
        t = float(day) * DAY
        telemetry = self.telemetry
        model = self.model
        telemetry.record("fleet.total_files", t, model.total_files)
        telemetry.record("fleet.files_below_128", t, model.files_below_threshold)
        telemetry.record("fleet.small_file_fraction", t, model.small_file_fraction)
        telemetry.record("fleet.deployment_size", t, model.count)
        telemetry.record("fleet.files_reduced", t, outcome.files_reduced)
        telemetry.record("fleet.gbhr", t, outcome.gbhr)
        telemetry.record("fleet.tables_compacted", t, outcome.tables_compacted)
        scan = model.daily_scan_metrics()
        telemetry.record("fleet.files_scanned", t, scan["files_scanned"])
        telemetry.record("fleet.query_time", t, scan["query_time"])
        telemetry.record("fleet.query_cost", t, scan["query_cost_gbhr"])
        telemetry.record("fleet.open_calls", t, scan["open_calls"])

    # --- analysis helpers -------------------------------------------------------

    def weekly_totals(self, series_name: str) -> list[float]:
        """Sum a daily series into 7-day buckets."""
        series = self.telemetry.series(series_name)
        return [value for _, value in series.bucket(7 * DAY, agg="sum")]

    def estimator_accuracy(self) -> dict[str, float]:
        """Mean relative estimator errors across all compactions (§7).

        Returns:
            ``reduction_overestimate`` — mean (est − actual)/actual for
            file-count reduction (paper: ~+28%), and
            ``cost_underestimate`` — mean (actual − est)/est for compute
            cost (paper: ~+19%).
        """
        reduction_errors = []
        cost_errors = []
        for outcome in self.outcomes:
            for est_red, act_red, est_cost, act_cost in outcome.estimate_pairs:
                if act_red > 0:
                    reduction_errors.append((est_red - act_red) / act_red)
                if est_cost > 0:
                    cost_errors.append((act_cost - est_cost) / est_cost)
        return {
            "reduction_overestimate": float(np.mean(reduction_errors))
            if reduction_errors
            else 0.0,
            "cost_underestimate": float(np.mean(cost_errors)) if cost_errors else 0.0,
        }
