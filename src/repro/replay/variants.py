"""Policy variants: one point of the compaction-policy design space.

A :class:`PolicyVariant` is a small, picklable value object naming every
decision knob the Policy Lab can sweep — ranking weights, trigger cadence,
filter thresholds, selection budget, scheduler mode, shard count — plus
the factory that turns it into a runnable pipeline over a fleet model.
What-if search is then just "replay one trace under many variants".

Variant construction deliberately reuses the production components
(:class:`~repro.core.ranking.WeightedSumPolicy`,
:class:`~repro.core.selection.BudgetSelector`,
:class:`~repro.core.scheduling.ConcurrentScheduler`, …): the policy a
what-if run crowns best is byte-for-byte the policy a deployment would run.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, fields, replace

from repro.core.filters import MinSmallFileCountFilter, QuiescenceFilter
from repro.core.pipeline import AutoCompPipeline
from repro.core.ranking import Objective, QuotaAwareWeightedSumPolicy, WeightedSumPolicy
from repro.core.scheduling import ConcurrentScheduler, SequentialScheduler
from repro.core.selection import BudgetSelector, Selector, TopKSelector
from repro.core.sharding import ShardedPipeline
from repro.core.statscache import IndexedCandidateCache
from repro.core.traits import ComputeCostTrait, FileCountReductionTrait, TraitRegistry
from repro.errors import ValidationError
from repro.fleet.connectors import FleetBackend, FleetConnector
from repro.fleet.model import FleetModel
from repro.simulation.rng import derive_rng
from repro.units import DAY

#: Ranking families a variant may select.
RANKING_MODES = ("weighted", "quota_aware")

#: Act-phase scheduler modes a variant may select.
SCHEDULER_MODES = ("sequential", "concurrent")


@dataclass(frozen=True)
class PolicyVariant:
    """One compaction-policy configuration for replay / what-if search.

    Args:
        name: label used in reports and RNG derivation (must be unique
            within one what-if sweep).
        ranking: ``weighted`` (fixed MOOP weights) or ``quota_aware``
            (the §7 production ranking with per-tenant dynamic weights).
        benefit_weight: MOOP weight on file-count reduction (``weighted``
            ranking only; cost weight is its complement).
        k: fixed top-k selection; ignored when ``budget_gbhr`` is set.
        budget_gbhr: dynamic-k budget selection (overrides ``k``).
        min_small_files: observe-phase filter threshold — candidates with
            fewer small files are dropped.
        quiesce_days: skip tables written within this many days
            (0 disables the write-activity filter).
        trigger_interval_days: run a cycle every N recorded days (the
            paper's daily deployment cadence is 1).  Catalog replay reads
            it as "every Nth recorded cycle marker".
        scheduler: ``sequential`` or ``concurrent`` (chain-grouped
            :class:`~repro.core.scheduling.ConcurrentScheduler`).
        n_shards: >1 runs the variant behind the sharded control plane —
            with a shared incremental-observation cache for fleet replay,
            and through
            :func:`~repro.core.service.openhouse_sharded_pipeline` for
            catalog replay (global selection keeps sharded cycle reports
            byte-identical to unsharded ones).
        generation: candidate-generation strategy for catalog replay
            (``table`` / ``partition`` / ``hybrid`` — the §6 strategy
            axis).  Fleet replay is always table-scoped and ignores it.
    """

    name: str
    ranking: str = "weighted"
    benefit_weight: float = 0.7
    k: int | None = 10
    budget_gbhr: float | None = None
    min_small_files: int = 2
    quiesce_days: float = 0.0
    trigger_interval_days: int = 1
    scheduler: str = "sequential"
    n_shards: int = 1
    generation: str = "table"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("variant name must be non-empty")
        if self.ranking not in RANKING_MODES:
            raise ValidationError(
                f"unknown ranking {self.ranking!r}; expected one of {RANKING_MODES}"
            )
        if self.scheduler not in SCHEDULER_MODES:
            raise ValidationError(
                f"unknown scheduler {self.scheduler!r}; expected one of {SCHEDULER_MODES}"
            )
        if self.k is None and self.budget_gbhr is None:
            raise ValidationError("variant needs k or budget_gbhr")
        if not 0 < self.benefit_weight < 1:
            raise ValidationError("benefit_weight must be in (0, 1)")
        if self.trigger_interval_days <= 0:
            raise ValidationError("trigger_interval_days must be positive")
        if self.min_small_files < 0:
            raise ValidationError("min_small_files must be >= 0")
        if self.quiesce_days < 0:
            raise ValidationError("quiesce_days must be >= 0")
        if self.n_shards <= 0:
            raise ValidationError("n_shards must be positive")
        from repro.core.candidates import GENERATION_STRATEGIES

        if self.generation not in GENERATION_STRATEGIES:
            raise ValidationError(
                f"unknown generation {self.generation!r}; "
                f"expected one of {GENERATION_STRATEGIES}"
            )

    def renamed(self, name: str) -> "PolicyVariant":
        """A copy under a different name."""
        return replace(self, name=name)

    # --- serde (the PolicyStore's durable format) -------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe mapping of every knob (all fields are scalars).

        The :class:`~repro.core.promoter.PolicyStore` persists variants in
        this form; :meth:`from_dict` round-trips it exactly.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyVariant":
        """Rebuild a variant from :meth:`to_dict` output.

        Unknown keys are ignored (a store written by a newer build with
        extra knobs still loads); missing keys fall back to the dataclass
        defaults.  Validation reruns in ``__post_init__``.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    # --- factories -------------------------------------------------------------

    def build_policy(self):
        """The variant's ranking policy instance."""
        if self.ranking == "quota_aware":
            return QuotaAwareWeightedSumPolicy()
        return WeightedSumPolicy(
            [
                Objective("file_count_reduction", self.benefit_weight, maximize=True),
                Objective("compute_cost_gbhr", 1.0 - self.benefit_weight, maximize=False),
            ]
        )

    def build_selector(self) -> Selector:
        """The variant's budget selector."""
        if self.budget_gbhr is not None:
            return BudgetSelector(self.budget_gbhr)
        return TopKSelector(self.k if self.k is not None else 10)

    def build_scheduler(self):
        """The variant's act-phase scheduler.

        ``concurrent`` uses table-serial chains without worker threads: the
        fleet backend mutates shared numpy state, so chains must execute on
        one thread — the grouping (and any ``max_parallelism`` semantics)
        still match a scaled-out deployment, deterministically.
        """
        if self.scheduler == "concurrent":
            return ConcurrentScheduler(table_serial=True)
        return SequentialScheduler()

    def build_pipeline(self, model: FleetModel) -> AutoCompPipeline | ShardedPipeline:
        """A runnable pipeline (sharded when ``n_shards > 1``) over ``model``."""
        traits = TraitRegistry(
            [
                FileCountReductionTrait(),
                ComputeCostTrait(
                    executor_memory_gb=model.config.executor_memory_gb,
                    rewrite_bytes_per_hour=model.config.rewrite_bytes_per_hour,
                ),
            ]
        )
        stats_filters: list = [MinSmallFileCountFilter(self.min_small_files)]
        if self.quiesce_days > 0:
            stats_filters.append(QuiescenceFilter(self.quiesce_days * DAY))

        def shard_pipeline(cache: IndexedCandidateCache | None) -> AutoCompPipeline:
            return AutoCompPipeline(
                connector=FleetConnector(
                    model, min_small_files=self.min_small_files, stats_cache=cache
                ),
                backend=FleetBackend(model),
                traits=traits,
                policy=self.build_policy(),
                selector=self.build_selector(),
                scheduler=self.build_scheduler(),
                generation="table",
                stats_filters=stats_filters,
            )

        if self.n_shards == 1:
            return shard_pipeline(None)
        cache = IndexedCandidateCache()
        shards = [shard_pipeline(cache) for _ in range(self.n_shards)]
        return ShardedPipeline(shards, selection="global", merge_order="any", max_workers=1)

    def build_catalog_pipeline(
        self, catalog, compaction_cluster, cost_model=None
    ) -> AutoCompPipeline | ShardedPipeline:
        """A runnable OpenHouse-shaped pipeline over a live (or replayed) catalog.

        The catalog analogue of :meth:`build_pipeline`, built through
        :func:`~repro.core.service.openhouse_pipeline` so the policy a
        catalog what-if run crowns best is byte-for-byte the policy a §6
        deployment would run.  Recording a live run driven through this
        same factory (with synchronous cycles) is what makes
        record → replay byte-identity hold for catalog traces.

        With ``n_shards > 1`` the variant runs behind
        :func:`~repro.core.service.openhouse_sharded_pipeline` (global
        selection, single-threaded inline shard workers), so shadow
        evaluation can exercise the sharded deployment shape offline.
        Global selection re-merges and ranks shard survivors at the fleet
        level, so sharded replays stay byte-identical to unsharded ones —
        the property ``tests/replay`` pins.  Callers owning the pipeline's
        lifetime should ``close()`` sharded instances (the catalog
        replayer does).
        """
        kwargs = dict(
            cost_model=cost_model,
            generation=self.generation,
            k=self.k,
            budget_gbhr=self.budget_gbhr,
            benefit_weight=self.benefit_weight,
            min_table_age_s=0.0,
            min_small_files=self.min_small_files,
            quiesce_s=self.quiesce_days * DAY,
            scheduler=self.build_scheduler(),
        )
        if self.n_shards > 1:
            from repro.core.service import openhouse_sharded_pipeline

            pipeline = openhouse_sharded_pipeline(
                catalog,
                compaction_cluster,
                n_shards=self.n_shards,
                workers="threads",
                max_workers=1,
                **kwargs,
            )
            if self.ranking == "quota_aware":
                for shard in pipeline.shards:
                    shard.policy = QuotaAwareWeightedSumPolicy()
            return pipeline
        from repro.core.service import openhouse_pipeline

        pipeline = openhouse_pipeline(catalog, compaction_cluster, **kwargs)
        if self.ranking == "quota_aware":
            pipeline.policy = QuotaAwareWeightedSumPolicy()
        return pipeline


def variant_grid(
    benefit_weights: tuple[float, ...] = (0.5, 0.7, 0.9),
    ks: tuple[int, ...] = (5, 10, 20),
    rankings: tuple[str, ...] = ("weighted",),
    trigger_interval_days: tuple[int, ...] = (1,),
) -> list[PolicyVariant]:
    """The full cross product of the given axes, deterministically named.

    Quota-aware variants ignore ``benefit_weight`` (their weights are
    per-candidate), so each quota-aware point appears once per ``k`` /
    interval combination rather than once per weight.
    """
    variants: list[PolicyVariant] = []
    seen: set[tuple] = set()
    for ranking, weight, k, interval in itertools.product(
        rankings, benefit_weights, ks, trigger_interval_days
    ):
        identity = (ranking, weight if ranking == "weighted" else None, k, interval)
        if identity in seen:
            continue
        seen.add(identity)
        if ranking == "weighted":
            name = f"w{weight:.2f}-k{k}-i{interval}"
        else:
            name = f"quota-k{k}-i{interval}"
        variants.append(
            PolicyVariant(
                name=name,
                ranking=ranking,
                benefit_weight=weight if ranking == "weighted" else 0.7,
                k=k,
                trigger_interval_days=interval,
            )
        )
    return variants


def sample_variants(n: int, seed: int = 0) -> list[PolicyVariant]:
    """``n`` random points of the variant space (deterministic under a seed)."""
    if n <= 0:
        raise ValidationError("n must be positive")
    rng = derive_rng(seed, "policy-lab", "sample-variants")
    variants = []
    for index in range(n):
        ranking = "quota_aware" if rng.uniform() < 0.25 else "weighted"
        weight = float(round(rng.uniform(0.35, 0.9), 3))
        k = int(rng.integers(3, 40))
        interval = int(rng.integers(1, 4))
        variants.append(
            PolicyVariant(
                name=f"sample{index:02d}",
                ranking=ranking,
                benefit_weight=weight,
                k=k,
                trigger_interval_days=interval,
                scheduler="concurrent" if rng.uniform() < 0.3 else "sequential",
            )
        )
    return variants
