"""AutoComp core: the paper's contribution.

The OODA-structured automatic-compaction framework (§3–§5):

* **generate** — :mod:`repro.core.candidates` (scopes, keys, statistics);
* **observe** — :class:`~repro.core.connectors.Connector` implementations;
* **orient** — :mod:`repro.core.traits` (ΔF_c, file entropy, GBHr);
* **decide** — :mod:`repro.core.ranking` (threshold & MOOP policies) and
  :mod:`repro.core.selection` (top-k / budget);
* **act** — :mod:`repro.core.scheduling` (backends & schedulers);
* **triggers** — periodic and optimize-after-write (:mod:`repro.core.triggers`);
* **auto-tuning** — :mod:`repro.core.autotune` (threshold optimisers);
* **assembly** — :func:`~repro.core.service.openhouse_pipeline` and
  :class:`~repro.core.service.AutoCompService`;
* **scale-out** — :mod:`repro.core.sharding` (sharded parallel OODA
  cycles), :mod:`repro.core.workers` (process-based shard workers behind
  picklable work contracts) and :mod:`repro.core.statscache` (incremental
  observation);
* **daemonization** — :mod:`repro.core.daemon` (scheduled multi-tenant
  cycles with crash-safe resume), :mod:`repro.core.cron` (calendar
  cadence specs), :mod:`repro.core.locks` (per-table lock files + audit)
  and :mod:`repro.core.fairness` (per-database admission quotas);
* **self-driving policy** — :mod:`repro.core.promoter` (crash-safe
  :class:`~repro.core.promoter.PolicyStore` + guarded
  :class:`~repro.core.promoter.PolicyPromoter` shadow-evaluate /
  promote / watch / roll-back loop).
"""

from repro.core.candidates import (
    Candidate,
    CandidateKey,
    CandidateScope,
    CandidateStatistics,
)
from repro.core.connectors import Connector, LstConnector
from repro.core.cron import CronSchedule, as_schedule
from repro.core.daemon import AutoCompDaemon, ResumableStateMachine
from repro.core.fairness import AdmissionController
from repro.core.locks import (
    AuditSummary,
    LockInfo,
    LockManager,
    read_audit,
    verify_audit,
)
from repro.core.filters import (
    CandidateFilter,
    MaxTraitFilter,
    MinFileCountFilter,
    MinSmallFileCountFilter,
    MinTableAgeFilter,
    MinTotalBytesFilter,
    MinTraitFilter,
    QuiescenceFilter,
)
from repro.core.pipeline import AutoCompPipeline, CycleReport
from repro.core.ranking import (
    Objective,
    QuotaAwareWeightedSumPolicy,
    RankingPolicy,
    ThresholdPolicy,
    WeightedSumPolicy,
    min_max_normalize,
)
from repro.core.autotune import (
    CostFrugalOptimizer,
    Parameter,
    RandomSearchOptimizer,
    TuningResult,
)
from repro.core.pareto import (
    ParetoFrontPolicy,
    ParetoObjective,
    knee_point,
    pareto_front,
)
from repro.core.promoter import (
    PolicyPromoter,
    PolicyStore,
    PromotionSummary,
    apply_variant,
    read_promotions,
    replay_promotions,
    verify_promotions,
)
from repro.core.weight_learning import WeightLearner
from repro.core.scheduling import (
    CompactionTask,
    ConcurrentScheduler,
    ExecutionBackend,
    ExecutionResult,
    LstExecutionBackend,
    OffPeakScheduler,
    ParallelScheduler,
    PartitionSerialScheduler,
    Scheduler,
    SequentialScheduler,
)
from repro.core.selection import AllSelector, BudgetSelector, Selector, TopKSelector
from repro.core.service import (
    AutoCompService,
    openhouse_pipeline,
    openhouse_sharded_pipeline,
)
from repro.core.sharding import (
    ShardedCycleReport,
    ShardedPipeline,
    shard_for_key,
    split_selector,
)
from repro.core.statscache import IndexedCandidateCache
from repro.core.workers import (
    WORKER_MODES,
    CacheDelta,
    ShardCycleResult,
    ShardDecideSpec,
    ShardDecision,
    ShardWorkSpec,
    WorkerPool,
    process_workers_available,
    run_shard_work,
)
from repro.core.traits import (
    BENEFIT,
    COST,
    ComputeCostTrait,
    DeleteFileCountTrait,
    FileCountReductionTrait,
    FileEntropyTrait,
    RelativeFileCountReductionTrait,
    SmallFileBytesTrait,
    Trait,
    TraitRegistry,
)
from repro.core.triggers import OptimizeAfterWriteHook, PeriodicTrigger

__all__ = [
    "AdmissionController",
    "AllSelector",
    "AuditSummary",
    "AutoCompDaemon",
    "AutoCompPipeline",
    "AutoCompService",
    "BENEFIT",
    "BudgetSelector",
    "COST",
    "Candidate",
    "CandidateFilter",
    "CandidateKey",
    "CandidateScope",
    "CacheDelta",
    "CandidateStatistics",
    "CompactionTask",
    "ComputeCostTrait",
    "ConcurrentScheduler",
    "Connector",
    "CostFrugalOptimizer",
    "CronSchedule",
    "CycleReport",
    "DeleteFileCountTrait",
    "ExecutionBackend",
    "ExecutionResult",
    "FileCountReductionTrait",
    "FileEntropyTrait",
    "IndexedCandidateCache",
    "LockInfo",
    "LockManager",
    "LstConnector",
    "LstExecutionBackend",
    "MaxTraitFilter",
    "MinFileCountFilter",
    "MinSmallFileCountFilter",
    "MinTableAgeFilter",
    "MinTotalBytesFilter",
    "MinTraitFilter",
    "Objective",
    "OffPeakScheduler",
    "OptimizeAfterWriteHook",
    "ParallelScheduler",
    "Parameter",
    "ParetoFrontPolicy",
    "ParetoObjective",
    "PartitionSerialScheduler",
    "PeriodicTrigger",
    "PolicyPromoter",
    "PolicyStore",
    "PromotionSummary",
    "QuiescenceFilter",
    "QuotaAwareWeightedSumPolicy",
    "RandomSearchOptimizer",
    "RankingPolicy",
    "RelativeFileCountReductionTrait",
    "ResumableStateMachine",
    "Scheduler",
    "Selector",
    "SequentialScheduler",
    "ShardCycleResult",
    "ShardDecideSpec",
    "ShardDecision",
    "ShardWorkSpec",
    "ShardedCycleReport",
    "ShardedPipeline",
    "SmallFileBytesTrait",
    "ThresholdPolicy",
    "TopKSelector",
    "Trait",
    "TraitRegistry",
    "TuningResult",
    "WORKER_MODES",
    "WeightLearner",
    "WeightedSumPolicy",
    "WorkerPool",
    "apply_variant",
    "as_schedule",
    "knee_point",
    "min_max_normalize",
    "openhouse_pipeline",
    "openhouse_sharded_pipeline",
    "pareto_front",
    "process_workers_available",
    "read_audit",
    "read_promotions",
    "replay_promotions",
    "run_shard_work",
    "shard_for_key",
    "split_selector",
    "verify_audit",
    "verify_promotions",
]
