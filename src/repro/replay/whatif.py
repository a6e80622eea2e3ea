"""What-if search: fan policy variants out over a worker pool, rank them.

Given one recorded trace and a set of :class:`~repro.replay.variants.PolicyVariant`
points (a grid, a random sample, or hand-picked configurations), the
:class:`WhatIfRunner` replays the trace once per variant, scores every
outcome with :mod:`repro.analysis.metrics` — file-count reduction against
the no-compaction baseline, GBHr spent, write amplification, task-failure
rate — and returns a ranked :class:`WhatIfReport`.

Replays are embarrassingly parallel (each variant owns its reconstructed
fleet), so for traces read from a *path* the runner fans variants out
over the scale-out plane's persistent
:class:`~repro.core.workers.WorkerPool` (the same process pool behind
process-mode shard workers): at most ``workers`` replays in flight, each
worker parsing and replaying independently, results always assembled in
deterministic variant order regardless of completion order.  In-memory
traces replay sequentially on the calling thread: replay is CPU-bound
Python, which threads would only serialize on the GIL.  The pool
persists across :meth:`WhatIfRunner.run` calls — close the runner (or
use it as a context manager) when done.

The report's winner doubles as an offline prior: :meth:`WhatIfReport.to_priors`
feeds :meth:`repro.core.autotune.Optimizer.optimize`'s warm start and
:meth:`WhatIfReport.prior_efficiencies` seeds
:class:`~repro.core.weight_learning.WeightLearner`'s expectation.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.analysis.metrics import (
    reduction_efficiency,
    task_failure_rate,
    write_amplification,
)
from repro.analysis.reporting import bar_chart, render_table
from repro.core.workers import WorkerPool, process_workers_available
from repro.errors import ValidationError
from repro.replay.replayer import ReplayResult, TraceReplayer
from repro.replay.trace import Trace, TraceReader
from repro.replay.variants import PolicyVariant

#: Orderings the report can rank by (all "best first").
RANK_MODES = ("efficiency", "files_reduced", "gbhr")


@dataclass(frozen=True)
class VariantScore:
    """One variant's scored outcome over a recorded trace."""

    variant: PolicyVariant
    #: Fleet files at the end of the replay.
    files_final: int
    #: Net files removed by this variant's compactions.
    files_reduced: int
    #: Fractional file-count reduction vs the no-compaction baseline replay.
    reduction_vs_baseline: float
    #: Total compute spent.
    gbhr: float
    #: Bytes rewritten per byte ingested by the recorded workload.
    write_amplification: float
    #: Failed tasks over executed tasks.
    task_failure_rate: float
    #: Files removed per GBHr (the default ranking key).
    efficiency: float
    #: Cycles run / act-phase tasks executed.
    cycles: int
    tasks: int
    #: Determinism fingerprint of the replay's cycle reports.
    report_digest: str


@dataclass
class WhatIfReport:
    """Ranked outcome of one what-if sweep."""

    scores: list[VariantScore] = field(default_factory=list)
    baseline_files_final: int = 0
    rank_by: str = "efficiency"
    wall_s: float = 0.0
    workers: int = 1

    def ranked(self) -> list[VariantScore]:
        """Scores best-first under ``rank_by`` (ties broken by variant name)."""
        if self.rank_by == "gbhr":
            # Cheapest first, but among equally cheap variants prefer the
            # one that reduced more files — otherwise a do-nothing variant
            # (0 GBHr, 0 files reduced) always ranks first.
            key = lambda s: (s.gbhr, -s.files_reduced, s.variant.name)  # noqa: E731
            return sorted(self.scores, key=key)
        attribute = {"efficiency": "efficiency", "files_reduced": "files_reduced"}[
            self.rank_by
        ]
        return sorted(
            self.scores, key=lambda s: (-getattr(s, attribute), s.variant.name)
        )

    def best(self) -> VariantScore:
        """The top-ranked variant.

        Raises:
            ValidationError: when the sweep produced no scores.
        """
        ranked = self.ranked()
        if not ranked:
            raise ValidationError("what-if sweep produced no scores")
        return ranked[0]

    def to_priors(self) -> dict[str, float]:
        """The winner's knobs as a warm start for offline tuning.

        Feed to :meth:`repro.core.autotune.Optimizer.optimize` as
        ``warm_start`` (parameter names match the common trigger/weight
        search spaces) — the optimizer then starts from the trace-validated
        incumbent instead of a cold corner.
        """
        best = self.best().variant
        priors: dict[str, float] = {
            "trigger_interval_days": float(best.trigger_interval_days),
            "min_small_files": float(best.min_small_files),
        }
        if best.ranking == "weighted":
            # Quota-aware winners never read benefit_weight, so emitting it
            # would anchor the optimizer at an unvalidated default.
            priors["benefit_weight"] = best.benefit_weight
        if best.budget_gbhr is not None:
            priors["budget_gbhr"] = best.budget_gbhr
        elif best.k is not None:
            priors["k"] = float(best.k)
        return priors

    def prior_efficiencies(self) -> list[float]:
        """Per-variant efficiencies, best first (a WeightLearner prior)."""
        return [score.efficiency for score in self.ranked()]

    def render(self, width: int = 32) -> str:
        """The ranked comparison as an aligned table plus an efficiency chart."""
        ranked = self.ranked()
        rows = []
        for position, score in enumerate(ranked, start=1):
            rows.append(
                [
                    position,
                    score.variant.name,
                    score.files_final,
                    f"{score.reduction_vs_baseline:.1%}",
                    f"{score.gbhr:.1f}",
                    f"{score.efficiency:.1f}",
                    f"{score.write_amplification:.2f}",
                    f"{score.task_failure_rate:.1%}",
                    score.cycles,
                ]
            )
        table = render_table(
            [
                "#",
                "variant",
                "files",
                "dFiles vs none",
                "GBHr",
                "files/GBHr",
                "write amp",
                "fail rate",
                "cycles",
            ],
            rows,
        )
        chart = bar_chart(
            [score.variant.name for score in ranked],
            [round(score.efficiency, 1) for score in ranked],
            width=width,
            unit=" files/GBHr",
        )
        return f"{table}\n\n{chart}"


def _summarize(result: ReplayResult) -> dict:
    """A picklable summary of one replay (what crosses process boundaries)."""
    return {
        "files_final": result.files_final,
        "files_reduced": result.total_files_reduced,
        "gbhr": result.total_gbhr,
        "rewritten_bytes": result.total_rewritten_bytes,
        "tasks": result.tasks,
        "failures": result.failures,
        "cycles": len(result.reports),
        "report_digest": result.report_digest(),
    }


def build_replayer(trace: Trace | str | os.PathLike):
    """The right replayer for a trace: fleet or catalog, by header type.

    The single dispatch seam the what-if machinery goes through, so
    catalog traces (schema v2) sweep through exactly the same runner,
    scoring and ranking as fleet traces.
    """
    parsed = trace if isinstance(trace, Trace) else TraceReader(trace).read()
    if parsed.trace_type == "catalog":
        from repro.replay.catalog_replay import CatalogReplayer

        return CatalogReplayer(parsed)
    return TraceReplayer(parsed)


def verify_deterministic(trace: Trace | str | os.PathLike, variant: PolicyVariant) -> bool:
    """Replay ``trace`` under ``variant`` twice; True iff byte-identical.

    Either trace type, through :func:`build_replayer`.  A convenience
    wrapper used by benches and CI smoke checks; the test suite asserts
    the same property directly.
    """
    parsed = trace if isinstance(trace, Trace) else TraceReader(trace).read()
    first = build_replayer(parsed).replay(variant)
    second = build_replayer(parsed).replay(variant)
    return first.report_bytes() == second.report_bytes()


#: Per-process replayer memo: pool workers handle many variants, so each
#: worker parses (and base-snapshots) a given trace file exactly once.
#: Keyed by (path, size, mtime) so a rewritten trace is never served stale.
_REPLAYER_CACHE: dict[tuple, object] = {}


def _replay_variant(trace_path: str, variant: PolicyVariant, perturb=None) -> dict:
    """Worker entry point: replay one variant, return its summary.

    Module-level (not a closure) so process pools can pickle it; the
    trace goes through the per-process replayer memo.
    """
    stat = os.stat(trace_path)
    key = (os.path.abspath(trace_path), stat.st_size, stat.st_mtime_ns)
    replayer = _REPLAYER_CACHE.get(key)
    if replayer is None:
        _REPLAYER_CACHE.clear()
        replayer = _REPLAYER_CACHE[key] = build_replayer(trace_path)
    return _summarize(replayer.replay(variant, perturb=perturb))


class WhatIfRunner:
    """Sweeps policy variants over one recorded trace.

    Args:
        trace: a trace path (enables process-pool parallelism) or a parsed
            :class:`~repro.replay.trace.Trace` (replayed sequentially).  Fleet
            and catalog traces both work — the runner dispatches on the
            header's ``trace_type``.
        variants: the policy points to evaluate; names must be unique.
        rank_by: ranking key for the report (one of :data:`RANK_MODES`).
        perturb: optional :class:`~repro.replay.perturb.Perturbation`
            (or compatible hook) applied to the recorded workload in every
            replay *including the baseline*, so counterfactual sweeps are
            scored against the workload they actually saw.  Must be
            picklable for process-pool sweeps over on-disk traces.
    """

    def __init__(
        self,
        trace: str | os.PathLike | Trace,
        variants: list[PolicyVariant],
        rank_by: str = "efficiency",
        perturb=None,
    ) -> None:
        if not variants:
            raise ValidationError("what-if search needs at least one variant")
        names = [variant.name for variant in variants]
        if len(names) != len(set(names)):
            raise ValidationError(f"variant names must be unique, got {names}")
        if rank_by not in RANK_MODES:
            raise ValidationError(
                f"unknown rank_by {rank_by!r}; expected one of {RANK_MODES}"
            )
        if isinstance(trace, Trace):
            self._trace = trace
            self._trace_path: str | None = None
        else:
            self._trace_path = os.fspath(trace)
            self._trace = TraceReader(self._trace_path).read()
        self.variants = list(variants)
        self.rank_by = rank_by
        self.perturb = perturb
        # Trace, variants and perturbation are fixed at construction, so
        # the replayer (with its base-state snapshot) and the
        # no-compaction baseline are computed once and shared by every
        # run() call.
        self._replayer: object | None = None
        self._baseline: ReplayResult | None = None
        # Persistent worker pool, shared across run() calls (recreated only
        # when a run asks for a different width).
        self._pool: WorkerPool | None = None

    def close(self) -> None:
        """Shut the persistent sweep pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "WhatIfRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, workers: int | None = None) -> WhatIfReport:
        """Evaluate every variant and return the ranked report.

        Args:
            workers: maximum replays in flight.  None picks
                ``min(cpu_count, len(variants))``; 1 runs sequentially
                (in-process, reusing one replayer's base-state snapshot),
                as does every run over an in-memory trace or on a
                platform without process workers.

        Scores are identical whatever the worker count — parallelism only
        changes wall-clock time.
        """
        if workers is not None and workers <= 0:
            raise ValidationError("workers must be positive")
        if self._trace_path is None or not process_workers_available():
            workers = 1
        elif workers is None:
            workers = min(os.cpu_count() or 1, len(self.variants))
        workers = min(workers, len(self.variants))

        start = time.perf_counter()
        if self._replayer is None:
            self._replayer = build_replayer(self._trace)
        replayer = self._replayer
        if self._baseline is None:
            self._baseline = replayer.replay_baseline(perturb=self.perturb)
        baseline = self._baseline
        if workers <= 1:
            summaries = [
                _summarize(replayer.replay(variant, perturb=self.perturb))
                for variant in self.variants
            ]
        else:
            summaries = self._run_pool(workers)
        ingested = self._trace.ingested_bytes(perturb=self.perturb)
        scores = [
            self._score(variant, summary, baseline.files_final, ingested)
            for variant, summary in zip(self.variants, summaries)
        ]
        return WhatIfReport(
            scores=scores,
            baseline_files_final=baseline.files_final,
            rank_by=self.rank_by,
            wall_s=time.perf_counter() - start,
            workers=workers,
        )

    def _run_pool(self, workers: int) -> list[dict]:
        """Capped fan-out; results in variant order regardless of completion."""
        pool = self._pool
        if pool is None or pool.max_workers != workers:
            if pool is not None:
                pool.close()
            pool = self._pool = WorkerPool(workers)
        futures = [
            pool.submit(_replay_variant, self._trace_path, variant, self.perturb)
            for variant in self.variants
        ]
        return [future.result() for future in futures]

    @staticmethod
    def _score(
        variant: PolicyVariant, summary: dict, baseline_files: int, ingested: int
    ) -> VariantScore:
        reduction = (
            (baseline_files - summary["files_final"]) / baseline_files
            if baseline_files
            else 0.0
        )
        return VariantScore(
            variant=variant,
            files_final=summary["files_final"],
            files_reduced=summary["files_reduced"],
            reduction_vs_baseline=reduction,
            gbhr=summary["gbhr"],
            write_amplification=write_amplification(summary["rewritten_bytes"], ingested),
            task_failure_rate=task_failure_rate(summary["failures"], summary["tasks"]),
            efficiency=reduction_efficiency(summary["files_reduced"], summary["gbhr"]),
            cycles=summary["cycles"],
            tasks=summary["tasks"],
            report_digest=summary["report_digest"],
        )
