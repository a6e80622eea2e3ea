"""Feedback-driven MOOP weight adaptation (§8).

The paper proposes "leveraging regression analysis techniques ... to move
beyond the reliance on fixed weights".  This module closes AutoComp's
feedback loop: a :class:`WeightLearner` observes completed cycles (via the
pipeline's ``feedback_hooks``), regresses *realised* file-count reduction
per GBHr on the decide-phase estimates, and nudges the benefit weight up
when compaction is paying off better than expected (and down otherwise).

The learner is deliberately conservative — bounded weights, small steps,
and a minimum sample count — because it adjusts a production control loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.pipeline import CycleReport
from repro.core.ranking import Objective, WeightedSumPolicy
from repro.errors import ValidationError


@dataclass
class WeightUpdate:
    """One adjustment made by the learner."""

    cycle_index: int
    observed_efficiency: float
    expected_efficiency: float
    new_benefit_weight: float


class WeightLearner:
    """Adapts a two-objective :class:`WeightedSumPolicy` from outcomes.

    Efficiency is defined as *actual files reduced per actual GBHr spent*.
    The learner keeps a running expectation; when a cycle beats it, spending
    compute is evidently cheap relative to benefit, so the benefit weight
    rises (more aggressive compaction); when a cycle underperforms, the
    weight falls back toward cost-consciousness.

    Args:
        policy: the live policy to adjust (objectives are replaced in
            place at each update).
        benefit_trait: the maximised trait name.
        cost_trait: the minimised trait name.
        learning_rate: step size per cycle, in weight units.
        min_weight / max_weight: clamp range for the benefit weight.
        warmup_cycles: cycles observed before any adjustment.
        prior_efficiencies: offline efficiency observations (files reduced
            per GBHr) seeding the running expectation — e.g. the Policy
            Lab's :meth:`~repro.replay.whatif.WhatIfReport.prior_efficiencies`.
            Priors count toward the warmup, so a learner seeded with
            ``warmup_cycles`` or more of them adapts from its very first
            live cycle.
    """

    def __init__(
        self,
        policy: WeightedSumPolicy,
        benefit_trait: str = "file_count_reduction",
        cost_trait: str = "compute_cost_gbhr",
        learning_rate: float = 0.02,
        min_weight: float = 0.3,
        max_weight: float = 0.9,
        warmup_cycles: int = 2,
        prior_efficiencies: "Sequence[float]" = (),
    ) -> None:
        if not 0 < learning_rate < 0.5:
            raise ValidationError("learning_rate must be in (0, 0.5)")
        if not 0 < min_weight < max_weight < 1:
            raise ValidationError("need 0 < min_weight < max_weight < 1")
        if warmup_cycles < 0:
            raise ValidationError("warmup_cycles must be >= 0")
        self.policy = policy
        self.benefit_trait = benefit_trait
        self.cost_trait = cost_trait
        self.learning_rate = learning_rate
        self.min_weight = min_weight
        self.max_weight = max_weight
        self.warmup_cycles = warmup_cycles
        if any(e < 0 for e in prior_efficiencies):
            raise ValidationError("prior efficiencies must be >= 0")
        self._efficiencies: list[float] = list(prior_efficiencies)
        self.updates: list[WeightUpdate] = []

    @property
    def benefit_weight(self) -> float:
        """Current benefit weight of the managed policy."""
        for objective in self.policy.objectives:
            if objective.trait_name == self.benefit_trait:
                return objective.weight
        raise ValidationError(
            f"policy has no objective on {self.benefit_trait!r}"
        )

    def _set_benefit_weight(self, weight: float) -> None:
        weight = min(max(weight, self.min_weight), self.max_weight)
        self.policy.objectives = [
            Objective(self.benefit_trait, weight, maximize=True),
            Objective(self.cost_trait, 1.0 - weight, maximize=False),
        ]

    def observe(self, report: CycleReport) -> None:
        """Feedback hook: fold one finished cycle into the weights.

        Register with the pipeline as ``feedback_hooks=[learner.observe]``.
        """
        reduced = sum(r.actual_reduction for r in report.results if r.success)
        spent = sum(r.gbhr for r in report.results if r.success)
        if spent <= 0:
            return
        efficiency = reduced / spent
        expected = (
            float(np.mean(self._efficiencies)) if self._efficiencies else efficiency
        )
        self._efficiencies.append(efficiency)
        if len(self._efficiencies) <= self.warmup_cycles:
            return
        direction = 1.0 if efficiency > expected else -1.0
        new_weight = self.benefit_weight + direction * self.learning_rate
        self._set_benefit_weight(new_weight)
        self.updates.append(
            WeightUpdate(
                cycle_index=report.cycle_index,
                observed_efficiency=efficiency,
                expected_efficiency=expected,
                new_benefit_weight=self.benefit_weight,
            )
        )

    def regress_efficiency(
        self, reports: list[CycleReport]
    ) -> tuple[float, float] | None:
        """Least-squares fit of realised reduction against realised cost.

        Returns:
            ``(slope, intercept)`` of ``files_reduced ~ gbhr`` across all
            successful results in ``reports`` (the §8 regression analysis),
            or None with fewer than two samples.
        """
        xs = []
        ys = []
        for report in reports:
            for result in report.results:
                if result.success:
                    xs.append(result.gbhr)
                    ys.append(float(result.actual_reduction))
        if len(xs) < 2 or len(set(xs)) < 2:
            return None
        design = np.vstack([np.array(xs), np.ones(len(xs))]).T
        (slope, intercept), *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
        return float(slope), float(intercept)
