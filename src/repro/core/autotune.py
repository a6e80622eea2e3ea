"""Auto-tuning of compaction triggers (§6.3).

The paper tunes trigger thresholds (small-file count, file entropy) with
the FLAML optimizer inside MLOS, minimising end-to-end workload duration.
Neither is available offline, so this module provides two deterministic
optimisers with the same interface and convergence *shape*:

* :class:`RandomSearchOptimizer` — the baseline MLOS would compare against;
* :class:`CostFrugalOptimizer` — a FLAML-CFO-style local search: start
  from the low-cost end of the space, move to a random neighbour when it
  improves, shrink the step size after repeated failures.

Objectives are plain callables ``params -> float`` (lower is better), so
the same tuner drives any experiment that can score a parameter dict —
the Figure 9 benches score a full simulated LST-Bench run per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ValidationError
from repro.simulation.rng import derive_rng


@dataclass(frozen=True)
class Parameter:
    """One tunable dimension of the search space."""

    name: str
    low: float
    high: float
    #: Sample/step on a log scale (for thresholds spanning decades).
    log: bool = False
    #: Round values to integers (e.g. file-count thresholds).
    integer: bool = False

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise ValidationError(f"{self.name}: high must exceed low")
        if self.log and self.low <= 0:
            raise ValidationError(f"{self.name}: log scale requires low > 0")

    def clip(self, value: float) -> float:
        """Clamp into range and round if integer-valued."""
        value = min(max(value, self.low), self.high)
        return float(round(value)) if self.integer else value

    def sample(self, rng) -> float:
        """Uniform (or log-uniform) random value."""
        if self.log:
            value = math.exp(rng.uniform(math.log(self.low), math.log(self.high)))
        else:
            value = rng.uniform(self.low, self.high)
        return self.clip(value)

    def neighbor(self, value: float, step: float, rng) -> float:
        """A local move of relative size ``step`` from ``value``."""
        if self.log:
            factor = math.exp(rng.normal(0.0, step))
            return self.clip(value * factor)
        span = self.high - self.low
        return self.clip(value + rng.normal(0.0, step) * span)


@dataclass(frozen=True)
class Trial:
    """One objective evaluation."""

    params: dict[str, float]
    objective: float


@dataclass
class TuningResult:
    """Outcome of an optimisation run."""

    best_params: dict[str, float]
    best_objective: float
    trials: list[Trial] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of objective evaluations performed."""
        return len(self.trials)

    def objective_series(self) -> list[float]:
        """Objective value per iteration (the Figure 9 y-axis)."""
        return [t.objective for t in self.trials]


class Optimizer:
    """Base class for threshold optimisers."""

    def optimize(
        self,
        objective: Callable[[dict[str, float]], float],
        parameters: list[Parameter],
        iterations: int,
        seed: int = 0,
        warm_start: dict[str, float] | None = None,
    ) -> TuningResult:
        """Minimise ``objective`` over ``parameters``.

        Args:
            objective: ``params -> score`` (lower is better); called once
                per iteration.
            parameters: search-space definition.
            iterations: evaluation budget.
            seed: determinism root.
            warm_start: optional offline prior — parameter values (e.g. the
                Policy Lab's :meth:`~repro.replay.whatif.WhatIfReport.to_priors`)
                used as the first evaluation point instead of a cold start.
                Values are clipped into range; keys outside the search
                space are ignored, missing keys fall back to the
                optimizer's cold-start rule.
        """
        raise NotImplementedError

    @staticmethod
    def _validate(parameters: list[Parameter], iterations: int) -> None:
        if not parameters:
            raise ValidationError("need at least one parameter")
        names = [p.name for p in parameters]
        if len(names) != len(set(names)):
            raise ValidationError(f"duplicate parameter names: {names}")
        if iterations <= 0:
            raise ValidationError("iterations must be positive")

    @staticmethod
    def _warm_point(
        parameters: list[Parameter],
        warm_start: dict[str, float],
        fallback: Callable[[Parameter], float],
    ) -> dict[str, float]:
        """The warm-start evaluation point: prior values clipped, rest cold."""
        return {
            p.name: p.clip(float(warm_start[p.name]))
            if p.name in warm_start
            else fallback(p)
            for p in parameters
        }


class RandomSearchOptimizer(Optimizer):
    """Independent uniform samples each iteration.

    With a ``warm_start``, the first evaluation is the prior point (missing
    dimensions sampled) and the remaining budget stays fully random.
    """

    def optimize(self, objective, parameters, iterations, seed=0, warm_start=None):
        self._validate(parameters, iterations)
        rng = derive_rng(seed, "random-search")
        trials: list[Trial] = []
        if warm_start is not None:
            params = self._warm_point(parameters, warm_start, lambda p: p.sample(rng))
            trials.append(Trial(params=params, objective=float(objective(params))))
        while len(trials) < iterations:
            params = {p.name: p.sample(rng) for p in parameters}
            trials.append(Trial(params=params, objective=float(objective(params))))
        best = min(trials, key=lambda t: t.objective)
        return TuningResult(
            best_params=dict(best.params), best_objective=best.objective, trials=trials
        )


class CostFrugalOptimizer(Optimizer):
    """FLAML-CFO-style local search.

    Starts at the low end of every parameter (the cheap-to-evaluate corner
    in FLAML's cost-frugal framing), proposes Gaussian neighbours of the
    incumbent, moves on improvement, and shrinks the step after
    ``patience`` consecutive failures.  Deterministic under a fixed seed.

    Args:
        initial_step: initial relative step size.
        shrink: multiplicative step decay on stagnation.
        patience: failures tolerated before shrinking.
    """

    def __init__(
        self,
        initial_step: float = 0.25,
        shrink: float = 0.6,
        patience: int = 3,
    ) -> None:
        if not 0 < shrink < 1:
            raise ValidationError("shrink must be in (0, 1)")
        if initial_step <= 0:
            raise ValidationError("initial_step must be positive")
        if patience < 1:
            raise ValidationError("patience must be >= 1")
        self.initial_step = initial_step
        self.shrink = shrink
        self.patience = patience

    def optimize(self, objective, parameters, iterations, seed=0, warm_start=None):
        self._validate(parameters, iterations)
        rng = derive_rng(seed, "cfo")
        # An offline prior (e.g. a Policy Lab what-if winner) replaces the
        # cold low corner as the incumbent the local search refines.
        incumbent = self._warm_point(parameters, warm_start or {}, lambda p: p.clip(p.low))
        incumbent_score = float(objective(incumbent))
        trials = [Trial(params=dict(incumbent), objective=incumbent_score)]

        step = self.initial_step
        failures = 0
        for _ in range(iterations - 1):
            proposal = {
                p.name: p.neighbor(incumbent[p.name], step, rng) for p in parameters
            }
            score = float(objective(proposal))
            trials.append(Trial(params=dict(proposal), objective=score))
            if score < incumbent_score:
                incumbent, incumbent_score = proposal, score
                failures = 0
            else:
                failures += 1
                if failures >= self.patience:
                    step *= self.shrink
                    failures = 0
        return TuningResult(
            best_params=dict(incumbent), best_objective=incumbent_score, trials=trials
        )
