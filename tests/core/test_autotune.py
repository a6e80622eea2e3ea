"""Tests for the threshold auto-tuner (§6.3 FLAML/MLOS substitute)."""

from __future__ import annotations

import pytest

from repro.core import CostFrugalOptimizer, Parameter, RandomSearchOptimizer
from repro.errors import ValidationError


def quadratic(params):
    """Minimum at x = 300."""
    return (params["x"] - 300.0) ** 2


class TestParameter:
    def test_clip(self):
        p = Parameter("x", 10, 100)
        assert p.clip(5) == 10
        assert p.clip(500) == 100
        assert p.clip(50) == 50

    def test_integer_rounding(self):
        p = Parameter("k", 1, 100, integer=True)
        assert p.clip(49.6) == 50.0

    def test_log_sampling_in_range(self):
        from repro.simulation import derive_rng

        p = Parameter("x", 1, 10_000, log=True)
        rng = derive_rng(0, "p")
        samples = [p.sample(rng) for _ in range(200)]
        assert all(1 <= s <= 10_000 for s in samples)
        # Log sampling should put a good share below sqrt(range).
        assert sum(1 for s in samples if s < 100) > 50

    def test_neighbor_stays_in_range(self):
        from repro.simulation import derive_rng

        p = Parameter("x", 0, 10)
        rng = derive_rng(1, "n")
        for _ in range(100):
            assert 0 <= p.neighbor(5.0, 0.5, rng) <= 10

    def test_validation(self):
        with pytest.raises(ValidationError):
            Parameter("x", 10, 10)
        with pytest.raises(ValidationError):
            Parameter("x", 0, 10, log=True)


class TestRandomSearch:
    def test_finds_reasonable_minimum(self):
        result = RandomSearchOptimizer().optimize(
            quadratic, [Parameter("x", 0, 1000)], iterations=60, seed=3
        )
        assert abs(result.best_params["x"] - 300) < 150
        assert result.iterations == 60

    def test_deterministic(self):
        a = RandomSearchOptimizer().optimize(
            quadratic, [Parameter("x", 0, 1000)], iterations=20, seed=9
        )
        b = RandomSearchOptimizer().optimize(
            quadratic, [Parameter("x", 0, 1000)], iterations=20, seed=9
        )
        assert a.best_params == b.best_params
        assert a.objective_series() == b.objective_series()

    def test_best_matches_trials(self):
        result = RandomSearchOptimizer().optimize(
            quadratic, [Parameter("x", 0, 1000)], iterations=15, seed=1
        )
        assert result.best_objective == min(t.objective for t in result.trials)


class TestCostFrugalOptimizer:
    def test_starts_at_low_end(self):
        result = CostFrugalOptimizer().optimize(
            quadratic, [Parameter("x", 50, 1000)], iterations=1, seed=0
        )
        assert result.trials[0].params["x"] == 50.0

    def test_improves_over_start(self):
        result = CostFrugalOptimizer().optimize(
            quadratic, [Parameter("x", 0, 1000)], iterations=40, seed=5
        )
        start_score = result.trials[0].objective
        assert result.best_objective < start_score
        assert abs(result.best_params["x"] - 300) < 120

    def test_beats_random_on_same_budget(self):
        """The CFO-style search should converge at least as well as random
        search on a smooth objective (the MLOS/FLAML premise)."""
        budget = 30
        space = [Parameter("x", 0, 1000)]
        cfo = CostFrugalOptimizer().optimize(quadratic, space, budget, seed=2)
        rnd = RandomSearchOptimizer().optimize(quadratic, space, budget, seed=2)
        assert cfo.best_objective <= rnd.best_objective * 2.0

    def test_deterministic(self):
        a = CostFrugalOptimizer().optimize(
            quadratic, [Parameter("x", 0, 1000)], iterations=25, seed=4
        )
        b = CostFrugalOptimizer().optimize(
            quadratic, [Parameter("x", 0, 1000)], iterations=25, seed=4
        )
        assert a.best_params == b.best_params

    def test_multi_dimensional(self):
        def bowl(params):
            return (params["x"] - 10) ** 2 + (params["y"] - 20) ** 2

        result = CostFrugalOptimizer().optimize(
            bowl,
            [Parameter("x", 0, 100), Parameter("y", 0, 100)],
            iterations=80,
            seed=6,
        )
        assert result.best_objective < bowl({"x": 0, "y": 0})

    def test_hyper_parameter_validation(self):
        with pytest.raises(ValidationError):
            CostFrugalOptimizer(shrink=1.5)
        with pytest.raises(ValidationError):
            CostFrugalOptimizer(initial_step=0)
        with pytest.raises(ValidationError):
            CostFrugalOptimizer(patience=0)


class TestValidation:
    def test_empty_parameters(self):
        with pytest.raises(ValidationError):
            RandomSearchOptimizer().optimize(quadratic, [], 10)

    def test_duplicate_parameters(self):
        with pytest.raises(ValidationError):
            RandomSearchOptimizer().optimize(
                quadratic, [Parameter("x", 0, 1), Parameter("x", 0, 1)], 10
            )

    def test_zero_iterations(self):
        with pytest.raises(ValidationError):
            CostFrugalOptimizer().optimize(quadratic, [Parameter("x", 0, 1)], 0)
