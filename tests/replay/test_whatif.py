"""What-if search: parallel equivalence, ranking, reports, offline priors."""

from __future__ import annotations

import io
from typing import ClassVar

import pytest

from repro.core.autotune import CostFrugalOptimizer, Parameter, RandomSearchOptimizer
from repro.core.ranking import Objective, WeightedSumPolicy
from repro.core.weight_learning import WeightLearner
from repro.errors import ValidationError
from repro.replay import (
    PolicyVariant,
    TraceReader,
    WhatIfRunner,
    variant_grid,
)


@pytest.fixture(scope="module")
def trace(trace_text):
    return TraceReader(io.StringIO(trace_text)).read()


@pytest.fixture(scope="module")
def trace_path(trace_text, tmp_path_factory):
    path = tmp_path_factory.mktemp("policy-lab") / "run.trace.jsonl"
    path.write_text(trace_text)
    return str(path)


VARIANTS = variant_grid(benefit_weights=(0.5, 0.8), ks=(3, 12))


class TestWhatIfRunner:
    def test_sequential_run_scores_every_variant(self, trace):
        report = WhatIfRunner(trace, VARIANTS).run(workers=1)
        assert len(report.scores) == len(VARIANTS)
        assert report.baseline_files_final > 0
        for score in report.scores:
            assert score.files_final < report.baseline_files_final
            assert 0.0 < score.reduction_vs_baseline < 1.0
            assert score.gbhr > 0
            assert score.write_amplification > 0
            assert score.task_failure_rate == 0.0  # fleet backend never conflicts
            assert score.cycles == 12

    def test_parallel_process_pool_matches_sequential(self, trace_path):
        runner = WhatIfRunner(trace_path, VARIANTS)
        sequential = runner.run(workers=1)
        parallel = runner.run(workers=2)
        assert [s.report_digest for s in sequential.scores] == [
            s.report_digest for s in parallel.scores
        ]
        assert [s.files_final for s in sequential.scores] == [
            s.files_final for s in parallel.scores
        ]

    def test_in_memory_trace_replays_sequentially(self, trace):
        with WhatIfRunner(trace, VARIANTS) as runner:
            sequential = runner.run(workers=1)
            asked_for_two = runner.run(workers=2)
            assert runner._pool is None, "in-memory sweeps must start no pool"
        assert asked_for_two.workers == 1
        assert [s.report_digest for s in sequential.scores] == [
            s.report_digest for s in asked_for_two.scores
        ]

    def test_ranking_modes(self, trace):
        runner = WhatIfRunner(trace, VARIANTS, rank_by="gbhr")
        report = runner.run(workers=1)
        costs = [score.gbhr for score in report.ranked()]
        assert costs == sorted(costs)
        report.rank_by = "files_reduced"
        reduced = [score.files_reduced for score in report.ranked()]
        assert reduced == sorted(reduced, reverse=True)

    def test_render_lists_every_variant(self, trace):
        report = WhatIfRunner(trace, VARIANTS).run(workers=1)
        rendered = report.render()
        for variant in VARIANTS:
            assert variant.name in rendered

    def test_rejects_duplicate_variant_names(self, trace):
        twice = [VARIANTS[0], VARIANTS[0]]
        with pytest.raises(ValidationError, match="unique"):
            WhatIfRunner(trace, twice)

    def test_rejects_empty_variant_list(self, trace):
        with pytest.raises(ValidationError, match="at least one"):
            WhatIfRunner(trace, [])

    def test_rejects_unknown_rank_mode(self, trace):
        with pytest.raises(ValidationError, match="rank_by"):
            WhatIfRunner(trace, VARIANTS, rank_by="vibes")

    def test_gbhr_ties_prefer_more_files_reduced(self):
        """A do-nothing variant (0 GBHr, 0 files reduced) must not outrank a
        variant that reduced files for the same zero cost."""
        from repro.replay.whatif import VariantScore, WhatIfReport

        def score(name: str, gbhr: float, files_reduced: int) -> VariantScore:
            return VariantScore(
                variant=PolicyVariant(name=name),
                files_final=1000 - files_reduced,
                files_reduced=files_reduced,
                reduction_vs_baseline=files_reduced / 1000,
                gbhr=gbhr,
                write_amplification=0.0,
                task_failure_rate=0.0,
                efficiency=0.0,
                cycles=1,
                tasks=0,
                report_digest="d",
            )

        report = WhatIfReport(
            scores=[
                score("do-nothing", 0.0, 0),
                score("free-lunch", 0.0, 40),
                score("expensive", 5.0, 90),
            ],
            rank_by="gbhr",
        )
        names = [s.variant.name for s in report.ranked()]
        assert names == ["free-lunch", "do-nothing", "expensive"]


class TestOfflinePriors:
    def test_priors_warm_start_cfo(self, trace):
        report = WhatIfRunner(trace, VARIANTS).run(workers=1)
        priors = report.to_priors()
        assert set(priors) >= {"benefit_weight", "k"}

        evaluated = []

        def objective(params):
            evaluated.append(dict(params))
            return (params["benefit_weight"] - 0.6) ** 2

        space = [
            Parameter("benefit_weight", 0.3, 0.9),
            Parameter("k", 1, 50, integer=True),
        ]
        CostFrugalOptimizer().optimize(objective, space, iterations=3, warm_start=priors)
        # The first evaluation is the what-if winner, clipped into range.
        assert evaluated[0]["benefit_weight"] == pytest.approx(
            min(max(priors["benefit_weight"], 0.3), 0.9)
        )
        assert evaluated[0]["k"] == priors["k"]

    def test_priors_warm_start_random_search_and_ignore_unknown_keys(self):
        evaluated = []

        def objective(params):
            evaluated.append(dict(params))
            return params["x"]

        result = RandomSearchOptimizer().optimize(
            objective,
            [Parameter("x", 0.0, 1.0)],
            iterations=4,
            seed=9,
            warm_start={"x": 0.25, "not_a_dimension": 7.0},
        )
        assert evaluated[0] == {"x": 0.25}
        assert result.iterations == 4

    def test_prior_efficiencies_seed_weight_learner(self, trace):
        report = WhatIfRunner(trace, VARIANTS).run(workers=1)
        priors = report.prior_efficiencies()
        assert priors == sorted(priors, reverse=True)
        policy = WeightedSumPolicy(
            [
                Objective("file_count_reduction", 0.7, maximize=True),
                Objective("compute_cost_gbhr", 0.3, maximize=False),
            ]
        )
        learner = WeightLearner(policy, warmup_cycles=2, prior_efficiencies=priors)
        # Priors exceed the warmup, so the first live observation adjusts.
        class _Result:
            success = True
            skipped = False
            actual_reduction = 10_000
            gbhr = 1.0

        class _Report:
            cycle_index = 0
            results: ClassVar = [_Result()]

        learner.observe(_Report())
        assert learner.updates, "prior-seeded learner should adapt immediately"


class TestVariantHelpers:
    def test_grid_names_are_unique(self):
        grid = variant_grid(
            benefit_weights=(0.4, 0.7),
            ks=(5, 10),
            rankings=("weighted", "quota_aware"),
            trigger_interval_days=(1, 2),
        )
        names = [variant.name for variant in grid]
        assert len(names) == len(set(names))
        # quota-aware points collapse over benefit_weight.
        assert sum(1 for v in grid if v.ranking == "quota_aware") == 4

    def test_variant_validation(self):
        with pytest.raises(ValidationError):
            PolicyVariant(name="")
        with pytest.raises(ValidationError):
            PolicyVariant(name="x", ranking="psychic")
        with pytest.raises(ValidationError):
            PolicyVariant(name="x", k=None)
        with pytest.raises(ValidationError):
            PolicyVariant(name="x", benefit_weight=1.5)
        with pytest.raises(ValidationError):
            PolicyVariant(name="x", trigger_interval_days=0)
