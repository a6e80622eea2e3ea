"""Tests for periodic and optimize-after-write triggers (FR3, §5)."""

from __future__ import annotations

import pytest

from repro.core import (
    LstConnector,
    LstExecutionBackend,
    OptimizeAfterWriteHook,
    PeriodicTrigger,
)
from repro.core.traits import FileCountReductionTrait, FileEntropyTrait
from repro.engine import Cluster
from repro.errors import ValidationError
from repro.simulation import Simulator
from repro.units import HOUR, MiB

from tests.conftest import fragment_table
from tests.core.test_pipeline import _make_pipeline


@pytest.fixture
def hook_world(catalog, simple_schema, monthly_spec):
    catalog.create_database("db")
    table = catalog.create_table("db.t", simple_schema, spec=monthly_spec)
    connector = LstConnector(catalog)
    backend = LstExecutionBackend(connector, Cluster("maint", executors=2))
    return catalog, table, connector, backend


class TestPeriodicTrigger:
    def test_cycles_fire_on_schedule(self, catalog, simple_schema, monthly_spec):
        catalog.create_database("db")
        table = catalog.create_table("db.t", simple_schema, spec=monthly_spec)
        fragment_table(table, partitions=[(0,)], files_per_partition=8)
        pipeline = _make_pipeline(catalog)
        simulator = Simulator(catalog.clock)
        trigger = PeriodicTrigger(pipeline, HOUR, until=5 * HOUR).attach(simulator)
        simulator.run_until(6 * HOUR)
        assert len(trigger.reports) == 4  # hours 1..4 (until excludes 5h)
        assert trigger.reports[0].successes == 1

    def test_invalid_interval(self, catalog):
        pipeline = _make_pipeline(catalog)
        with pytest.raises(ValidationError):
            PeriodicTrigger(pipeline, 0.0)


class TestOptimizeAfterWriteHook:
    def test_below_threshold_does_nothing(self, hook_world):
        catalog, table, connector, backend = hook_world
        fragment_table(table, partitions=[(0,)], files_per_partition=3)
        hook = OptimizeAfterWriteHook(
            connector, FileCountReductionTrait(), threshold=10, backend=backend
        )
        decision = hook.on_write(table)
        assert not decision.triggered
        assert decision.trait_value == 3.0
        assert table.data_file_count == 3

    def test_trigger_compacts_immediately(self, hook_world):
        catalog, table, connector, backend = hook_world
        fragment_table(table, partitions=[(0,)], files_per_partition=12)
        hook = OptimizeAfterWriteHook(
            connector, FileCountReductionTrait(), threshold=10, backend=backend
        )
        decision = hook.on_write(table)
        assert decision.triggered
        assert decision.result is not None
        assert decision.result.success
        assert table.data_file_count == 1
        assert sum(d.triggered for d in hook.decisions) == 1

    def test_entropy_trait_trigger(self, hook_world):
        catalog, table, connector, backend = hook_world
        fragment_table(table, partitions=[(0,)], files_per_partition=20, file_size=MiB)
        hook = OptimizeAfterWriteHook(
            connector, FileEntropyTrait(), threshold=10.0, backend=backend
        )
        assert hook.on_write(table).triggered

    def test_cooldown_suppresses_repeat_triggers(self, hook_world):
        catalog, table, connector, backend = hook_world
        fragment_table(table, partitions=[(0,)], files_per_partition=12)
        hook = OptimizeAfterWriteHook(
            connector,
            FileCountReductionTrait(),
            threshold=2,
            backend=backend,
            cooldown_s=HOUR,
        )
        assert hook.on_write(table).triggered
        fragment_table(table, partitions=[(0,)], files_per_partition=12)
        assert not hook.on_write(table).triggered  # inside cooldown
        catalog.clock.advance_by(2 * HOUR)
        assert hook.on_write(table).triggered

    def test_notify_mode_decouples_scheduling(self, hook_world):
        """§5: the hook can just notify the service instead of compacting."""
        catalog, table, connector, backend = hook_world
        fragment_table(table, partitions=[(0,)], files_per_partition=12)
        inbox = []
        hook = OptimizeAfterWriteHook(
            connector,
            FileCountReductionTrait(),
            threshold=5,
            mode="notify",
            notify=inbox.append,
        )
        decision = hook.on_write(table)
        assert decision.triggered
        assert decision.result is None
        assert len(inbox) == 1
        assert inbox[0].qualified_table == "db.t"
        assert table.data_file_count == 12  # nothing compacted yet

    def test_skip_result_when_plan_empty(self, hook_world):
        catalog, table, connector, backend = hook_world
        # One big file: trait passes threshold 0 but nothing to rewrite.
        txn = table.new_append()
        txn.add_file(600 * MiB, partition=(0,))
        txn.commit()
        hook = OptimizeAfterWriteHook(
            connector, FileCountReductionTrait(), threshold=0, backend=backend
        )
        decision = hook.on_write(table)
        assert decision.triggered
        assert decision.result.skipped

    def test_mode_validation(self, hook_world):
        _, _, connector, backend = hook_world
        trait = FileCountReductionTrait()
        with pytest.raises(ValidationError):
            OptimizeAfterWriteHook(connector, trait, 1, mode="weird", backend=backend)
        with pytest.raises(ValidationError):
            OptimizeAfterWriteHook(connector, trait, 1, mode="immediate")
        with pytest.raises(ValidationError):
            OptimizeAfterWriteHook(connector, trait, 1, mode="notify")
        with pytest.raises(ValidationError):
            OptimizeAfterWriteHook(
                connector, trait, 1, backend=backend, cooldown_s=-1
            )

    def test_decisions_log_is_explainable(self, hook_world):
        """NFR2: every evaluation is recorded with its trait value."""
        catalog, table, connector, backend = hook_world
        fragment_table(table, partitions=[(0,)], files_per_partition=4)
        hook = OptimizeAfterWriteHook(
            connector, FileCountReductionTrait(), threshold=100, backend=backend
        )
        hook.on_write(table)
        hook.on_write(table)
        assert len(hook.decisions) == 2
        assert all(d.trait_value == 4.0 for d in hook.decisions)
