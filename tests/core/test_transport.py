"""Unit tests for the worker transport and its pool contracts.

Covers:

* **capability** — a connector feeds process workers exactly when
  :meth:`~repro.core.connectors.Connector.worker_transport` returns a
  transport;
* **handshake** — :meth:`~repro.core.workers.WorkerPool.negotiate` is the
  pool's single version check, raising one
  :class:`~repro.core.workers.WorkerError` that names both sides;
* **result shape** — a worker result that does not match its spec is
  rejected with a :class:`~repro.errors.ValidationError` naming the shard,
  instead of being truncated silently;
* **segment lifecycle** — shared-memory blocks tracked with a pool never
  outlive it, whether the pool closes normally or a worker crashed, and a
  process-mode cycle leaves no segment for a resource tracker to reap.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    LstConnector,
    Objective,
    TopKSelector,
    TraitRegistry,
    WeightedSumPolicy,
    run_shard_work,
)
from repro.core.columnar import ColumnarMissBlock, ColumnarResultPayload
from repro.core.connectors import Connector
from repro.core.traits import ComputeCostTrait, FileCountReductionTrait
from repro.core.workers import (
    WORK_SPEC_VERSION,
    CacheDelta,
    TransportContract,
    WorkerError,
    WorkerPool,
    process_workers_available,
)
from repro.errors import ValidationError
from repro.units import GiB

from tests.conftest import fragment_table


class _PlainConnector(Connector):
    """No worker-observe support at all: thread-pool fallback territory."""

    def list_candidates(self, strategy: str = "table"):
        return []

    def collect_statistics(self, key):
        raise NotImplementedError


class TestCapability:
    def test_plain_connector_yields_no_transport_and_no_warning(self):
        connector = _PlainConnector()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert connector.worker_transport() is None


class TestHandshake:
    @pytest.mark.skipif(
        not process_workers_available(), reason="process workers need fork"
    )
    def test_process_pool_handshake_round_trips_through_a_worker(self):
        with WorkerPool(1) as pool:
            contract = pool.negotiate()
            assert contract.version == WORK_SPEC_VERSION
            # Cached: the second call must not cost another round trip.
            assert pool.negotiate() is contract

    def test_version_mismatch_raises_one_error_naming_both_sides(self):
        pool = WorkerPool()
        try:
            # Simulate workers answering with an older build's contract.
            pool._contract = TransportContract(version=WORK_SPEC_VERSION - 1)
            with pytest.raises(WorkerError, match="handshake") as excinfo:
                pool.negotiate()
            message = str(excinfo.value)
            assert f"v{WORK_SPEC_VERSION}" in message  # coordinator side
            assert f"v{WORK_SPEC_VERSION - 1}" in message  # worker side
        finally:
            pool.close()


def _registry() -> TraitRegistry:
    return TraitRegistry(
        [
            FileCountReductionTrait(),
            ComputeCostTrait(executor_memory_gb=192.0, rewrite_bytes_per_hour=768 * GiB),
        ]
    )


@pytest.fixture
def exported(populated):
    """A cold export of three catalog tables: ``(transport, placed, spec)``."""
    connector = LstConnector(populated)
    transport = connector.worker_transport()
    keys = connector.list_candidates("table")
    placed, spec = transport.export(keys, 3, _registry())
    yield transport, placed, spec
    transport.release(spec)


@pytest.fixture
def populated(catalog, simple_schema):
    catalog.create_database("db")
    for i in range(3):
        table = catalog.create_table(f"db.t{i}", simple_schema)
        fragment_table(table, partitions=[()], files_per_partition=4 + i)
    return catalog


def _decided(transport, placed, spec):
    return transport.attach_decide(
        spec,
        placed,
        WeightedSumPolicy([Objective("file_count_reduction", 1.0, maximize=True)]),
        TopKSelector(2),
        (),
    )


class TestResultShapeValidation:
    """Forged worker results must fail loudly, naming the shard."""

    def test_short_matrix_is_rejected(self, exported):
        transport, placed, spec = exported
        result = run_shard_work(spec)
        forged = dataclasses.replace(
            result,
            columnar=ColumnarResultPayload(
                trait_names=result.columnar.trait_names,
                matrix=result.columnar.matrix[:-1],
            ),
        )
        with pytest.raises(ValidationError, match=r"shard 3 .*shape"):
            transport.merge(spec, placed, forged)

    def test_foreign_trait_names_are_rejected(self, exported):
        transport, placed, spec = exported
        result = run_shard_work(spec)
        names = tuple(reversed(result.columnar.trait_names))
        forged = dataclasses.replace(
            result,
            columnar=ColumnarResultPayload(trait_names=names, matrix=result.columnar.matrix),
        )
        with pytest.raises(ValidationError, match=r"shard 3 .*traits"):
            transport.merge(spec, placed, forged)

    def test_short_cache_delta_is_rejected(self, exported):
        transport, placed, spec = exported
        result = run_shard_work(spec)
        delta = result.cache_delta
        forged = dataclasses.replace(
            result,
            cache_delta=CacheDelta(delta.slots[:-1], delta.tokens[:-1], delta.stored_at),
        )
        with pytest.raises(ValidationError, match=r"shard 3 .*cache delta"):
            transport.merge(spec, placed, forged)

    @pytest.mark.parametrize("ref", [("miss", 3), ("miss", -1), ("hit", 0), ("other", 0)])
    def test_out_of_range_selection_is_rejected(self, exported, ref):
        transport, placed, spec = exported
        decided = _decided(transport, placed, spec)
        result = run_shard_work(decided)
        assert len(result.columnar.selected) == 2
        forged = dataclasses.replace(
            result,
            columnar=dataclasses.replace(
                result.columnar, selected=(ref,), scores=(1.0,)
            ),
        )
        with pytest.raises(ValidationError, match=r"shard 3 .*selects"):
            transport.merge_decision(decided, placed, forged)

    def test_padded_matrix_is_rejected(self, exported):
        transport, placed, spec = exported
        result = run_shard_work(spec)
        padded = np.vstack([result.columnar.matrix, result.columnar.matrix[:1]])
        forged = dataclasses.replace(
            result,
            columnar=ColumnarResultPayload(
                trait_names=result.columnar.trait_names, matrix=padded
            ),
        )
        with pytest.raises(ValidationError, match="shard 3"):
            transport.merge(spec, placed, forged)


def _shm_block() -> ColumnarMissBlock:
    """A miss block forced onto shared memory (``min_shm_bytes=0``)."""
    n = 4
    return ColumnarMissBlock.from_sizes(
        [tuple(range(1, 401))] * n,
        targets=[512] * n,
        partition_counts=[1] * n,
        delete_file_counts=[0] * n,
        created_at=[0.0] * n,
        last_modified_at=[1.0] * n,
        quota_utilization=[0.5] * n,
        min_shm_bytes=0,
    )


def _segment_path(block: ColumnarMissBlock) -> str:
    name = block._block._shm_name
    assert name, "block should be shm-backed"
    return os.path.join("/dev/shm", name.lstrip("/"))


def _sigkill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


#: One cold 2-shard process-mode LST cycle, large enough that every shard
#: ships its misses in a shared-memory segment.
_ONE_PROCESS_CYCLE = textwrap.dedent(
    """
    from repro.catalog import Catalog
    from repro.core import IndexedCandidateCache, openhouse_sharded_pipeline
    from repro.engine import Cluster
    from repro.lst import Field, Schema
    from repro.units import MiB

    catalog = Catalog()
    catalog.create_database("db")
    schema = Schema.of(Field("id", "long"))
    for i in range(16):
        txn = catalog.create_table(f"db.t{i:02d}", schema).new_append()
        for j in range(300):
            txn.add_file((8 + j % 5) * MiB, partition=())
        txn.commit()
    with openhouse_sharded_pipeline(
        catalog,
        Cluster("maint", executors=2),
        n_shards=2,
        stats_cache=IndexedCandidateCache(),
        selection="local",
        workers="processes",
        max_workers=2,
        k=4,
        min_table_age_s=0.0,
    ) as pipeline:
        report = pipeline.run_cycle(now=catalog.clock.now)
    assert len(report.selected) == 4, report.selected
    print("cycle ok")
    """
)


class TestSegmentLifecycle:
    def test_pool_close_unlinks_tracked_segments(self):
        block = _shm_block()
        assert block.backing == "shm"
        path = _segment_path(block)
        pool = WorkerPool()
        pool.track_resource(block)
        assert os.path.exists(path)
        pool.close()
        assert not os.path.exists(path)

    def test_untracked_segments_are_left_alone(self):
        block = _shm_block()
        path = _segment_path(block)
        pool = WorkerPool()
        pool.track_resource(block)
        pool.untrack_resource(block)  # the normal per-cycle release path
        pool.close()
        assert os.path.exists(path)
        block.dispose()
        assert not os.path.exists(path)

    @pytest.mark.skipif(
        not process_workers_available(), reason="process workers need fork"
    )
    def test_worker_crash_still_unlinks_segments(self):
        block = _shm_block()
        path = _segment_path(block)
        pool = WorkerPool(1)
        try:
            pool.track_resource(block)
            future = pool.submit(_sigkill_self)
            with pytest.raises(Exception):
                future.result(timeout=60)
        finally:
            pool.close()
        assert not os.path.exists(path)

    @pytest.mark.skipif(
        not process_workers_available(), reason="process workers need fork"
    )
    def test_process_cycle_leaves_nothing_for_the_resource_tracker(self):
        """Regression: workers forked before the coordinator's resource
        tracker existed started trackers of their own, which at exit
        reported the coordinator's segments as leaked and unlinked them."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", _ONE_PROCESS_CYCLE],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "cycle ok" in completed.stdout
        assert "resource_tracker" not in completed.stderr, completed.stderr
