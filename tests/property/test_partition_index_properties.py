"""Oracle test: a table's head partition index equals a from-scratch grouping.

``BaseTable.partitions`` and ``BaseTable.files_in_partitions`` read one
per-table index that a read brings up to date by replaying the commits
made since the previous read, or rebuilds when that chain is broken.
This module drives tables through random histories — appends,
overwrites, row-deltas, rewrites and ``expire_snapshots`` with varied
cutoffs, optionally starting from ``restore_state`` — with reads at
random points, and checks every read against a plain grouping of the
head snapshot's files, id order included.  A threaded case checks that
readers racing on one table's stale index all get the oracle's answer.
"""

from __future__ import annotations

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommitConflictError, ValidationError
from repro.lst import DeltaTable, Field, HudiTable, IcebergTable, Schema, TableIdentifier
from repro.lst.maintenance import plan_rewrite, plan_table_rewrite
from repro.lst.partitioning import IdentityTransform, PartitionField, PartitionSpec
from repro.simulation import SimClock
from repro.storage import SimulatedFileSystem
from repro.units import MiB

FORMATS = {"iceberg": IcebergTable, "delta": DeltaTable, "hudi": HudiTable}
PARTITIONS = 4


def _new_table(fmt: str, clock: SimClock):
    schema = Schema.of(Field("id", "long"), Field("p", "int"))
    spec = PartitionSpec.of(PartitionField("p", IdentityTransform()))
    return FORMATS[fmt](
        TableIdentifier("db", "t"),
        schema,
        spec=spec,
        fs=SimulatedFileSystem(clock=clock),
        properties={"delta.checkpoint-interval": 3},
    )


def _oracle(table, partitions) -> tuple[list[tuple], list]:
    """Sorted partitions and the files of ``partitions``, by a plain scan."""
    snap = table.current_snapshot()
    files = sorted(snap.files.values(), key=lambda f: f.file_id) if snap else []
    wanted = set(partitions)
    return (
        sorted({f.partition for f in files}),
        [f for f in files if f.partition in wanted],
    )


def _assert_read(table, partitions) -> None:
    want_partitions, want_files = _oracle(table, partitions)
    assert table.partitions() == want_partitions
    got = table.files_in_partitions(partitions)
    assert [f.file_id for f in got] == [f.file_id for f in want_files]
    assert all(g is w for g, w in zip(got, want_files))
    plan = plan_table_rewrite(table, partitions=partitions, target_file_size=8 * MiB)
    assert plan == plan_rewrite(
        table.live_files(),
        target_file_size=8 * MiB,
        table=str(table.identifier),
        partitions=partitions,
    )


def _restore(table, data) -> None:
    ids = data.draw(st.lists(st.integers(1, 40), max_size=10, unique=True))
    files = [
        (
            file_id,
            (data.draw(st.integers(0, PARTITIONS - 1)),),
            data.draw(st.sampled_from([1, 4])) * MiB,
        )
        for file_id in ids
    ]
    table.restore_state(
        version=5,
        next_file_id=max(ids, default=0) + 1,
        next_snapshot_id=data.draw(st.sampled_from([8, 12])),
        current_snapshot_id=7,
        created_at=0.0,
        last_modified_at=table.clock.now,
        files=files,
    )


def _commit(table, data, kind: str) -> None:
    partition = (data.draw(st.integers(0, PARTITIONS - 1)),)
    live = [f for f in table.live_files() if f.partition == partition]
    if kind == "overwrite" and live:
        txn = table.new_overwrite()
        for f in data.draw(st.lists(st.sampled_from(live), min_size=1, max_size=3)):
            txn.delete_file(f)
        if data.draw(st.booleans()):
            txn.add_file(2 * MiB, partition=partition)
    elif kind == "rowdelta" and live:
        references = data.draw(st.lists(st.sampled_from(live), min_size=1, max_size=2))
        txn = table.new_row_delta()
        txn.add_deletes(1 * MiB, references)
        if data.draw(st.booleans()):
            txn.add_file(1 * MiB, partition=partition)
    elif kind == "rewrite" and live:
        sources = data.draw(
            st.lists(st.sampled_from(live), min_size=1, max_size=4, unique_by=id)
        )
        total = sum(f.size_bytes for f in sources)
        outputs = [total] if total < 2 or data.draw(st.booleans()) else [1, total - 1]
        txn = table.new_rewrite()
        txn.rewrite(sources, outputs)
    else:
        txn = table.new_append()
        for _ in range(data.draw(st.integers(1, 4))):
            p = (data.draw(st.integers(0, PARTITIONS - 1)),)
            txn.add_file(data.draw(st.sampled_from([1, 2, 16])) * MiB, partition=p)
    try:
        txn.commit()
    except (CommitConflictError, ValidationError):
        pass


def _expire(table, data) -> None:
    timestamps = [s.timestamp for s in table.snapshots()]
    older_than = data.draw(st.none() | st.sampled_from(timestamps + [table.clock.now + 1.0]))
    table.expire_snapshots(older_than=older_than, retain_last=data.draw(st.integers(1, 4)))


def _read_all(table, barrier: threading.Barrier, results: list, slot: int) -> None:
    barrier.wait()
    results[slot] = [
        (table.partitions(), table.files_in_partitions([(p,)])) for p in range(PARTITIONS)
    ]


STEP_KINDS = ["append", "append", "overwrite", "rowdelta", "rewrite", "expire", "read", "read"]


class TestHeadPartitionIndex:
    @given(fmt=st.sampled_from(sorted(FORMATS)), restore=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_read_matches_a_from_scratch_grouping(self, fmt, restore, data):
        clock = SimClock(start=100.0)
        table = _new_table(fmt, clock)
        if restore:
            _restore(table, data)
        if data.draw(st.booleans()):
            _assert_read(table, [(0,)])
        for _ in range(data.draw(st.integers(1, 40))):
            clock.advance_by(data.draw(st.sampled_from([0.0, 1.0, 5.0])))
            kind = data.draw(st.sampled_from(STEP_KINDS))
            if kind == "expire":
                _expire(table, data)
            elif kind == "read":
                partitions = data.draw(
                    st.lists(st.integers(0, PARTITIONS), max_size=3).map(
                        lambda ps: [(p,) for p in ps]
                    )
                )
                _assert_read(table, partitions)
            else:
                _commit(table, data, kind)
        _assert_read(table, [(p,) for p in range(PARTITIONS)])

    def test_concurrent_readers_of_one_stale_index_agree_with_the_oracle(self):
        rng = random.Random(7)
        table = _new_table("iceberg", SimClock(start=0.0))
        readers = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                # A few commits leave the index behind; the readers then
                # race to replay them.
                for _ in range(rng.randint(1, 4)):
                    txn = table.new_append()
                    for _ in range(rng.randint(1, 12)):
                        txn.add_file(MiB, partition=(rng.randrange(PARTITIONS),))
                    txn.commit()
                live = table.live_files()
                if len(live) > 8 and rng.random() < 0.5:
                    by_partition = [f for f in live if f.partition == live[0].partition]
                    txn = table.new_rewrite()
                    txn.rewrite(by_partition, [sum(f.size_bytes for f in by_partition)])
                    txn.commit()
                want = [_oracle(table, [(p,)]) for p in range(PARTITIONS)]
                barrier = threading.Barrier(readers)
                results: list = [None] * readers
                threads = [
                    threading.Thread(target=_read_all, args=(table, barrier, results, i))
                    for i in range(readers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                for got in results:
                    assert got == want
        finally:
            sys.setswitchinterval(interval)
