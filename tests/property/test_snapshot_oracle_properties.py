"""Oracle test: id-keyed snapshots and delta expiry match the frozenset model.

Snapshots keep their live sets as id-keyed maps derived from the parent by
O(Δ) patches, and expiration deletes files from per-commit removal deltas.
This module keeps a reference copy of the simpler model those replaced —
every snapshot holds a ``frozenset`` of live files rebuilt from the parent
on each commit, and expiration walks every retained snapshot's live set to
find what is still reachable — and runs it in lock-step with a real table
over random histories: appends, overwrites, row-deltas, rewrites, stale
transactions, attempts to remove files that are no longer live, and
``expire_snapshots`` with random cutoffs and ``retain_last``, optionally
starting from ``restore_state``.  After every step the live and delete
sets, ``ordered_files``, the partition index, each summary and the set of
physically deleted paths must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommitConflictError, ValidationError
from repro.lst import DeltaTable, Field, HudiTable, IcebergTable, Schema, TableIdentifier
from repro.lst.partitioning import IdentityTransform, PartitionField, PartitionSpec
from repro.simulation import SimClock
from repro.storage import SimulatedFileSystem
from repro.units import MiB

FORMATS = {"iceberg": IcebergTable, "delta": DeltaTable, "hudi": HudiTable}
PARTITIONS = 3


@dataclass(frozen=True, eq=False)
class RefSnapshot:
    snapshot_id: int
    sequence_number: int
    timestamp: float
    live_files: frozenset
    delete_files: frozenset
    manifest_paths: tuple
    exclusive_metadata_paths: tuple
    summary: dict


class FrozensetModel:
    """The frozenset-per-snapshot commit and expiry algorithm, kept as oracle."""

    def __init__(self) -> None:
        self.snapshots: list[RefSnapshot] = []

    @property
    def current(self) -> RefSnapshot | None:
        return self.snapshots[-1] if self.snapshots else None

    def live_by_id(self) -> dict:
        snap = self.current
        return {f.file_id: f for f in snap.live_files} if snap else {}

    def restore(self, real) -> None:
        self.snapshots = [
            RefSnapshot(
                real.snapshot_id,
                real.sequence_number,
                real.timestamp,
                frozenset(real.live_files),
                frozenset(real.delete_files),
                real.manifest_paths,
                real.exclusive_metadata_paths,
                dict(real.summary),
            )
        ]

    def commit(self, real, staged_ids, added_data, added_deletes) -> None:
        parent = self.current
        old_files = parent.live_files if parent else frozenset()
        old_deletes = parent.delete_files if parent else frozenset()
        removed_ids = frozenset(staged_ids)
        new_files = frozenset(f for f in old_files if f.file_id not in removed_ids)
        new_files |= frozenset(added_data)
        live_ids = frozenset(f.file_id for f in new_files)
        surviving_deletes = frozenset(d for d in old_deletes if d.references & live_ids)
        dropped_deletes = old_deletes - surviving_deletes
        new_deletes = surviving_deletes | frozenset(added_deletes)
        self.snapshots.append(
            RefSnapshot(
                real.snapshot_id,
                real.sequence_number,
                real.timestamp,
                new_files,
                new_deletes,
                real.manifest_paths,
                real.exclusive_metadata_paths,
                {
                    "added-data-files": len(added_data),
                    "added-delete-files": len(added_deletes),
                    "removed-data-files": len(removed_ids),
                    "dropped-delete-files": len(dropped_deletes),
                    "total-data-files": len(new_files),
                },
            )
        )

    def expire(self, namenode, older_than, retain_last) -> set[str]:
        """Paths the reference would delete; drops its expired snapshots."""
        ordered = sorted(self.snapshots, key=lambda s: s.sequence_number)
        if not ordered:
            return set()
        cutoff = older_than if older_than is not None else float("inf")
        keep_tail = {s.snapshot_id for s in ordered[-retain_last:]}
        retained = [
            s for s in ordered if s.snapshot_id in keep_tail or s.timestamp > cutoff
        ]
        retained_ids = {s.snapshot_id for s in retained}
        expired = [s for s in ordered if s.snapshot_id not in retained_ids]
        if not expired:
            return set()
        reachable: set[int] = set()
        for snap in retained:
            reachable.update(f.file_id for f in snap.live_files)
            reachable.update(d.file_id for d in snap.delete_files)
        retained_manifests: set[str] = set()
        for snap in retained:
            retained_manifests.update(snap.manifest_paths)
        deleted: set[str] = set()

        def remove(path: str) -> None:
            if namenode.exists(path):
                deleted.add(path)

        for snap in expired:
            for f in list(snap.live_files) + list(snap.delete_files):
                if f.file_id not in reachable:
                    remove(f.path)
            for path in snap.exclusive_metadata_paths:
                remove(path)
            for path in snap.manifest_paths:
                if path not in retained_manifests:
                    remove(path)
        self.snapshots = retained
        return deleted


def _new_table(fmt: str, clock: SimClock):
    schema = Schema.of(Field("id", "long"), Field("p", "int"))
    spec = PartitionSpec.of(PartitionField("p", IdentityTransform()))
    fs = SimulatedFileSystem(clock=clock)
    return FORMATS[fmt](
        TableIdentifier("db", "t"),
        schema,
        spec=spec,
        fs=fs,
        properties={"delta.checkpoint-interval": 3},
    )


def _assert_matches(table, model: FrozensetModel) -> None:
    real = table.snapshots()
    assert [s.snapshot_id for s in real] == [s.snapshot_id for s in model.snapshots]
    for got, want in zip(real, model.snapshots):
        assert frozenset(got.live_files) == want.live_files
        assert len(got.live_files) == len(want.live_files)
        assert frozenset(got.delete_files) == want.delete_files
        assert len(got.delete_files) == len(want.delete_files)
        ordered = tuple(sorted(want.live_files, key=lambda f: f.file_id))
        assert got.ordered_files == ordered
        by_partition: dict = {}
        for f in ordered:
            by_partition.setdefault(f.partition, []).append(f)
        assert got.files_by_partition == {p: tuple(fs) for p, fs in by_partition.items()}
        assert got.partitions() == sorted(by_partition)
        assert got.summary == want.summary
        assert got.manifest_paths == want.manifest_paths


class _History:
    """Drives one table and the model through the same random steps."""

    def __init__(self, data, table, model: FrozensetModel) -> None:
        self.data = data
        self.table = table
        self.model = model
        self.graveyard: list = []  # data files some commit removed
        self.hook_log: list = []
        table.commit_hooks.append(lambda *event: self.hook_log.append(event))

    def draw(self, strategy):
        return self.data.draw(strategy)

    def live_in(self, partition: tuple) -> list:
        return [f for f in self.table.live_files() if f.partition == partition]

    def stage(self, kind: str):
        """Stage one transaction; returns ``(txn, files_it_removes)``."""
        partition = (self.draw(st.integers(0, PARTITIONS - 1)),)
        live = self.live_in(partition)
        if kind == "overwrite" and live:
            victims = self.draw(st.lists(st.sampled_from(live), min_size=1, max_size=2))
            txn = self.table.new_overwrite()
            for f in victims:
                txn.delete_file(f)
            if self.draw(st.booleans()):
                txn.add_file(3 * MiB, partition=partition)
            return txn, victims
        if kind == "rowdelta" and (live or self.graveyard):
            pool = live if live and self.draw(st.booleans()) else (live or self.graveyard)
            references = self.draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique_by=id)
            )
            txn = self.table.new_row_delta()
            txn.add_deletes(1 * MiB, references)
            return txn, []
        if kind == "rewrite" and live:
            sources = self.draw(
                st.lists(st.sampled_from(live), min_size=1, max_size=3, unique_by=id)
            )
            total = sum(f.size_bytes for f in sources)
            outputs = [total]
            if total > 1 and self.draw(st.booleans()):
                outputs = [total // 2, total - total // 2]
            txn = self.table.new_rewrite()
            txn.rewrite(sources, outputs)
            return txn, sources
        if kind == "dead_rewrite" and self.graveyard:
            source = self.draw(st.sampled_from(self.graveyard))
            txn = self.table.new_rewrite()
            txn.rewrite([source], [source.size_bytes])
            return txn, [source]
        txn = self.table.new_append()
        for _ in range(self.draw(st.integers(1, 3))):
            txn.add_file(self.draw(st.sampled_from([1, 2, 4])) * MiB, partition=partition)
        return txn, []

    def commit(self, txn, staged: list) -> None:
        live = self.model.live_by_id()
        concurrent = self.table.version != txn.base_version
        not_live = [f for f in staged if live.get(f.file_id) != f]
        self.hook_log.clear()
        try:
            txn.commit()
        except CommitConflictError:
            assert concurrent
            return
        except ValidationError:
            assert not_live and not concurrent
            return
        assert not not_live, "a commit removed files that were not live"
        ((_, _, added_data, added_deletes, removed_ids),) = self.hook_log
        staged_ids = {f.file_id for f in staged}
        assert removed_ids == frozenset(staged_ids)
        self.graveyard.extend(live[i] for i in sorted(staged_ids))
        self.model.commit(
            self.table.current_snapshot(), staged_ids, added_data, added_deletes
        )

    def expire(self) -> None:
        timestamps = [s.timestamp for s in self.table.snapshots()]
        older_than = self.draw(
            st.none() | st.sampled_from(timestamps + [self.table.clock.now + 1.0])
            if timestamps
            else st.none()
        )
        retain_last = self.draw(st.integers(1, 3))
        namenode = self.table.fs.namenode
        want = self.model.expire(namenode, older_than, retain_last)
        before = {info.path for info in namenode.files_under("/")}
        count = self.table.expire_snapshots(older_than=older_than, retain_last=retain_last)
        after = {info.path for info in namenode.files_under("/")}
        assert before - after == want
        assert count == len(want)


def _restore(table, data) -> None:
    ids = data.draw(st.lists(st.integers(1, 40), min_size=0, max_size=8, unique=True))
    data_ids = ids[: len(ids) // 2 + 1] if ids else []
    delete_ids = ids[len(data_ids) :]
    files = [
        (
            file_id,
            (data.draw(st.integers(0, PARTITIONS - 1)),),
            data.draw(st.sampled_from([1, 4])) * MiB,
        )
        for file_id in data_ids
    ]
    deletes = [
        (
            file_id,
            (0,),
            1 * MiB,
            frozenset(data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=2))),
        )
        for file_id in delete_ids
    ]
    table.restore_state(
        version=7,
        next_file_id=max(ids, default=0) + 1,
        next_snapshot_id=10,
        current_snapshot_id=9,
        created_at=0.0,
        last_modified_at=table.clock.now,
        files=files,
        deletes=deletes,
    )
    snap = table.current_snapshot()
    assert [(f.file_id, f.partition, f.size_bytes) for f in snap.ordered_files] == sorted(files)


STEP_KINDS = [
    "append", "append", "overwrite", "rowdelta", "rewrite", "dead_rewrite", "stale", "expire"
]


class TestSnapshotOracle:
    @given(
        fmt=st.sampled_from(sorted(FORMATS)),
        restore=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_frozenset_model(self, fmt, restore, data):
        clock = SimClock(start=100.0)
        table = _new_table(fmt, clock)
        model = FrozensetModel()
        if restore:
            _restore(table, data)
            model.restore(table.current_snapshot())
        history = _History(data, table, model)
        _assert_matches(table, model)

        for _ in range(data.draw(st.integers(1, 24))):
            clock.advance_by(data.draw(st.sampled_from([0.0, 1.0, 5.0])))
            kind = data.draw(st.sampled_from(STEP_KINDS))
            if kind == "expire":
                history.expire()
            elif kind == "stale":
                txn, staged = history.stage(
                    data.draw(st.sampled_from(["append", "overwrite", "rowdelta", "rewrite"]))
                )
                for _ in range(data.draw(st.integers(1, 2))):
                    history.commit(*history.stage(data.draw(st.sampled_from(STEP_KINDS[:5]))))
                history.commit(txn, staged)
            else:
                history.commit(*history.stage(kind))
            _assert_matches(table, model)
