"""Oracle test: the history ring recorded by reference equals eager recording.

:class:`~repro.replay.catalog_trace.CatalogHistoryRing` opens each segment
with a pin (each table's current snapshot, counters and copies of its small
maps) and keeps each commit as the catalog's
:class:`~repro.catalog.catalog.TableCommit` record; both become trace
events only when a trace or spill reads them.  This module runs an eager
reference ring on the same bus, which takes a full checkpoint when a
segment opens and builds each commit's event when the commit publishes,
and drives one catalog through random histories: tables created mid-run
(some in a new database), appends, overwrites, row deltas, rewrites,
``expire_snapshots``, tables loaded by ``restore_state``, ``drop_table``,
with cycles interleaved and traces read part-way.  Every window's trace,
and a spill loaded into a fresh ring, must equal the reference.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog
from repro.lst import Field, MonthTransform, PartitionField, PartitionSpec, Schema
from repro.lst.maintenance import execute_rewrite, plan_table_rewrite
from repro.replay.catalog_trace import CatalogHistoryRing, catalog_checkpoint
from repro.simulation.taps import TapBus
from repro.units import MiB

FORMATS = ("iceberg", "delta", "hudi")
SCHEMA = Schema.of(Field("id", "long"), Field("event_date", "date"))
MONTHLY = PartitionSpec.of(PartitionField("event_date", MonthTransform()))
MAX_SEGMENTS = 3


class EagerRing(CatalogHistoryRing):
    """The ring as it recorded before pins: a full checkpoint when a segment
    opens, and each commit's event built when the commit publishes."""

    def _begin_segment(self) -> None:
        super()._begin_segment()
        self._segments[-1][0] = catalog_checkpoint(self.catalog)

    def _on_event(self, kind: str, payload) -> None:
        super()._on_event(kind, payload.as_event() if kind == "table_commit" else payload)


OPS = st.sampled_from(
    (
        "create",
        "append",
        "append",
        "append",
        "overwrite",
        "rowdelta",
        "rewrite",
        "expire",
        "restore",
        "drop",
        "cycle",
        "cycle",
        "read",
    )
)


class History:
    """One catalog, a ring under test and the eager reference on one bus."""

    def __init__(self, segment_cycles: int) -> None:
        self.taps = TapBus()
        self.catalog = Catalog(taps=self.taps)
        self.catalog.create_database("db")
        self.tables: list[str] = []
        self.created = 0
        self.cycles = 0
        kwargs = dict(seed=5, segment_cycles=segment_cycles, max_segments=MAX_SEGMENTS)
        self.ring = CatalogHistoryRing(self.catalog, self.taps, **kwargs)
        self.eager = EagerRing(self.catalog, self.taps, **kwargs)

    def table(self, data):
        return self.catalog.load_table(data.draw(st.sampled_from(self.tables)))

    def live(self, table, data, most: int):
        files = table.live_files()
        if not files:
            return []
        return data.draw(st.lists(st.sampled_from(files), min_size=1, max_size=most, unique=True))

    def create(self, data) -> None:
        database = "db"
        if data.draw(st.booleans()) and "db2" not in self.catalog.list_databases():
            self.catalog.create_database("db2", quota_objects=10_000)
            database = "db2"
        name = f"{database}.t{self.created}"
        self.created += 1
        self.catalog.create_table(
            name, SCHEMA, spec=MONTHLY, table_format=data.draw(st.sampled_from(FORMATS))
        )
        self.tables.append(name)

    def restore(self) -> None:
        """A fresh table loaded from a checkpointed layout, not by commits."""
        name = f"db.r{self.created}"
        self.created += 1
        table = self.catalog.create_table(name, SCHEMA, spec=MONTHLY)
        now = self.catalog.clock.now
        table.restore_state(
            version=4,
            next_file_id=10,
            next_snapshot_id=5,
            current_snapshot_id=4,
            created_at=now,
            last_modified_at=now,
            files=[(1, (0,), MiB), (2, (0,), 2 * MiB), (3, (1,), MiB)],
            deletes=[(4, (0,), 1024, frozenset({1}))],
            partition_mtimes={(0,): now, (1,): now},
        )
        self.tables.append(name)

    def step(self, op: str, data) -> None:
        self.catalog.clock.advance_by(data.draw(st.sampled_from((0.0, 1.0, 60.0))))
        if op == "create" or not self.tables:
            self.create(data)
        elif op == "restore":
            self.restore()
        elif op == "cycle":
            self.cycles += 1
            self.taps.publish(
                "cycle", {"t": self.catalog.clock.now, "report": {"cycle": self.cycles}}
            )
        elif op == "read":
            self.check()
        elif op == "drop":
            index = data.draw(st.integers(0, len(self.tables) - 1))
            self.catalog.drop_table(self.tables.pop(index))
        else:
            self.commit(op, self.table(data), data)

    def commit(self, op: str, table, data) -> None:
        if op == "append":
            txn = table.new_append()
            for _ in range(data.draw(st.integers(1, 4))):
                size = data.draw(st.sampled_from((MiB, 4 * MiB)))
                txn.add_file(size, partition=(data.draw(st.integers(0, 2)),))
            txn.commit()
        elif op == "overwrite":
            removed = self.live(table, data, 2)
            if removed:
                txn = table.new_overwrite()
                for f in removed:
                    txn.delete_file(f)
                txn.add_file(2 * MiB, partition=removed[0].partition)
                txn.commit()
        elif op == "rowdelta":
            referenced = self.live(table, data, 1)
            if referenced:
                txn = table.new_row_delta()
                txn.add_deletes(1024, referenced)
                txn.commit()
        elif op == "rewrite":
            execute_rewrite(table, plan_table_rewrite(table))
        elif op == "expire":
            table.expire_snapshots(retain_last=data.draw(st.integers(1, 2)))

    def check(self) -> None:
        for window in (None, 0, *range(1, MAX_SEGMENTS + 2)):
            assert self.ring.trace(window).events == self.eager.trace(window).events


@given(
    segment_cycles=st.integers(1, 3),
    ops=st.lists(OPS, min_size=4, max_size=30),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_ring_by_reference_matches_eager_recording(segment_cycles, ops, data):
    history = History(segment_cycles)
    for op in ops:
        history.step(op, data)
    history.check()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.spill.jsonl")
        assert history.ring.spill(path) == history.eager.n_segments
        restored = CatalogHistoryRing(
            history.catalog,
            TapBus(),
            seed=5,
            segment_cycles=segment_cycles,
            max_segments=MAX_SEGMENTS,
        )
        assert restored.load(path) == history.eager.n_segments
        for window in (None, *range(1, MAX_SEGMENTS + 2)):
            assert restored.trace(window).events == history.eager.trace(window).events
    history.check()  # spilling left the held events as they were



def test_commits_after_a_pin_leave_it_as_taken():
    """A pin read after later commits, a restore and a drop still gives
    the checkpoint of the moment it was taken: the partition mtimes (a
    known partition's and a new one), the counters and the snapshot."""
    history = History(segment_cycles=1)
    table = history.catalog.create_table("db.t", SCHEMA, spec=MONTHLY)
    for partition in ((0,), (1,)):
        txn = table.new_append()
        txn.add_file(MiB, partition=partition)
        txn.commit()
    history.taps.publish("cycle", {"t": 0.0, "report": {}})  # opens a segment
    history.catalog.clock.advance_by(60.0)
    for partition in ((0,), (2,)):
        txn = table.new_append()
        txn.add_file(MiB, partition=partition)
        txn.commit()
    table.expire_snapshots()
    history.catalog.drop_table("db.t")
    history.restore()
    history.check()
