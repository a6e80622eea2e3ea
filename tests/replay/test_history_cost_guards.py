"""Cost guards for the history ring: what recording and reading may touch.

The ring records by reference, so its hot-path cost must not grow with the
catalog's live files: opening a segment pins snapshots without reading a
file record, and a commit publishes the lists the commit already built.
Events are built only when a trace or spill reads them, each at most once.
These tests count the operations instead of timing them.
"""

from __future__ import annotations

import inspect

import pytest

from repro.catalog import Catalog
from repro.catalog.catalog import TableCommit
from repro.lst import Field, MonthTransform, PartitionField, PartitionSpec, Schema
from repro.lst.base import BaseTable
from repro.lst.files import DataFile
from repro.lst.snapshot import Snapshot
from repro.replay import catalog_trace
from repro.replay.catalog_trace import CatalogHistoryRing
from repro.simulation.taps import TapBus
from repro.units import MiB

SCHEMA = Schema.of(Field("id", "long"), Field("event_date", "date"))
MONTHLY = PartitionSpec.of(PartitionField("event_date", MonthTransform()))


def append(table, files: int, partition=(0,)):
    txn = table.new_append()
    for _ in range(files):
        txn.add_file(MiB, partition=partition)
    return txn.commit()


@pytest.fixture
def ring():
    """Three tables of 200 live files each, under a ring of 1-cycle segments."""
    taps = TapBus()
    catalog = Catalog(taps=taps)
    catalog.create_database("db")
    for name in ("a", "b", "c"):
        table = catalog.create_table(f"db.{name}", SCHEMA, spec=MONTHLY)
        for month in range(4):
            append(table, 50, partition=(month,))
    return CatalogHistoryRing(catalog, taps, segment_cycles=1, max_segments=4)


def cycle(ring) -> None:
    ring._taps.publish("cycle", {"t": ring.catalog.clock.now, "report": {}})


def count_calls(monkeypatch, owner, name: str) -> list:
    """Patch ``owner.name``, a method or an attribute, to count its uses."""
    calls = []
    original = inspect.getattr_static(owner, name)
    if inspect.isfunction(original):

        def wrapped(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

    else:  # a record field or a cached property: count each read
        wrapped = property(lambda self: (calls.append(1), original.__get__(self, owner))[1])
    monkeypatch.setattr(owner, name, wrapped)
    return calls


def test_opening_a_segment_reads_no_file_record(ring, monkeypatch):
    reads = [
        count_calls(monkeypatch, owner, name)
        for owner, name in (
            (BaseTable, "live_files"),
            (Snapshot, "ordered_files"),
            (DataFile, "file_id"),
            (DataFile, "size_bytes"),
        )
    ]
    for _ in range(3):
        cycle(ring)  # each seals a segment and pins the next
    assert ring.n_segments == 4
    assert reads == [[], [], [], []]


def test_a_commit_builds_no_per_file_list(ring, monkeypatch):
    built = count_calls(monkeypatch, TableCommit, "as_event")
    table = ring.catalog.load_table("db.a")
    handed = []
    table.commit_hooks.append(lambda table, op, added, deletes, removed: handed.append(added))
    append(table, 12)
    recorded = ring._segments[-1][-1]
    assert built == []
    assert recorded.added_data is handed[0]  # the commit's own list, not a copy


def test_each_entry_is_built_once_across_reads(ring, monkeypatch, tmp_path):
    commits = count_calls(monkeypatch, TableCommit, "as_event")
    pins = count_calls(monkeypatch, catalog_trace._CheckpointPin, "as_event")
    table = ring.catalog.load_table("db.b")
    for _ in range(3):
        append(table, 12)
        cycle(ring)
    first = ring.trace().events
    assert (len(pins), len(commits)) == (1, 3)  # later segments' pins stay unbuilt
    assert ring.trace().events == first
    assert (len(pins), len(commits)) == (1, 3)
    ring.spill(tmp_path / "ring.spill.jsonl")
    assert (len(pins), len(commits)) == (ring.n_segments, 3)
    assert ring.trace().events == first
    assert (len(pins), len(commits)) == (ring.n_segments, 3)

