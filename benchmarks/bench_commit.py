"""Append commit cost against table size: staging, commit and retained memory.

The paper's small-file problem starts at ingest: a streaming writer
appends a dozen small files per minute per table, and each append is one
LST commit.  This bench appends 12 files to one Iceberg table holding N
live files, for N in 1,000, 10,000 and 50,000, and reports per size:

* ``stage_p50_us`` — median time to open the append and stage its 12
  files (``new_append`` plus 12 ``add_file`` calls);
* ``commit_p50_us`` — median time of the ``commit()`` itself;
* ``retained_kib_per_snapshot`` — live memory (tracemalloc) each retained
  12-file snapshot adds, measured over a run of appends that expires
  nothing (so the table grows by 12 files per retained snapshot).

After each timed commit, an untimed overwrite removes the 12 files again
and the table expires every snapshot but the head, so every timed commit
sees N live files and one snapshot.  Timings are wall clock on
whatever machine runs the bench, so the JSON is a record, not a gate; the
bench exits non-zero only when an append does not leave exactly its 12
files live.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_commit.py [--smoke]
        [--json BENCH_commit.json]

``--smoke`` times fewer commits and retains fewer snapshots per size.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import tracemalloc
from itertools import islice

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.lst import (
    DayTransform,
    Field,
    IcebergTable,
    PartitionField,
    PartitionSpec,
    Schema,
    TableIdentifier,
)
from repro.units import KiB, MiB

SIZES = (1_000, 10_000, 50_000)
FILES_PER_COMMIT = 12
PARTITIONS = 100
FILE_BYTES = 1 * MiB


def build_table(live_files: int) -> IcebergTable:
    """An Iceberg table holding ``live_files`` files over ``PARTITIONS`` days."""
    table = IcebergTable(
        TableIdentifier("bench", f"t{live_files}"),
        Schema.of(Field("id", "long"), Field("ts", "timestamp")),
        spec=PartitionSpec.of(PartitionField("ts", DayTransform())),
    )
    txn = table.new_append()
    for i in range(live_files):
        txn.add_file(FILE_BYTES, partition=(i % PARTITIONS,))
    txn.commit()
    return table


def append(table: IcebergTable, commit: int) -> tuple[int, int]:
    """One 12-file append into one partition: ``(stage_ns, commit_ns)``."""
    partition = (commit % PARTITIONS,)
    start = time.perf_counter_ns()
    txn = table.new_append()
    for _ in range(FILES_PER_COMMIT):
        txn.add_file(FILE_BYTES, partition=partition)
    staged = time.perf_counter_ns()
    txn.commit()
    return staged - start, time.perf_counter_ns() - staged


def remove_last_append(table: IcebergTable) -> None:
    """Remove the files the last append added (they are the newest ids)."""
    added = islice(reversed(table.current_snapshot().files.values()), FILES_PER_COMMIT)
    txn = table.new_overwrite()
    for data_file in added:
        txn.delete_file(data_file)
    txn.commit()


def measure(live_files: int, commits: int, retained: int) -> dict[str, float]:
    """Time ``commits`` appends, then trace ``retained`` kept snapshots."""
    table = build_table(live_files)
    gc.collect()
    stage_ns: list[int] = []
    commit_ns: list[int] = []
    for commit in range(commits):
        stage, done = append(table, commit)
        stage_ns.append(stage)
        commit_ns.append(done)
        if table.data_file_count != live_files + FILES_PER_COMMIT:
            raise AssertionError(f"append left {table.data_file_count} live files")
        remove_last_append(table)
        table.expire_snapshots(retain_last=1)

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for commit in range(retained):
            append(table, commits + commit)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    if len(table.snapshots()) != retained + 1:
        raise AssertionError(f"{len(table.snapshots())} snapshots, expected {retained + 1}")
    if table.data_file_count != live_files + retained * FILES_PER_COMMIT:
        raise AssertionError(f"{table.data_file_count} live files after the retained appends")
    return {
        "stage_p50_us": statistics.median(stage_ns) / 1e3,
        "commit_p50_us": statistics.median(commit_ns) / 1e3,
        "retained_kib_per_snapshot": (after - before) / retained / KiB,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="fewer commits per size")
    parser.add_argument("--json", default=None, help="write measured metrics here")
    args = parser.parse_args(argv)
    commits, retained = (30, 5) if args.smoke else (200, 60)

    metrics: dict[str, float] = {}
    failures: list[str] = []
    print(f"{'live files':>10} {'stage p50':>12} {'commit p50':>12} {'KiB/snapshot':>13}")
    for live_files in SIZES:
        try:
            row = measure(live_files, commits, retained)
        except AssertionError as error:
            failures.append(f"{live_files} live files: {error}")
            continue
        print(
            f"{live_files:>10,} {row['stage_p50_us']:>9.1f} us {row['commit_p50_us']:>9.1f} us"
            f" {row['retained_kib_per_snapshot']:>13.1f}"
        )
        for name, value in row.items():
            metrics[f"{name}_{live_files}"] = round(value, 3)

    if args.json:
        payload = {
            "bench": "commit",
            "config": {
                "sizes": list(SIZES),
                "files_per_commit": FILES_PER_COMMIT,
                "commits": commits,
                "retained_snapshots": retained,
                "smoke": args.smoke,
                "cores": os.cpu_count() or 1,
            },
            "metrics": metrics,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote metrics to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
