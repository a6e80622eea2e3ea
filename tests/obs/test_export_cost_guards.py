"""Deterministic cost guards for the daemon's exports (counts, not timings).

An export must cost work proportional to what is new since the previous
one: each span is encoded once, when it is appended to ``trace.jsonl``,
each export encodes and appends one ``metrics.jsonl`` line, the
exposition and that line share one telemetry snapshot (the daemon's
status report takes none), the snapshot copies one point of a long
series, an unchanged ``pool.json`` is not parsed again, an unchanged
whole file is not rewritten, and the bytes an export writes do not grow
with the run.
Exports are serialised, so an export racing another never shares its
temp files.
"""

from __future__ import annotations

import builtins
import json
import os
import sys
import threading
import types

import repro.durable as durable_module
import repro.obs.exporter as exporter_module
from repro.catalog import Catalog
from repro.core import (
    AutoCompDaemon,
    AutoCompService,
    PolicyPromoter,
    PolicyStore,
    openhouse_pipeline,
)
from repro.core.locks import LockManager
from repro.engine import Cluster
from repro.lst import Field, Schema
from repro.obs.exporter import MetricsExporter
from repro.obs.promcheck import check_exposition
from repro.obs.tracing import Span, Tracer, timed
from repro.replay import PolicyVariant
from repro.simulation import Telemetry
from repro.units import HOUR

from tests.conftest import fragment_table


def traced_cycles(tracer: Tracer, n: int) -> None:
    for i in range(n):
        with timed(tracer, "cycle", index=i):
            with timed(tracer, "observe"):
                pass


def traced_cycles_plain(tracer: Tracer, n: int) -> None:
    """Like :func:`traced_cycles`, without attrs that grow with ``n``."""
    for _ in range(n):
        with timed(tracer, "cycle"):
            with timed(tracer, "observe"):
                pass


class CallCounter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestExportCost:
    def test_an_export_encodes_only_what_is_new(self, tmp_path, monkeypatch):
        telemetry = Telemetry()
        tracer = Tracer()
        exporter = MetricsExporter(telemetry, str(tmp_path), tracer=tracer)
        for _ in range(3):  # warm-up: 150 spans, three ring entries
            traced_cycles(tracer, 25)
            telemetry.increment("autocomp.cycles", 25)
            exporter.export_once()

        to_dict = CallCounter(Span.to_dict)
        to_chrome = CallCounter(Span.to_chrome_event)
        monkeypatch.setattr(Span, "to_dict", lambda self: to_dict(self))
        monkeypatch.setattr(Span, "to_chrome_event", lambda self: to_chrome(self))
        dumps = CallCounter(json.dumps)
        monkeypatch.setattr(exporter_module, "json", types.SimpleNamespace(dumps=dumps))
        snapshot = CallCounter(telemetry.snapshot)
        monkeypatch.setattr(telemetry, "snapshot", snapshot)

        traced_cycles(tracer, 2)  # four new spans
        telemetry.increment("autocomp.cycles")
        exporter.export_once()
        assert to_dict.calls == 4
        assert to_chrome.calls == 0  # the Chrome trace is rendered on demand
        assert dumps.calls == 1  # the one new metrics.jsonl line
        assert snapshot.calls == 1

        exporter.export_once()  # nothing new: nothing re-encoded
        assert (to_dict.calls, to_chrome.calls, dumps.calls, snapshot.calls) == (4, 0, 2, 2)
        with open(exporter.trace_jsonl_path, encoding="utf-8") as stream:
            assert sum(1 for _ in stream) == 154
        with open(exporter.jsonl_path, encoding="utf-8") as stream:
            assert sum(1 for _ in stream) == 5


class CountingList(list):
    """A list that counts the elements copied out of it by iteration or slicing."""

    copied = 0

    def __iter__(self):
        CountingList.copied += len(self)
        return super().__iter__()

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            CountingList.copied += len(item)
        return item


def observed_daemon(tmp_path):
    """A daemon with a tracer, an exporter and a promoter over two tables."""
    catalog = Catalog()
    catalog.create_database("db", quota_objects=100_000)
    schema = Schema.of(Field("id", "long"), Field("event_date", "date"))
    for i in range(2):
        fragment_table(catalog.create_table(f"db.t{i}", schema), [()], files_per_partition=6)
    catalog.clock.advance_by(2 * HOUR)
    store = PolicyStore(tmp_path / "policy")
    store.initialize(
        PolicyVariant(name="k10", k=10),
        pool=[PolicyVariant(name="k10", k=10), PolicyVariant(name="k2", k=2)],
    )
    daemon = AutoCompDaemon(
        AutoCompService(openhouse_pipeline(catalog, Cluster("maint", executors=3))),
        LockManager(tmp_path / "locks", owner="d"),
        tracer=Tracer(),
        obs_dir=tmp_path / "obs",
        promoter=PolicyPromoter(store),
    )
    daemon.run_once()
    return daemon, store


class TestExportReads:
    def test_a_long_series_is_copied_in_constant_work(self, tmp_path):
        telemetry = Telemetry()
        series = telemetry.series("autocomp.fleet.files")
        series.times = CountingList(float(t) for t in range(100_000))
        series.values = CountingList(float(v % 7) for v in range(100_000))
        exporter = MetricsExporter(telemetry, str(tmp_path))
        CountingList.copied = 0
        exporter.export_once()
        assert CountingList.copied <= 2  # one time and one value
        with open(exporter.prom_path, encoding="utf-8") as stream:
            assert "autocomp_fleet_files 4\n" in stream.read()  # 99,999 % 7

    def test_a_daemon_export_takes_one_snapshot(self, tmp_path, monkeypatch):
        daemon, _ = observed_daemon(tmp_path)
        try:
            telemetry = daemon.service.pipeline.telemetry
            snapshot = CallCounter(telemetry.snapshot)
            monkeypatch.setattr(telemetry, "snapshot", snapshot)
            daemon.exporter.export_once()
            assert snapshot.calls == 1
            with open(daemon.exporter.status_path, encoding="utf-8") as stream:
                status = json.load(stream)
            assert status["histograms"]["autocomp.hist.cycle_wall_s"]["count"] == 1.0
        finally:
            monkeypatch.undo()
            daemon.stop()

    def test_an_unchanged_pool_is_not_read_again(self, tmp_path, monkeypatch):
        daemon, store = observed_daemon(tmp_path)
        try:
            daemon.exporter.export_once()
            reads = []
            real_open = builtins.open

            def counting_open(file, *args, **kwargs):
                if os.fspath(file) == os.path.join(store.store_dir, "pool.json"):
                    reads.append(file)
                return real_open(file, *args, **kwargs)

            monkeypatch.setattr(builtins, "open", counting_open)
            daemon.exporter.export_once()
            daemon.exporter.export_once()
            assert reads == []

            PolicyStore(store.store_dir).set_pool([PolicyVariant(name="k4", k=4)])
            daemon.exporter.export_once()
            daemon.exporter.export_once()
            assert len(reads) == 1
            with open(daemon.exporter.status_path, encoding="utf-8") as stream:
                assert json.load(stream)["promoter"]["store"]["pool"] == ["k4"]
        finally:
            monkeypatch.undo()
            daemon.stop()


class TestUnchangedWrites:
    def exporter(self, tmp_path, status: dict) -> MetricsExporter:
        telemetry = Telemetry()
        telemetry.increment("autocomp.cycles", 2)
        return MetricsExporter(
            telemetry, str(tmp_path), tracer=Tracer(), status_fn=lambda: dict(status)
        )

    def test_an_idle_export_rewrites_no_whole_file(self, tmp_path, monkeypatch):
        status = {"cycles_run": 1}
        exporter = self.exporter(tmp_path, status)
        exporter.export_once()
        atomic_write = CallCounter(durable_module.atomic_write)
        monkeypatch.setattr(durable_module, "atomic_write", atomic_write)
        exporter.export_once()
        assert atomic_write.calls == 0
        with open(exporter.jsonl_path, encoding="utf-8") as stream:
            assert sum(1 for _ in stream) == 2  # the snapshot log still appends

        status["cycles_run"] = 2  # only status.json changes
        exporter.export_once()
        assert atomic_write.calls == 1
        exporter.telemetry.increment("autocomp.cycles")
        exporter.export_once()
        assert atomic_write.calls == 2
        with open(exporter.status_path, encoding="utf-8") as stream:
            assert json.load(stream) == {"cycles_run": 2}
        with open(exporter.prom_path, encoding="utf-8") as stream:
            assert "autocomp_cycles 3\n" in stream.read()

    def test_a_deleted_file_is_written_again(self, tmp_path, monkeypatch):
        exporter = self.exporter(tmp_path, {"cycles_run": 1})
        exporter.export_once()
        os.remove(exporter.status_path)
        os.remove(exporter.prom_path)
        atomic_write = CallCounter(durable_module.atomic_write)
        monkeypatch.setattr(durable_module, "atomic_write", atomic_write)
        exporter.export_once()
        assert atomic_write.calls == 2
        with open(exporter.status_path, encoding="utf-8") as stream:
            assert json.load(stream) == {"cycles_run": 1}
        with open(exporter.prom_path, encoding="utf-8") as stream:
            assert check_exposition(stream.read()) == []


class TestExportBytes:
    def export_bytes(self, tmp_path, monkeypatch, history: int, new: int) -> int:
        """Bytes one export writes after ``history`` exported spans and ``new`` more."""
        telemetry = Telemetry()
        telemetry.increment("autocomp.cycles", 7)
        tracer = Tracer(clock=lambda: 1.0)  # every span encodes to the same length
        exporter = MetricsExporter(
            telemetry,
            str(tmp_path / f"obs{history}"),
            tracer=tracer,
            status_fn=lambda: {"running": True},
            clock=lambda: 2.0,
        )
        traced_cycles_plain(tracer, history // 2)
        exporter.export_once()
        written = []
        real_write = os.write
        real_atomic = durable_module.atomic_write

        def counting_write(fd, data):
            written.append(len(data))
            return real_write(fd, data)

        def counting_atomic(path, text):
            written.append(len(text.encode("utf-8")))
            real_atomic(path, text)

        monkeypatch.setattr(os, "write", counting_write)
        monkeypatch.setattr(durable_module, "atomic_write", counting_atomic)
        traced_cycles_plain(tracer, new // 2)
        exporter.export_once()
        monkeypatch.undo()
        return sum(written)

    def test_per_export_bytes_stay_flat_in_run_length(self, tmp_path, monkeypatch):
        short = self.export_bytes(tmp_path, monkeypatch, history=100, new=4)
        long = self.export_bytes(tmp_path, monkeypatch, history=1_000, new=4)
        assert short == long
        assert short < self.export_bytes(tmp_path, monkeypatch, history=100, new=40)


class TestConcurrentExports:
    def test_racing_exports_neither_fail_nor_tear(self, tmp_path, monkeypatch):
        telemetry = Telemetry()
        telemetry.increment("autocomp.cycles", 3)
        tracer = Tracer()
        traced_cycles(tracer, 3)
        exporter = MetricsExporter(telemetry, str(tmp_path), tracer=tracer)
        real_replace = os.replace
        paused = threading.Event()
        resume = threading.Event()

        def pausing_replace(src, dst):
            # Pause hook: the first export stops between writing its temp
            # file and renaming it into place.
            if dst == exporter.prom_path and not paused.is_set():
                paused.set()
                resume.wait(timeout=10)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", pausing_replace)
        errors: list[Exception] = []

        def export() -> None:
            try:
                exporter.export_once()
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        first = threading.Thread(target=export)
        first.start()
        assert paused.wait(timeout=10)
        second = threading.Thread(target=export)
        second.start()
        second.join(timeout=0.3)  # unserialised, it runs to completion here
        resume.set()
        first.join(timeout=10)
        second.join(timeout=10)

        assert not first.is_alive() and not second.is_alive()
        assert errors == []
        assert exporter.exports == 2
        with open(exporter.prom_path, encoding="utf-8") as stream:
            assert check_exposition(stream.read()) == []
        with open(exporter.jsonl_path, encoding="utf-8") as stream:
            assert [json.loads(line)["counters"] for line in stream] == [
                {"autocomp.cycles": 3.0},
                {"autocomp.cycles": 3.0},
            ]
        assert not [name for name in os.listdir(tmp_path) if ".tmp." in name]

    def test_stress_many_exporters_and_tracing_threads(self, tmp_path):
        telemetry = Telemetry()
        tracer = Tracer()
        exporter = MetricsExporter(telemetry, str(tmp_path), tracer=tracer)
        errors: list[Exception] = []
        threads_n, rounds = 6, 25

        def work() -> None:
            try:
                for _ in range(rounds):
                    traced_cycles(tracer, 1)
                    telemetry.increment("autocomp.cycles")
                    exporter.export_once()
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        total = threads_n * rounds
        assert exporter.exports == total
        exporter.export_once()  # every span finished: the dump holds them all
        with open(exporter.trace_jsonl_path, encoding="utf-8") as stream:
            ids = [json.loads(line)["span_id"] for line in stream]
        assert sorted(ids) == sorted(span.span_id for span in tracer.finished())
        assert len(ids) == 2 * total
        with open(exporter.jsonl_path, encoding="utf-8") as stream:
            counters = [json.loads(line)["counters"]["autocomp.cycles"] for line in stream]
        assert len(counters) == total + 1
        assert counters == sorted(counters) and counters[-1] == total
