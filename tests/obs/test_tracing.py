"""Tests for structured spans: Tracer, SpanRecorder, timed, dumps and ids."""

from __future__ import annotations

import json
import os
import pickle
import threading

import pytest

import repro.obs.tracing as tracing_module
from repro.obs.tracing import SPAN_RING, AppendLog, Span, SpanContext, SpanRecorder, Tracer
from repro.obs.tracing import _id_salt, _new_id, make_span, timed


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestIds:
    def test_ids_are_unique_and_well_formed(self):
        ids = {_new_id() for _ in range(10_000)}
        assert len(ids) == 10_000
        for an_id in list(ids)[:10]:
            assert len(an_id) == 16
            int(an_id, 16)  # hex

    def test_salt_redrawn_when_pid_changes(self):
        # A forked child inherits the counter position; the per-pid salt is
        # what keeps child ids disjoint from the parent's.  Simulate the
        # fork by invalidating the cached pid.
        _new_id()
        old_salt = _id_salt["salt"]
        _id_salt["pid"] = -1
        fresh = _new_id()
        assert _id_salt["pid"] == os.getpid()
        assert int(fresh, 16) >> 32 == _id_salt["salt"] >> 32
        # 32 random bits: a collision with the old salt is vanishingly
        # unlikely, and equality would mean the redraw never happened.
        assert _id_salt["salt"] != old_salt or old_salt == 0


class TestSpan:
    def test_duration_never_negative(self):
        span = Span("x", trace_id="t", span_id="s", start_s=10.0, end_s=9.0)
        assert span.duration_s == 0.0

    def test_context_round_trip(self):
        span = Span("x", trace_id="t", span_id="s")
        ctx = span.context
        assert ctx == SpanContext(trace_id="t", span_id="s")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_to_dict_and_chrome_event(self):
        span = Span(
            "observe",
            trace_id="t",
            span_id="s",
            parent_id="p",
            start_s=1.0,
            end_s=1.5,
            attrs={"shard": 3},
            pid=42,
            tid=7,
        )
        as_dict = span.to_dict()
        assert as_dict["duration_s"] == 0.5
        assert as_dict["attrs"] == {"shard": 3}
        event = span.to_chrome_event()
        assert event["ph"] == "X"
        assert event["ts"] == 1.0e6
        assert event["dur"] == 0.5e6
        assert event["args"]["shard"] == 3
        assert event["args"]["parent_id"] == "p"


class TestTracer:
    def test_nesting_via_thread_local_stack(self):
        tracer = Tracer(clock=FakeClock())
        with timed(tracer, "cycle") as cycle:
            with timed(tracer, "observe") as observe:
                assert tracer.current().span_id == observe.span.span_id
            with timed(tracer, "act") as act:
                pass
        assert tracer.current() is None
        spans = {s.name: s for s in tracer.finished()}
        assert spans["observe"].parent_id == cycle.span.span_id
        assert spans["act"].parent_id == cycle.span.span_id
        assert spans["cycle"].parent_id is None
        assert len({s.trace_id for s in spans.values()}) == 1

    def test_explicit_parent_beats_stack(self):
        tracer = Tracer(clock=FakeClock())
        other = SpanContext(trace_id="T", span_id="S")
        with timed(tracer, "cycle"):
            with timed(tracer, "child", parent=other) as child:
                assert child.span.trace_id == "T"
                assert child.span.parent_id == "S"

    def test_detached_span_never_becomes_implicit_parent(self):
        tracer = Tracer(clock=FakeClock())
        with timed(tracer, "cycle") as cycle:
            job = tracer.begin("rewrite", detached=True)
            assert job.parent_id == cycle.span.span_id
            # The open detached span must not capture siblings.
            with timed(tracer, "observe") as observe:
                assert observe.span.parent_id == cycle.span.span_id
            tracer.end(job)

    def test_end_records_attrs_and_duration(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.begin("x", items=3)
        clock.advance(2.0)
        tracer.end(span, success=True)
        [finished] = tracer.finished()
        assert finished.duration_s == 2.0
        assert finished.attrs == {"items": 3, "success": True}

    def test_per_thread_stacks_are_independent(self):
        tracer = Tracer(clock=FakeClock())
        seen = {}

        def worker():
            # The coordinator's open span must not leak into this thread.
            seen["parent"] = tracer.current()
            with timed(tracer, "pool-work") as work:
                seen["span"] = work.span

        with timed(tracer, "cycle"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["parent"] is None
        assert seen["span"].parent_id is None

    def test_adopt_stitches_and_filters_non_spans(self):
        tracer = Tracer(clock=FakeClock())
        remote = Span("w", trace_id="T", span_id="W")
        tracer.adopt([remote, None, "junk"])
        assert tracer.finished() == [remote]

    def test_clear_keeps_open_spans(self):
        tracer = Tracer(clock=FakeClock())
        open_span = tracer.begin("cycle")
        with timed(tracer, "observe"):
            pass
        tracer.clear()
        assert tracer.finished() == []
        tracer.end(open_span)
        assert [s.name for s in tracer.finished()] == ["cycle"]

    def test_dump_jsonl_and_chrome(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with timed(tracer, "cycle", shard=1):
            pass
        jsonl = tracer.dump_jsonl(str(tmp_path / "trace.jsonl"))
        with open(jsonl, encoding="utf-8") as stream:
            lines = [json.loads(line) for line in stream if line.strip()]
        assert len(lines) == 1
        assert lines[0]["name"] == "cycle"

        chrome = tracer.dump_chrome(str(tmp_path / "trace.chrome.json"))
        with open(chrome, encoding="utf-8") as stream:
            payload = json.load(stream)
        assert payload["traceEvents"][0]["name"] == "cycle"
        assert payload["traceEvents"][0]["ph"] == "X"

    def test_dump_empty_trace_writes_empty_file(self, tmp_path):
        path = Tracer().dump_jsonl(str(tmp_path / "empty.jsonl"))
        with open(path, encoding="utf-8") as stream:
            assert stream.read() == ""


class TestDumpJsonl:
    def read(self, path):
        with open(path, encoding="utf-8") as stream:
            return stream.read()

    def test_each_dump_appends_only_the_new_spans(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        path = str(tmp_path / "trace.jsonl")
        with timed(tracer, "cycle", index=0):
            pass
        tracer.dump_jsonl(path)
        first = self.read(path)
        with timed(tracer, "cycle", index=1):
            pass
        tracer.dump_jsonl(path)
        tracer.dump_jsonl(path)  # nothing new: nothing appended
        text = self.read(path)
        assert text.startswith(first)
        assert [json.loads(line)["attrs"]["index"] for line in text.splitlines()] == [0, 1]
        # The appended file holds the bytes a whole-file dump writes.
        twin = Tracer()
        twin.adopt(tracer.finished())
        assert self.read(twin.dump_jsonl(str(tmp_path / "whole.jsonl"))) == text

    def test_first_dump_after_clear_starts_fresh(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        path = str(tmp_path / "trace.jsonl")
        with timed(tracer, "old"):
            pass
        tracer.dump_jsonl(path)
        tracer.clear()
        with timed(tracer, "new"):
            pass
        tracer.dump_jsonl(path)
        assert [json.loads(line)["name"] for line in self.read(path).splitlines()] == ["new"]

    def test_a_dump_to_another_path_writes_every_held_span(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        for name in ("a", "b"):
            with timed(tracer, name):
                pass
            tracer.dump_jsonl(str(tmp_path / "one.jsonl"))
        tracer.dump_jsonl(str(tmp_path / "two.jsonl"))
        assert self.read(str(tmp_path / "two.jsonl")) == self.read(str(tmp_path / "one.jsonl"))

    def test_span_round_trips_through_its_jsonl_record(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with timed(tracer, "cycle", shard=1):
            pass
        path = tracer.dump_jsonl(str(tmp_path / "trace.jsonl"))
        record = json.loads(self.read(path))
        [span] = tracer.finished()
        assert Span.from_dict(record) == span
        assert Span.from_dict(record).to_chrome_event() == span.to_chrome_event()


class TestSpanRing:
    def test_ring_covers_one_benchmark_episode(self):
        assert SPAN_RING >= 1_286

    def test_tracer_holds_at_most_the_ring_and_counts_the_overflow(self):
        tracer = Tracer(clock=FakeClock())
        for i in range(SPAN_RING + 10):
            with timed(tracer, "cycle", index=i):
                pass
        held = tracer.finished()
        assert len(held) == SPAN_RING
        assert held[0].attrs["index"] == 10  # the oldest were evicted
        assert tracer.dropped == 10
        tracer.adopt([make_span("decide", None, 1.0, 2.0)])
        assert len(tracer.finished()) == SPAN_RING
        assert tracer.dropped == 11

    def test_spans_evicted_after_a_dump_are_not_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tracing_module, "SPAN_RING", 4)
        tracer = Tracer(clock=FakeClock())
        path = str(tmp_path / "trace.jsonl")
        for i in range(10):
            with timed(tracer, "cycle", index=i):
                pass
            tracer.dump_jsonl(path)
        assert len(tracer.finished()) == 4
        assert tracer.dropped == 0
        for i in range(10, 16):  # six undumped spans: two of them evicted
            with timed(tracer, "cycle", index=i):
                pass
        assert tracer.dropped == 2
        tracer.dump_jsonl(path)  # the log skips what was dropped
        with open(path + ".1", encoding="utf-8") as stream:
            rolled = [json.loads(line)["attrs"]["index"] for line in stream]
        with open(path, encoding="utf-8") as stream:
            live = [json.loads(line)["attrs"]["index"] for line in stream]
        assert (rolled, live) == ([8, 9, 12, 13], [14, 15])


class TestAppendLog:
    def read(self, path):
        try:
            with open(path, encoding="utf-8") as stream:
                return stream.read()
        except FileNotFoundError:
            return None

    def test_rolls_exactly_at_its_cap(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = AppendLog(path, cap=3)
        log.write(["1\n", "2\n"])
        log.write(["3\n"])
        assert (self.read(path + ".1"), self.read(path)) == (None, "1\n2\n3\n")
        log.write(["4\n"])
        assert (self.read(path + ".1"), self.read(path)) == ("1\n2\n3\n", "4\n")
        log.write([f"{i}\n" for i in range(5, 12)])  # rolls twice in one write
        assert (self.read(path + ".1"), self.read(path)) == ("7\n8\n9\n", "10\n11\n")

    def test_first_write_starts_fresh(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        for name, text in ((path, "old\n"), (path + ".1", "older\n")):
            with open(name, "w", encoding="utf-8") as stream:
                stream.write(text)
        AppendLog(path, cap=3).write([])
        assert (self.read(path + ".1"), self.read(path)) == (None, "")

    def test_each_append_is_one_write_of_whole_lines(self, tmp_path, monkeypatch):
        path = str(tmp_path / "log.jsonl")
        log = AppendLog(path, cap=100)
        log.write(["a\n"])
        writes = []
        real_write = os.write

        def recording_write(fd, data):
            writes.append(data)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", recording_write)
        log.write(["b\n", "c\n"])
        assert writes == [b"b\nc\n"]


class TestMakeSpan:
    def test_one_shot_construction(self):
        parent = SpanContext(trace_id="T", span_id="P")
        span = make_span("rewrite", parent, 1.0, 2.0, key="db.t0")
        assert span.trace_id == "T"
        assert span.parent_id == "P"
        assert span.duration_s == 1.0
        assert span.attrs == {"key": "db.t0"}
        assert span.pid == os.getpid()

    def test_orphan_starts_its_own_trace(self):
        span = make_span("x", None, 0.0, 1.0)
        assert span.parent_id is None
        assert span.trace_id != ""

    def test_span_parent_accepted(self):
        parent = make_span("parent", None, 0.0, 2.0)
        child = make_span("child", parent, 0.5, 1.0)
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id


class TestSpanRecorder:
    def test_records_under_fixed_context(self):
        clock = FakeClock()
        ctx = SpanContext(trace_id="T", span_id="SHARD")
        recorder = SpanRecorder(ctx, clock=clock)
        with timed(recorder, "observe", files=9):
            clock.advance(1.0)
        with timed(recorder, "decide"):
            clock.advance(0.5)
        observe, decide = recorder.spans
        assert observe.trace_id == decide.trace_id == "T"
        assert observe.parent_id == decide.parent_id == "SHARD"
        assert observe.attrs == {"files": 9}
        # Sequential work on one worker: non-overlapping wall clock.
        assert observe.end_s <= decide.start_s

    def test_explicit_parent_override(self):
        recorder = SpanRecorder(SpanContext(trace_id="T", span_id="S"))
        inner_parent = SpanContext(trace_id="T", span_id="INNER")
        with timed(recorder, "sub", parent=inner_parent):
            pass
        assert recorder.spans[0].parent_id == "INNER"

    def test_spans_pickle_for_the_result_ride_home(self):
        recorder = SpanRecorder(SpanContext(trace_id="T", span_id="S"))
        with timed(recorder, "observe"):
            pass
        restored = pickle.loads(pickle.dumps(recorder.spans))
        assert restored == recorder.spans

    def test_exception_still_closes_span(self):
        recorder = SpanRecorder(SpanContext(trace_id="T", span_id="S"))
        try:
            with timed(recorder, "observe"):
                raise RuntimeError("worker blew up")
        except RuntimeError:
            pass
        assert len(recorder.spans) == 1
        assert recorder.spans[0].end_s >= recorder.spans[0].start_s


class RecordingSink:
    """A telemetry sink that keeps every histogram observation."""

    def __init__(self):
        self.observed = []

    def observe(self, name, value, bounds=None):
        self.observed.append((name, value))


class TestTimed:
    def test_span_and_histogram_share_one_block(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        sink = RecordingSink()
        with timed(tracer, "decide", "autocomp.hist.decide_wall_s", sink, k=3) as block:
            clock.advance(2.0)
            block.note(selected=1)
        [span] = tracer.finished()
        assert span is block.span
        assert span.name == "decide"
        assert span.attrs == {"k": 3, "selected": 1}
        # Spans keep the tracer's clock; the histogram gets the block's
        # own perf_counter wall, exactly once.
        assert span.duration_s == 2.0
        assert sink.observed == [("autocomp.hist.decide_wall_s", block.wall_s)]
        assert block.wall_s >= 0.0

    def test_without_tracer_only_the_histogram_is_recorded(self):
        sink = RecordingSink()
        with timed(None, "act", "autocomp.hist.act_wall_s", sink) as block:
            block.note(ignored=True)
        assert block.span is None
        assert sink.observed == [("autocomp.hist.act_wall_s", block.wall_s)]

    def test_raising_block_still_closes_span_and_feeds_histogram(self):
        tracer = Tracer(clock=FakeClock())
        sink = RecordingSink()
        with pytest.raises(RuntimeError):
            with timed(tracer, "observe", "autocomp.hist.observe_wall_s", sink):
                raise RuntimeError("phase blew up")
        assert [s.name for s in tracer.finished()] == ["observe"]
        assert tracer.current() is None
        assert [name for name, _ in sink.observed] == ["autocomp.hist.observe_wall_s"]

    def test_span_recorder_parents_under_its_context_or_the_given_parent(self):
        recorder = SpanRecorder(SpanContext(trace_id="T", span_id="SHARD"))
        with timed(recorder, "observe", shard=2) as observe:
            pass
        with timed(recorder, "decide", parent=observe.span):
            pass
        first, second = recorder.spans
        assert (first.trace_id, first.parent_id) == ("T", "SHARD")
        assert first.attrs == {"shard": 2}
        assert (second.trace_id, second.parent_id) == ("T", first.span_id)
