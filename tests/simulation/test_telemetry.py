"""Tests for telemetry counters, series, histograms and thread safety."""

from __future__ import annotations

import math
import pickle
import threading

import pytest

from repro.simulation import Histogram, MetricSeries, Telemetry, exponential_bounds
from repro.simulation.telemetry import (
    BYTES_BOUNDS,
    COUNT_BOUNDS,
    LATENCY_BOUNDS_S,
    RATIO_BOUNDS,
)


class TestCounters:
    def test_default_zero(self):
        assert Telemetry().counter("nope") == 0.0

    def test_increment(self):
        telemetry = Telemetry()
        telemetry.increment("a")
        telemetry.increment("a", 2.5)
        assert telemetry.counter("a") == 3.5

    def test_prefix_query(self):
        telemetry = Telemetry()
        telemetry.increment("storage.rpc.open", 3)
        telemetry.increment("storage.rpc.create")
        telemetry.increment("engine.queries")
        rpc = telemetry.counters_with_prefix("storage.rpc.")
        assert rpc == {"storage.rpc.open": 3.0, "storage.rpc.create": 1.0}


class TestMetricSeries:
    def test_record_and_iterate(self):
        series = MetricSeries("m")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert list(series) == [(1.0, 10.0), (2.0, 20.0)]
        assert len(series) == 2

    def test_out_of_order_records_inserted_sorted(self):
        series = MetricSeries("m")
        series.record(5.0, 1.0)
        series.record(4.0, 2.0)  # a late report from an earlier start time
        series.record(6.0, 3.0)
        assert series.times == [4.0, 5.0, 6.0]
        assert series.values == [2.0, 1.0, 3.0]

    def test_equal_times_allowed(self):
        series = MetricSeries("m")
        series.record(5.0, 1.0)
        series.record(5.0, 2.0)
        assert series.values == [1.0, 2.0]

    def test_last(self):
        series = MetricSeries("m")
        assert math.isnan(series.last())
        assert series.last(default=-1.0) == -1.0
        series.record(1.0, 42.0)
        assert series.last() == 42.0

    def test_between_half_open(self):
        series = MetricSeries("m")
        for t in range(5):
            series.record(float(t), float(t * 10))
        assert series.between(1.0, 3.0) == [10.0, 20.0]
        assert series.between(0.0, 10.0) == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert series.between(4.5, 9.0) == []

    def test_value_at_step_function(self):
        series = MetricSeries("m")
        series.record(10.0, 1.0)
        series.record(20.0, 2.0)
        assert math.isnan(series.value_at(5.0))
        assert series.value_at(10.0) == 1.0
        assert series.value_at(15.0) == 1.0
        assert series.value_at(25.0) == 2.0


class TestBucketing:
    def _series(self):
        series = MetricSeries("m")
        for t, v in [(0.5, 1.0), (1.5, 3.0), (1.8, 5.0), (3.2, 7.0)]:
            series.record(t, v)
        return series

    def test_mean_buckets(self):
        buckets = self._series().bucket(1.0, end=4.0, agg="mean")
        assert buckets[0] == (0.0, 1.0)
        assert buckets[1] == (1.0, 4.0)
        assert math.isnan(buckets[2][1])
        assert buckets[3] == (3.0, 7.0)

    def test_sum_and_count(self):
        series = self._series()
        sums = [v for _, v in series.bucket(2.0, end=4.0, agg="sum")]
        counts = [v for _, v in series.bucket(2.0, end=4.0, agg="count")]
        assert sums == [9.0, 7.0]
        assert counts == [3.0, 1.0]

    def test_min_max_last(self):
        series = self._series()
        assert [v for _, v in series.bucket(2.0, end=2.0, agg="min")] == [1.0]
        assert [v for _, v in series.bucket(2.0, end=2.0, agg="max")] == [5.0]
        assert [v for _, v in series.bucket(2.0, end=2.0, agg="last")] == [5.0]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            self._series().bucket(0.0)

    def test_unknown_agg(self):
        with pytest.raises(ValueError):
            self._series().bucket(1.0, agg="median")

    def test_empty_series_zero_horizon_returns_no_buckets(self):
        # No observations and no explicit end: nothing to bucket, not
        # "one NaN bucket".
        assert MetricSeries("m").bucket(1.0) == []

    def test_explicit_zero_end_returns_no_buckets(self):
        assert self._series().bucket(1.0, end=0.0) == []

    def test_observations_at_or_before_zero_bucket_nothing(self):
        series = MetricSeries("m")
        series.record(-2.0, 1.0)
        series.record(0.0, 2.0)
        assert series.bucket(1.0) == []

    @pytest.mark.parametrize("end", [-1.0, math.inf, -math.inf, math.nan])
    def test_invalid_end_raises(self, end):
        with pytest.raises(ValueError):
            self._series().bucket(1.0, end=end)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_width_raises(self, width):
        with pytest.raises(ValueError):
            self._series().bucket(width)

    def test_empty_series_with_explicit_end_still_buckets(self):
        buckets = MetricSeries("m").bucket(1.0, end=2.0)
        assert [t for t, _ in buckets] == [0.0, 1.0]
        assert all(math.isnan(v) for _, v in buckets)


class TestTelemetrySeries:
    def test_series_auto_created(self):
        telemetry = Telemetry()
        assert len(telemetry.series("fresh")) == 0
        telemetry.record("fresh", 1.0, 2.0)
        assert telemetry.series("fresh").values == [2.0]


class TestExponentialBounds:
    def test_values(self):
        assert exponential_bounds(0.001, 2, 4) == (0.001, 0.002, 0.004, 0.008)

    @pytest.mark.parametrize("args", [(0.0, 2, 4), (1.0, 1.0, 4), (1.0, 2, 0)])
    def test_invalid_args(self, args):
        with pytest.raises(ValueError):
            exponential_bounds(*args)

    def test_default_bound_tables_are_valid(self):
        # Every canned bound table must satisfy Histogram's own validation.
        for bounds in (LATENCY_BOUNDS_S, BYTES_BOUNDS, RATIO_BOUNDS, COUNT_BOUNDS):
            hist = Histogram("h", bounds=bounds)
            assert hist.bounds == tuple(bounds)
            assert list(bounds) == sorted(set(bounds))


class TestHistogram:
    def test_observe_and_summary(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0, 10.0):
            hist.observe(v)
        assert hist.count == 5
        assert hist.total == pytest.approx(16.5)
        assert hist.min == 0.5
        assert hist.max == 10.0
        assert hist.counts == [1, 2, 1, 1]  # last slot is the +Inf overflow
        summary = hist.summary()
        assert summary["count"] == 5.0
        assert summary["sum"] == pytest.approx(16.5)
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= 10.0

    def test_empty_summary_is_nan(self):
        summary = Histogram("h", bounds=(1.0,)).summary()
        assert summary["count"] == 0.0
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["min"])
        assert math.isnan(summary["max"])

    def test_non_finite_observations_are_dropped(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(math.nan)
        hist.observe(math.inf)
        hist.observe(0.5)
        assert hist.count == 1
        assert hist.dropped == 2
        assert hist.total == 0.5

    def test_boundary_value_lands_in_its_bucket(self):
        # bisect_left: a value exactly on a bound lands in that bound's
        # bucket, matching Prometheus' le= (less-or-equal) semantics.
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.counts == [1, 0, 0]

    def test_quantile_clamps_to_observed_range(self):
        hist = Histogram("h", bounds=(10.0, 20.0))
        hist.observe(12.0)
        hist.observe(13.0)
        assert 12.0 <= hist.quantile(0.5) <= 13.0
        assert hist.quantile(0.0) >= 12.0
        assert hist.quantile(1.0) <= 13.0

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0,)).quantile(1.5)

    def test_quantile_empty_is_nan(self):
        assert math.isnan(Histogram("h", bounds=(1.0,)).quantile(0.5))

    def test_merge_exact(self):
        a = Histogram("a", bounds=(1.0, 2.0))
        b = Histogram("b", bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5.0)
        b.observe(math.nan)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.total == pytest.approx(7.0)
        assert a.min == 0.5
        assert a.max == 5.0
        assert a.dropped == 1

    def test_merge_mismatched_bounds_raises(self):
        with pytest.raises(ValueError):
            Histogram("a", bounds=(1.0,)).merge(Histogram("b", bounds=(2.0,)))

    def test_copy_is_independent(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        clone = hist.copy()
        clone.observe(0.5)
        assert hist.count == 1
        assert clone.count == 2

    def test_pickle_round_trip(self):
        # Workers ship their local histograms back across the process
        # boundary; the round trip must preserve every field.
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(math.inf)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone == hist
        clone.observe(1.5)
        assert clone.count == hist.count + 1

    @pytest.mark.parametrize(
        "bounds",
        [(), (1.0, 1.0), (2.0, 1.0), (math.inf,), (math.nan, 1.0)],
    )
    def test_invalid_bounds_raise(self, bounds):
        with pytest.raises(ValueError):
            Histogram("h", bounds=bounds)

    def test_mismatched_counts_length_raises(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 2.0), counts=[0, 0])


class TestTelemetryHistograms:
    def test_observe_creates_and_fills(self):
        telemetry = Telemetry()
        telemetry.observe("lat", 0.01)
        telemetry.observe("lat", 0.02)
        hist = telemetry.histogram("lat")
        assert hist.count == 2
        assert hist.bounds == LATENCY_BOUNDS_S

    def test_first_observe_picks_bounds_later_calls_ignore(self):
        telemetry = Telemetry()
        telemetry.observe("n", 3.0, bounds=(1.0, 10.0))
        telemetry.observe("n", 4.0, bounds=(99.0,))  # ignored: layout is fixed
        assert telemetry.histogram("n").bounds == (1.0, 10.0)
        assert telemetry.histogram("n").count == 2

    def test_snapshot_is_a_consistent_copy(self):
        telemetry = Telemetry()
        telemetry.increment("c", 2)
        telemetry.record("s", 1.0, 10.0)
        telemetry.observe("h", 0.5)
        snap = telemetry.snapshot()
        telemetry.increment("c")
        telemetry.record("s", 2.0, 20.0)
        telemetry.observe("h", 0.5)
        assert snap["counters"] == {"c": 2.0}
        assert snap["series"]["s"] == ([1.0], [10.0])
        assert snap["histograms"]["h"].count == 1

    def test_snapshot_series_carry_only_their_last_point(self):
        telemetry = Telemetry()
        for t in range(5):
            telemetry.record("s", float(t), 10.0 * t)
        telemetry.record("s", 1.5, -1.0)  # out of order: not the last point
        telemetry.series("empty")
        snap = telemetry.snapshot()
        assert snap["series"] == {"s": ([4.0], [40.0]), "empty": ([], [])}
        assert len(telemetry.series("s")) == 6  # the live history is untouched

    def test_histogram_summaries_match_each_histogram(self):
        telemetry = Telemetry()
        telemetry.observe("a.x", 0.5)
        telemetry.observe("a.x", 2.0)
        telemetry.observe("a.y", 1.0)
        telemetry.observe("b.z", 1.0)
        summaries = telemetry.histogram_summaries("a.")
        assert list(summaries) == ["a.x", "a.y"]
        assert summaries["a.x"] == telemetry.histogram("a.x").summary()
        assert set(telemetry.histogram_summaries()) == {"a.x", "a.y", "b.z"}


class TestThreadSafety:
    def test_eight_thread_hammer(self):
        # Regression: Telemetry once used no lock; concurrent increments on
        # one counter lost updates.  Eight writer threads hammer a shared
        # counter, series and histogram; the totals must be exact.
        telemetry = Telemetry()
        threads, per_thread = 8, 2_000
        barrier = threading.Barrier(threads)

        def hammer(tid):
            barrier.wait()  # maximise interleaving
            scope = telemetry.scoped(f"t{tid}")
            for i in range(per_thread):
                telemetry.increment("shared.count")
                telemetry.observe("shared.lat", 0.001 * (i % 10 + 1))
                telemetry.record("shared.series", float(i), float(tid))
                scope.increment("own")

        workers = [
            threading.Thread(target=hammer, args=(tid,)) for tid in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

        total = threads * per_thread
        assert telemetry.counter("shared.count") == total
        assert telemetry.histogram("shared.lat").count == total
        assert len(telemetry.series("shared.series")) == total
        for tid in range(threads):
            assert telemetry.counter(f"t{tid}.own") == per_thread

    def test_snapshot_during_writes_never_tears(self):
        telemetry = Telemetry()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                telemetry.observe("h", 0.001)
                telemetry.record("s", float(i), 1.0)
                i += 1

        w = threading.Thread(target=writer)
        w.start()
        try:
            for _ in range(200):
                snap = telemetry.snapshot()
                times, values = snap["series"].get("s", ([], []))
                # A torn mid-insert read would desynchronise the lists.
                assert len(times) == len(values)
                hist = snap["histograms"].get("h")
                if hist is not None:
                    assert sum(hist.counts) == hist.count
        finally:
            stop.set()
            w.join()


class TestScopedTelemetry:
    def test_writes_and_reads_are_prefixed(self):
        telemetry = Telemetry()
        shard = telemetry.scoped("autocomp.shard00")
        shard.increment("cycles")
        shard.record("candidates", 1.0, 42.0)
        assert telemetry.counter("autocomp.shard00.cycles") == 1
        assert telemetry.series("autocomp.shard00.candidates").last() == 42.0
        assert shard.counter("cycles") == 1
        assert shard.series("candidates").last() == 42.0
        assert shard.prefix == "autocomp.shard00"

    def test_nested_scopes_compose(self):
        telemetry = Telemetry()
        inner = telemetry.scoped("fleet").scoped("shard01")
        inner.record("observe_wall_s", 0.0, 0.5)
        assert telemetry.series("fleet.shard01.observe_wall_s").values == [0.5]

    def test_trailing_dot_is_normalised(self):
        telemetry = Telemetry()
        telemetry.scoped("a.").increment("x")
        assert telemetry.counter("a.x") == 1

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            Telemetry().scoped("")

    def test_deeply_nested_scopes_compose(self):
        telemetry = Telemetry()
        leaf = telemetry.scoped("fleet").scoped("shard01").scoped("worker")
        leaf.increment("jobs")
        assert leaf.prefix == "fleet.shard01.worker"
        assert telemetry.counter("fleet.shard01.worker.jobs") == 1
        assert leaf.counter("jobs") == 1

    def test_counters_with_prefix_respects_namespace_boundary(self):
        # The satellite regression: a plain string prefix "autocomp.shard1"
        # also matches "autocomp.shard10.*"; the scoped view must not.
        telemetry = Telemetry()
        telemetry.increment("autocomp.shard1.files", 1)
        telemetry.increment("autocomp.shard10.files", 10)
        telemetry.increment("autocomp.shard1", 100)  # exact-name counter

        # Raw Telemetry prefix match is (documented) greedy...
        raw = telemetry.counters_with_prefix("autocomp.shard1")
        assert set(raw) == {
            "autocomp.shard1.files",
            "autocomp.shard10.files",
            "autocomp.shard1",
        }
        # ...while the scope stops at the dotted boundary.
        scoped = telemetry.scoped("autocomp.shard1").counters_with_prefix()
        assert scoped == {
            "autocomp.shard1.files": 1.0,
            "autocomp.shard1": 100.0,
        }

    def test_counters_with_prefix_inner_narrowing_keeps_boundary(self):
        telemetry = Telemetry()
        scope = telemetry.scoped("autocomp")
        telemetry.increment("autocomp.shard1.files", 1)
        telemetry.increment("autocomp.shard10.files", 10)
        assert scope.counters_with_prefix("shard1") == {
            "autocomp.shard1.files": 1.0
        }

    def test_histogram_and_observe_delegate_with_prefix(self):
        telemetry = Telemetry()
        shard = telemetry.scoped("autocomp.shard00")
        shard.observe("observe_wall_s", 0.01, bounds=(1.0,))
        assert telemetry.histogram("autocomp.shard00.observe_wall_s").count == 1
        assert shard.histogram("observe_wall_s").count == 1
        assert shard.histogram("observe_wall_s").bounds == (1.0,)
