"""Telemetry: counters, time series and histograms for experiments.

Plays the role Logs Analytics plays in the paper's evaluation (§6): every
subsystem records what happened (file counts, GBHr per compaction app, query
latencies, conflict counts) into one :class:`Telemetry` sink, and benchmark
harnesses read it back as :class:`MetricSeries` to print tables and figures.

The sink is also the production observability plane's storage
(:mod:`repro.obs`): all three metric kinds — counters, series and
fixed-bucket :class:`Histogram` distributions — are **thread-safe** (shard
threads, daemon scheduler threads and exporter threads all write into one
sink), and :meth:`Telemetry.snapshot` hands the exporter a consistent copy
to render without holding writers up.  The well-known metric names live in
the :data:`repro.obs.METRICS` registry.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class MetricSeries:
    """An append-only time series of ``(time, value)`` observations."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def record(self, time: float, value: float) -> None:
        """Record an observation, keeping the series sorted by time.

        Appends in O(1) for the common in-order case; out-of-order records
        (e.g. a long-running job reporting a latency stamped at its *start*
        after shorter jobs already finished) are inserted at the right
        position.
        """
        time = float(time)
        if not self.times or time >= self.times[-1]:
            self.times.append(time)
            self.values.append(float(value))
            return
        index = bisect.bisect_right(self.times, time)
        self.times.insert(index, time)
        self.values.insert(index, float(value))

    def last(self, default: float = math.nan) -> float:
        """Most recent value, or ``default`` if the series is empty."""
        return self.values[-1] if self.values else default

    def between(self, start: float, end: float) -> list[float]:
        """Values observed in the half-open window ``[start, end)``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return self.values[lo:hi]

    def value_at(self, time: float, default: float = math.nan) -> float:
        """Step-function read: the last value recorded at or before ``time``."""
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            return default
        return self.values[idx]

    def bucket(
        self, width: float, end: float | None = None, agg: str = "mean"
    ) -> list[tuple[float, float]]:
        """Aggregate observations into fixed-width buckets starting at t=0.

        Args:
            width: bucket width in seconds (e.g. one hour for Figures 6–8).
            end: horizon; defaults to the last observation time.
            agg: one of ``mean``, ``sum``, ``count``, ``min``, ``max``,
                ``last``.

        Returns:
            ``(bucket_start, aggregate)`` pairs; empty buckets yield NaN for
            ``mean``/``min``/``max``/``last`` and 0 for ``sum``/``count``.

            An **empty series** with no explicit ``end``, or an explicit
            ``end`` (or last observation) at or before ``t=0``, has a
            zero-length horizon and returns ``[]`` — there is no window to
            bucket, which is distinct from "one bucket with NaN in it".

        Raises:
            ValueError: if ``width`` is non-positive or non-finite, or if
                ``end`` is negative or non-finite (a negative or unbounded
                horizon is always a caller bug, not an empty window).
        """
        if not math.isfinite(width) or width <= 0:
            raise ValueError(f"bucket width must be positive and finite, got {width}")
        if end is not None:
            if not math.isfinite(end) or end < 0:
                raise ValueError(f"bucket horizon must be finite and >= 0, got {end}")
            horizon = end
        else:
            horizon = self.times[-1] if self.times else 0.0
        if horizon <= 0:
            # Explicitly empty: zero-length horizon (empty series, or all
            # observations at t<=0 with no end override) buckets nothing.
            return []
        out: list[tuple[float, float]] = []
        start = 0.0
        while start < horizon:
            window = self.between(start, start + width)
            out.append((start, _aggregate(window, agg)))
            start += width
        return out


def _aggregate(values: list[float], agg: str) -> float:
    if agg == "count":
        return float(len(values))
    if agg == "sum":
        return float(sum(values))
    if not values:
        return math.nan
    if agg == "mean":
        return sum(values) / len(values)
    if agg == "min":
        return min(values)
    if agg == "max":
        return max(values)
    if agg == "last":
        return values[-1]
    raise ValueError(f"unknown aggregation {agg!r}")


def exponential_bounds(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` exponentially spaced histogram bucket upper bounds.

    ``exponential_bounds(0.001, 2, 4)`` → ``(0.001, 0.002, 0.004, 0.008)``.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds = []
    edge = float(start)
    for _ in range(count):
        bounds.append(edge)
        edge *= factor
    return tuple(bounds)


#: Default bucket bounds for wall-clock latencies, in seconds (500µs – 5min).
LATENCY_BOUNDS_S: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Default bucket bounds for byte volumes (1 MiB – 32 GiB, powers of two).
BYTES_BOUNDS: tuple[float, ...] = exponential_bounds(float(1 << 20), 2.0, 16)

#: Default bucket bounds for ratios in [0, 1] (5% steps).
RATIO_BOUNDS: tuple[float, ...] = tuple(i / 20 for i in range(1, 21))

#: Default bucket bounds for small event counts (1 – 1024, powers of two).
COUNT_BOUNDS: tuple[float, ...] = exponential_bounds(1.0, 2.0, 11)


@dataclass
class Histogram:
    """A fixed-bucket distribution: mergeable, quantile-estimating, picklable.

    ``bounds`` are ascending bucket *upper* edges; ``counts`` has one slot
    per bound plus a final overflow slot (the implicit ``+Inf`` bucket), so a
    value lands in the first bucket whose bound is ``>= value``.  Because
    bounds are fixed at creation, two histograms with equal bounds can be
    merged exactly — process workers each fill a local
    histogram, and the coordinator :meth:`merge`\\ s them into one
    distribution with no approximation beyond the shared bucketing.

    Quantiles interpolate linearly inside the winning bucket and clamp to
    the observed ``[min, max]``, the same estimate Prometheus'
    ``histogram_quantile`` produces from ``_bucket`` series.

    Holds no lock of its own (it must pickle cleanly across the worker
    boundary); :class:`Telemetry` serialises access to the histograms it
    owns.  Non-finite observations are dropped and tallied in ``dropped``
    rather than poisoning ``sum``.
    """

    name: str
    bounds: tuple[float, ...] = LATENCY_BOUNDS_S
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    dropped: int = 0

    def __post_init__(self) -> None:
        self.bounds = tuple(float(b) for b in self.bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in self.bounds):
            raise ValueError(f"histogram bounds must be finite: {self.bounds}")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"histogram bounds must be strictly ascending: {self.bounds}")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        elif len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} bucket counts, got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        """Record one observation (non-finite values are counted as dropped)."""
        value = float(value)
        if not math.isfinite(value):
            self.dropped += 1
            return
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram (exact).

        Raises ValueError unless both histograms share identical bounds.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.name} vs {other.name}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        self.dropped += other.dropped
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lower = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (rank - cumulative) / n
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return max(self.min, min(self.max, estimate))
            cumulative += n
        return self.max

    def copy(self) -> "Histogram":
        """An independent deep copy (for consistent exporter snapshots).

        Skips ``__post_init__``: the bounds were validated when this
        histogram was created, and only ``counts`` is mutable.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.counts = list(self.counts)
        return clone

    def summary(self) -> dict[str, float]:
        """``{count, sum, min, max, p50, p95, p99}`` — the status-report view."""
        empty = self.count == 0
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": math.nan if empty else self.min,
            "max": math.nan if empty else self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Telemetry:
    """Central, thread-safe sink for counters, metric series and histograms.

    Counters answer "how many X happened" (conflicts, RPC calls); series
    answer "how did Y evolve over simulated time" (file counts, latencies);
    histograms answer "how was Z distributed" (observe wall p99, rewrite
    bytes).  All are keyed by plain string names; callers namespace with
    dots, e.g. ``'storage.rpc.open'`` or ``'autocomp.gbhr'``.

    Every mutation and read takes one internal :class:`threading.RLock`, so
    the cycle thread, the daemon scheduler thread and the metrics
    exporter thread can share a sink without torn counter updates or
    mid-insert series reads.  Note that objects *returned* by
    :meth:`series` / :meth:`histogram` are live references — writers should
    go through :meth:`record` / :meth:`observe`; readers that need a
    consistent view across metrics should use :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, float] = defaultdict(float)
        self._series: dict[str, MetricSeries] = {}
        self._histograms: dict[str, Histogram] = {}

    # --- counters -------------------------------------------------------------

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] += amount

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def counters_with_prefix(self, prefix: str) -> dict[str, float]:
        """All counters whose name starts with ``prefix``.

        This is a plain string-prefix match: ``'autocomp.shard1'`` also
        matches ``'autocomp.shard10.files'``.  When selecting a dotted
        *namespace*, pass the trailing dot (``'autocomp.shard1.'``) or use
        :meth:`ScopedTelemetry.counters_with_prefix`, which is
        namespace-boundary aware.
        """
        with self._lock:
            return {k: v for k, v in self._counters.items() if k.startswith(prefix)}

    # --- series ---------------------------------------------------------------

    def record(self, name: str, time: float, value: float) -> None:
        """Append ``(time, value)`` to series ``name`` (creating it)."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = MetricSeries(name)
            series.record(time, value)

    def series(self, name: str) -> MetricSeries:
        """The series named ``name`` (an empty one if never recorded)."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = MetricSeries(name)
            return series

    # --- histograms -----------------------------------------------------------

    def observe(
        self, name: str, value: float, bounds: tuple[float, ...] | None = None
    ) -> None:
        """Record ``value`` into histogram ``name`` (creating it).

        ``bounds`` picks the bucket layout when the histogram is first
        created (default :data:`LATENCY_BOUNDS_S`); later calls ignore it —
        bucket layouts are fixed for the life of the sink so shard-merged
        histograms stay exact.
        """
        with self._lock:
            self.histogram(name, bounds).observe(value)

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        """The histogram named ``name`` (created empty on first access)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(
                    name, bounds if bounds is not None else LATENCY_BOUNDS_S
                )
            return hist

    def histogram_summaries(self, prefix: str = "") -> dict[str, dict[str, float]]:
        """:meth:`Histogram.summary` of every histogram starting with ``prefix``.

        Summarised under the sink's lock, so each summary is consistent,
        without copying any histogram.
        """
        with self._lock:
            return {
                name: hist.summary()
                for name, hist in self._histograms.items()
                if name.startswith(prefix)
            }

    # --- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """A consistent copy of every metric's current state, for exporters.

        Returns ``{"counters": {name: value}, "series": {name: (times,
        values)}, "histograms": {name: Histogram}}`` — all copies, safe to
        render or serialise while writers keep mutating the live sink.
        Each series carries only its last point (``times`` and ``values``
        hold at most one element), so a snapshot costs O(metrics), not
        O(history); read :meth:`series` for the whole history.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "series": {
                    name: (s.times[-1:], s.values[-1:])
                    for name, s in self._series.items()
                },
                "histograms": {
                    name: h.copy() for name, h in self._histograms.items()
                },
            }

    # --- scoping ---------------------------------------------------------------

    def scoped(self, prefix: str) -> "ScopedTelemetry":
        """A view that prefixes every metric name with ``prefix`` + ``.``.

        Used by the scale-out control plane to give each shard its own
        namespace (``autocomp.shard00.…``) inside one shared sink, so
        fleet-level dashboards can aggregate across shards while per-shard
        series stay individually addressable.
        """
        return ScopedTelemetry(self, prefix)


class ScopedTelemetry:
    """A prefixing facade over a parent :class:`Telemetry`.

    All writes and reads delegate to the parent with ``prefix.name``;
    nothing is stored locally, so scoped views are free to create per
    shard / per subsystem.
    """

    def __init__(self, parent: Telemetry, prefix: str) -> None:
        if not prefix:
            raise ValueError("scoped telemetry needs a non-empty prefix")
        self._parent = parent
        self._prefix = prefix.rstrip(".")

    @property
    def prefix(self) -> str:
        """The namespace applied to every metric name."""
        return self._prefix

    def _qualify(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the prefixed counter."""
        self._parent.increment(self._qualify(name), amount)

    def counter(self, name: str) -> float:
        """Current value of the prefixed counter."""
        return self._parent.counter(self._qualify(name))

    def counters_with_prefix(self, prefix: str = "") -> dict[str, float]:
        """Counters inside this scope, keyed by their full (parent) names.

        Unlike :meth:`Telemetry.counters_with_prefix`, this is
        namespace-boundary aware: a scope named ``autocomp.shard1`` never
        matches ``autocomp.shard10.files``, because the scope prefix is
        always followed by a ``.`` separator.  ``prefix`` further narrows
        within the scope (again on a dotted-name boundary or an exact
        name match).
        """
        inner = self._qualify(prefix) if prefix else self._prefix
        candidates = self._parent.counters_with_prefix(inner)
        boundary = f"{inner}."
        return {
            name: value
            for name, value in candidates.items()
            if name == inner or name.startswith(boundary)
        }

    def record(self, name: str, time: float, value: float) -> None:
        """Append ``(time, value)`` to the prefixed series."""
        self._parent.record(self._qualify(name), time, value)

    def series(self, name: str) -> MetricSeries:
        """The prefixed series (created empty on first access)."""
        return self._parent.series(self._qualify(name))

    def observe(
        self, name: str, value: float, bounds: tuple[float, ...] | None = None
    ) -> None:
        """Record ``value`` into the prefixed histogram."""
        self._parent.observe(self._qualify(name), value, bounds)

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        """The prefixed histogram (created empty on first access)."""
        return self._parent.histogram(self._qualify(name), bounds)

    def scoped(self, prefix: str) -> "ScopedTelemetry":
        """A nested scope: ``parent_prefix.prefix.…``."""
        return ScopedTelemetry(self._parent, self._qualify(prefix))
