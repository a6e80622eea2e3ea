"""Structured spans for the AutoComp control plane.

One daemon cycle produces one trace shaped like the control loop itself::

    cycle
    ├── observe
    │   ├── shard (coordinator-side, one per shard)
    │   │   ├── observe   (worker-side, possibly another process)
    │   │   └── decide    (worker-side, when decide ships with the spec)
    │   └── …
    ├── decide             (global/local selection on the coordinator)
    └── act
        └── rewrite        (one per scheduled compaction job)

The coordinator owns a :class:`Tracer`.  Spans opened on the coordinator
thread nest implicitly via a thread-local stack; work that happens on other
threads or in worker processes parents explicitly through a
:class:`SpanContext` — a picklable (trace_id, span_id) pair that rides
inside ``ShardWorkSpec`` across the process boundary.  Workers record
their spans with the dependency-free :class:`SpanRecorder`, ship them back
inside ``ShardCycleResult.spans``, and the coordinator stitches them into
the live trace with :meth:`Tracer.adopt` — one trace, correct parentage,
wall-clock times from each side's own ``time.time()``.

Phase timers are :class:`timed` blocks: one block opens the span, takes
one ``perf_counter`` pair and feeds the phase's wall histogram with it,
so the trace and the histograms never time a phase separately.

A :class:`Tracer` holds the last :data:`SPAN_RING` finished spans.  It
dumps them as JSONL, one span per line, into an :class:`AppendLog`: each
dump encodes and appends only the spans finished since the previous
dump, and the file rolls to ``<name>.1`` every :data:`SPAN_RING` lines,
so a daemon that dumps after every cycle writes the new spans only.
Spans evicted from the ring before any dump wrote them are counted in
:attr:`Tracer.dropped`.  Chrome ``trace_event`` JSON, which Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` open directly, is
rendered on demand: :meth:`Tracer.dump_chrome` from the held spans, or
``python -m repro.obs.status <dir> --chrome OUT`` from the JSONL log.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Iterable

from repro import durable

__all__ = [
    "SPAN_RING",
    "AppendLog",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "Tracer",
    "chrome_document",
    "make_span",
    "timed",
]

#: The most finished spans a :class:`Tracer` holds (oldest evicted first),
#: and the line cap of its JSONL log.  One ``daemon_durable`` benchmark
#: episode finishes 1,286 spans.
SPAN_RING = 4096

# itertools.count.__next__ is atomic under the GIL, so ids need no lock.
_id_counter = itertools.count(1)
# Per-process random salt, re-drawn after fork (a forked child inherits
# the parent's counter position, so salt alone keeps their ids disjoint).
_id_salt = {"pid": None, "salt": 0}


def _new_id() -> str:
    """A process-unique 16-hex-char id (per-process salt + counter)."""
    salt = _id_salt
    pid = os.getpid()
    if salt["pid"] != pid:
        salt["salt"] = int.from_bytes(os.urandom(4), "big") << 32
        salt["pid"] = pid
    return f"{salt['salt'] | (next(_id_counter) & 0xFFFFFFFF):016x}"


@dataclass(frozen=True)
class SpanContext:
    """The picklable coordinates of a span: enough to parent under it.

    This is what crosses the process boundary inside ``ShardWorkSpec`` —
    the worker never sees the coordinator's :class:`Tracer`, only the
    (trace_id, span_id) pair its own spans should hang from.
    """

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One timed operation; ``start_s``/``end_s`` are epoch seconds."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start_s: float = 0.0
    end_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    pid: int = 0
    tid: int = 0

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        """The span a :meth:`to_dict` record describes."""
        return cls(**{f.name: record[f.name] for f in fields(cls)})

    def to_chrome_event(self) -> dict:
        """A Chrome ``trace_event`` complete event (``ph: "X"``, µs)."""
        return {
            "name": self.name,
            "cat": "autocomp",
            "ph": "X",
            "ts": self.start_s * 1e6,
            "dur": self.duration_s * 1e6,
            "pid": self.pid,
            "tid": self.tid,
            "args": {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                **self.attrs,
            },
        }


def make_span(
    name: str,
    parent: "Span | SpanContext | None",
    start_s: float,
    end_s: float,
    **attrs,
) -> Span:
    """Build a finished span in one shot (for per-item hot paths).

    Cheaper than a begin/end pair when the caller already holds both
    timestamps; the result still needs :meth:`Tracer.adopt` (or a worker's
    result list) to land in a trace.
    """
    ctx = _resolve_parent(parent)
    return Span(
        name=name,
        trace_id=ctx.trace_id if ctx else _new_id(),
        span_id=_new_id(),
        parent_id=ctx.span_id if ctx else None,
        start_s=start_s,
        end_s=end_s,
        attrs=attrs,
        pid=os.getpid(),
        tid=threading.get_ident() & 0xFFFFFFFF,
    )


def _jsonl_line(span: Span) -> str:
    return json.dumps(span.to_dict(), sort_keys=True)


def chrome_document(events: Iterable[dict]) -> str:
    """A Chrome ``trace_event`` JSON document holding ``events``."""
    return json.dumps({"displayTimeUnit": "ms", "traceEvents": list(events)})


def _resolve_parent(parent: "Span | SpanContext | None") -> SpanContext | None:
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.context
    return parent


class Tracer:
    """Thread-safe span factory and collector for one coordinator process.

    Spans started without an explicit ``parent`` nest under the innermost
    open span *on the calling thread* (each thread has its own stack, so
    pool threads never steal the coordinator's cycle span by accident —
    cross-thread work passes a parent context explicitly).  ``detached=True``
    skips the stack entirely: the span parents where told but never
    becomes an implicit parent itself, which is what asynchronous jobs
    (simulator-driven rewrites) need.

    The tracer holds the last :data:`SPAN_RING` finished spans.  A span is
    treated as immutable once it is finished (:meth:`end` or
    :meth:`adopt`), so :meth:`dump_jsonl` encodes each one once, when it
    appends it, and keeps no encoded text.
    """

    def __init__(self, clock=time.time) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=SPAN_RING)
        # Spans ever finished; the held ones are the last len(_finished).
        self._total = 0
        # The JSONL log of the last dump (None: the next dump starts one)
        # and how many of the _total spans precede its next append.
        self._log: AppendLog | None = None
        self._dumped = 0
        self._dropped = 0
        # Serialises dumps and clear(); taken before _lock, never after.
        self._dump_lock = threading.Lock()
        self._local = threading.local()

    # --- span lifecycle -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> SpanContext | None:
        """Context of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1].context if stack else None

    def begin(
        self,
        name: str,
        parent: Span | SpanContext | None = None,
        detached: bool = False,
        **attrs,
    ) -> Span:
        """Open a span; it must later be passed to :meth:`end`."""
        ctx = _resolve_parent(parent) or self.current()
        span = Span(
            name=name,
            trace_id=ctx.trace_id if ctx else _new_id(),
            span_id=_new_id(),
            parent_id=ctx.span_id if ctx else None,
            start_s=self._clock(),
            attrs=attrs,  # the **kwargs dict is already fresh per call
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFFFFFF,
        )
        if not detached:
            self._stack().append(span)
        return span

    def end(self, span: Span, **attrs) -> Span:
        """Close ``span``, stamp its end time, and collect it."""
        span.end_s = self._clock()
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        # Identity search (dataclass __eq__ would deep-compare attrs);
        # the common case is ending the innermost span.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break
        with self._lock:
            self._collect((span,))
        return span

    def adopt(self, spans: Iterable[Span]) -> None:
        """Stitch remotely recorded spans (e.g. worker-side) into the trace."""
        incoming = [s for s in spans if isinstance(s, Span)]
        if not incoming:
            return
        with self._lock:
            self._collect(incoming)

    def _collect(self, spans: Iterable[Span]) -> None:
        # Caller holds _lock.  A full ring evicts its oldest span, which
        # counts as dropped unless a dump already wrote it.
        finished = self._finished
        for span in spans:
            if len(finished) == finished.maxlen and self._total - len(finished) >= self._dumped:
                self._dropped += 1
            finished.append(span)
            self._total += 1

    # --- reading / dumping ----------------------------------------------------

    def finished(self) -> list[Span]:
        """The held spans, oldest first (a copy)."""
        with self._lock:
            return list(self._finished)

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring before any dump wrote them."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        """Drop collected spans (open spans on thread stacks are kept).

        The next :meth:`dump_jsonl` starts its file fresh.
        """
        with self._dump_lock, self._lock:
            self._finished.clear()
            self._log = None

    def dump_jsonl(self, path: str) -> str:
        """Append the spans finished since the last dump, one per line.

        The first dump to ``path`` (a different path than the last dump's,
        or the first after :meth:`clear`) starts the file fresh with an
        atomic replace holding every held span.  Returns ``path``.
        """
        with self._dump_lock:
            with self._lock:
                log, start = self._log, self._dumped
                if log is None or log.path != path:
                    log, start = AppendLog(path, SPAN_RING), 0
                held = len(self._finished)
                skip = max(0, start - (self._total - held))
                new = list(itertools.islice(self._finished, skip, held))
                total = self._total
            log.write([_jsonl_line(span) + "\n" for span in new])
            with self._lock:
                self._log, self._dumped = log, total
        return path

    def dump_chrome(self, path: str) -> str:
        """Write the held spans as Chrome ``trace_event`` JSON; atomic."""
        spans = self.finished()
        durable.atomic_write(path, chrome_document(span.to_chrome_event() for span in spans))
        return path


class SpanRecorder:
    """Worker-side span recording under a fixed parent context.

    Process workers cannot (and should not) hold the coordinator's
    :class:`Tracer`; they get a :class:`SpanContext` inside the work spec,
    record their phase spans with this recorder, and return
    :attr:`spans` inside the (picklable) cycle result for the coordinator
    to :meth:`Tracer.adopt`.  Spans recorded sequentially on one worker
    naturally carry non-overlapping wall-clock intervals.
    """

    def __init__(self, context: SpanContext, clock=time.time) -> None:
        self.context = context
        self.spans: list[Span] = []
        self._clock = clock

    def begin(
        self,
        name: str,
        parent: Span | SpanContext | None = None,
        detached: bool = False,
        **attrs,
    ) -> Span:
        """Open a span under ``parent`` (default: the recorder's context).

        ``detached`` exists for parity with :meth:`Tracer.begin`; a
        recorder keeps no implicit-parent stack.
        """
        return make_span(name, parent or self.context, self._clock(), 0.0, **attrs)

    def end(self, span: Span) -> None:
        """Close ``span``, stamp its end time, and keep it in :attr:`spans`."""
        span.end_s = self._clock()
        self.spans.append(span)


class timed:
    """One timing block: a span (when tracing) and a wall histogram.

    ``with timed(tracer, "decide", "autocomp.hist.decide_wall_s",
    telemetry) as t:`` opens a span on ``tracer`` (a :class:`Tracer` or a
    worker :class:`SpanRecorder`; ``None`` opens none) and takes one
    ``perf_counter`` pair around the block.  On exit, also when the block
    raises, it closes the span and feeds ``histogram`` on ``telemetry``
    with that wall, kept as :attr:`wall_s`.  Spans keep their tracer's
    clock for ``start_s``/``end_s``.
    """

    def __init__(
        self,
        tracer: "Tracer | SpanRecorder | None",
        name: str,
        histogram: str | None = None,
        telemetry=None,
        parent: Span | SpanContext | None = None,
        detached: bool = False,
        **attrs,
    ) -> None:
        self._tracer = tracer
        self._span_args = (name, parent, detached, attrs)
        self._histogram = histogram
        self._telemetry = telemetry
        #: The block's span; None when not tracing.
        self.span: Span | None = None
        #: The block's wall time in seconds, set when the block exits.
        self.wall_s = 0.0

    def __enter__(self) -> "timed":
        if self._tracer is not None:
            name, parent, detached, attrs = self._span_args
            self.span = self._tracer.begin(name, parent=parent, detached=detached, **attrs)
        self._start = time.perf_counter()
        return self

    def note(self, **attrs) -> None:
        """Add span attributes known only at the end of the block."""
        if self.span is not None:
            self.span.attrs.update(attrs)

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._start
        if self.span is not None:
            self._tracer.end(self.span)
        if self._histogram is not None and self._telemetry is not None:
            self._telemetry.observe(self._histogram, self.wall_s)


class AppendLog:
    """A file of whole lines that only grows, rolled to ``<path>.1`` at a cap.

    The first :meth:`write` starts the file fresh: it removes the old
    ``<path>.1`` and replaces ``path`` atomically.  Later writes hand
    whole newline-terminated lines to one ``write`` on a held
    :class:`repro.durable.Appender`, so a reader racing a write sees at
    most one torn trailing line.  A write that finds ``path`` holding
    ``cap`` lines first closes the appender and renames the file to
    ``<path>.1``, so every rolled segment holds exactly ``cap`` lines and
    ``path`` never holds more.  Callers serialise their writes; the
    appender is closed when the log is collected.
    """

    def __init__(self, path: str, cap: int) -> None:
        self.path = path
        self.rolled_path = f"{path}.1"
        self.cap = cap
        self._lines: int | None = None  # lines in path; None before the first write
        self._appender = durable.Appender(path)
        weakref.finalize(self, self._appender.close)

    def write(self, lines: list[str]) -> None:
        """Append ``lines``, each ending in a newline."""
        fresh = self._lines is None  # stays so until the fresh file is written
        if fresh:
            try:
                os.remove(self.rolled_path)
            except FileNotFoundError:
                pass
        done = 0
        while fresh or done < len(lines):
            if self._lines == self.cap:
                self._appender.close()  # the next append opens the new file
                os.replace(self.path, self.rolled_path)
                self._lines = 0
            chunk = lines[done:done + self.cap - (self._lines or 0)]
            if fresh:
                durable.atomic_write(self.path, "".join(chunk))
                fresh, self._lines = False, 0
            else:
                self._appender.write("".join(chunk).encode("utf-8"))
            done += len(chunk)
            self._lines += len(chunk)
