"""Per-layer cost ledger: timing wrappers around each layer's public calls.

The traced run replaces the public entry points listed in :data:`CALLS`
with wrappers that time every call from the benchmark's side, so nothing
under ``src/`` changes.  Each wrapper keeps a stack of open calls: a
layer's *self time* is the duration of its calls minus the wrapped calls
nested inside them, so the self times of all layers plus the benchmark loop's own
unattributed time add up to the window's wall time.

Wrappers are installed only by :meth:`Ledger.install` (the ``--trace 1``
run) and removed by :meth:`Ledger.uninstall`; :func:`assert_pristine`
proves that an untraced run left every function untouched.  Calls from
another thread or from a forked worker process pass through untimed: the
benchmark is single-threaded, and worker-side time is reported from the
cycle reports instead.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict

#: ``(layer, module, class, method, timer)`` for every wrapped entry point
#: (``class`` None: a function of the module).
#: The timer names the accumulator the call's inclusive time lands in;
#: ``Transaction.commit`` is split by operation at call time.
CALLS = (
    ("storage", "repro.storage.filesystem", "SimulatedFileSystem", "create_file", "storage.create"),
    ("storage", "repro.storage.filesystem", "SimulatedFileSystem", "delete_file", "storage.delete"),
    ("lst", "repro.lst.base", "Transaction", "commit", None),
    ("lst", "repro.lst.base", "BaseTable", "expire_snapshots", "lst.expire"),
    ("catalog", "repro.catalog.data_services", "DataServices", "run_retention", "catalog.retention"),
    ("connectors", "repro.core.connectors", "LstConnector", "list_candidates", "connectors.generate"),
    ("connectors", "repro.core.connectors", "LstConnector", "observe", "connectors.observe"),
    ("transport", "repro.core.transport", "ColumnarTransport", "export", "transport.pack"),
    ("transport", "repro.core.transport", "ColumnarTransport", "attach_decide", "transport.pack"),
    ("transport", "repro.core.transport", "ColumnarTransport", "merge", "transport.unpack"),
    ("transport", "repro.core.transport", "ColumnarTransport", "merge_decision", "transport.unpack"),
    ("transport", "repro.core.transport", "ColumnarTransport", "release", "transport.release"),
    ("sharding", "repro.core.sharding", "ShardedPipeline", "run_cycle", "sharding.cycle"),
    ("decide", "repro.core.ranking", "WeightedSumPolicy", "rank", "decide.rank"),
    ("decide", "repro.core.selection", "TopKSelector", "select", "decide.select"),
    ("act", "repro.core.scheduling", "LstExecutionBackend", "prepare", "act.prepare"),
    ("act", "repro.engine.jobs", "CompactionJob", "start", "act.start"),
    ("act", "repro.engine.jobs", "CompactionJob", "finish", "act.rewrite"),
    ("locks", "repro.core.locks", "LockManager", "acquire", "locks.acquire"),
    ("locks", "repro.core.locks", "LockManager", "release", "locks.release"),
    ("locks", "repro.core.locks", "LockManager", "audit_compaction", "locks.audit_commit"),
    ("fairness", "repro.core.fairness", "AdmissionController", "admit", "fairness.admit"),
    ("promoter", "repro.core.promoter", "PolicyPromoter", "step", "promoter.step"),
    ("replay", "repro.simulation.taps", "TapBus", "publish", "replay.history_publish"),
    ("replay", "repro.core.service", "AutoCompService", "evaluate_recent", "replay.evaluate_recent"),
    ("obs", "repro.obs.exporter", "MetricsExporter", "export_once", "obs.export"),
    ("obs", "repro.obs.tracing", "Tracer", "dump_jsonl", "obs.dump"),
    ("obs", "repro.obs.tracing", "Tracer", "dump_chrome", "obs.dump"),
    ("service", "repro.core.service", "AutoCompService", "run_cycle", "service.cycle"),
    ("service", "repro.core.daemon", "AutoCompDaemon", "run_once", "service.cycle"),
    # Not a layer of the program: the benchmark's own speed probes.
    ("probe", "workloads", None, "probe", "probe"),
)

#: Layer names, in the order the report prints them.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in CALLS))

#: Marker attribute every wrapper carries.
MARK = "_e2e_ledger_wrapper"


def _owner(module: str, cls: str | None):
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


def originals() -> dict[tuple[str, str, str], object]:
    """The current attribute each wrapped entry point resolves to."""
    return {
        (module, cls, method): getattr(_owner(module, cls), method)
        for _, module, cls, method, _ in CALLS
    }


def assert_pristine(before: dict, catalog=None) -> None:
    """Raise unless no wrapper is installed and every identity is unchanged."""
    after = originals()
    changed = [key for key, fn in after.items() if fn is not before[key]]
    marked = [key for key, fn in after.items() if getattr(fn, MARK, False)]
    if catalog is not None:
        for table in catalog.all_tables():
            marked += [str(table.identifier) for h in table.commit_hooks if getattr(h, MARK, False)]
    if changed or marked:
        raise RuntimeError(f"untraced run found wrapped functions: {changed + marked}")


class Ledger:
    """Accumulates inclusive time, call counts and self time per layer."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.pid = os.getpid()
        self._installed: list[tuple[type, str, object, bool]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything accumulated (called at each window start)."""
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.time_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.last_s: dict[str, float] = {}

    # --- wrappers ---------------------------------------------------------------

    def wrap(self, layer: str, timer, fn):
        """``fn`` timed into ``layer``; ``timer`` None splits commits by operation."""
        ledger = self
        note = _NOTES.get(timer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != ledger.thread or os.getpid() != ledger.pid:
                return fn(*args, **kwargs)
            name = timer if timer is not None else f"lst.{args[0].operation}_commit"
            frame = [0.0]
            stack = ledger._stack
            stack.append(frame)
            start = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                ledger.self_s[layer] += elapsed - frame[0]
                ledger.time_s[name] += elapsed
                ledger.calls[name] += 1
                ledger.last_s[name] = elapsed
                if stack:
                    stack[-1][0] += elapsed
                if error is not None and timer is None:
                    ledger.counts["lst.conflicts"] += 1
            if note is not None:
                note(ledger, args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        """Replace every entry point in :data:`CALLS` with its wrapper."""
        for layer, module, cls, method, timer in CALLS:
            owner = _owner(module, cls)
            own = method in vars(owner)
            fn = getattr(owner, method)
            setattr(owner, method, self.wrap(layer, timer, fn))
            self._installed.append((owner, method, fn, own))

    def uninstall(self) -> None:
        """Restore every wrapped entry point (inherited ones are deleted)."""
        while self._installed:
            owner, method, fn, own = self._installed.pop()
            if own:
                setattr(owner, method, fn)
            else:
                delattr(owner, method)

    def wrap_commit_hooks(self, catalog) -> None:
        """Time every ``commit_hooks`` entry on the catalog's tables.

        Hooks are closures the catalog installs per table (history taps,
        lock audit), so they are wrapped per episode once set-up has
        installed them all.
        """
        for table in catalog.all_tables():
            table.commit_hooks[:] = [
                hook if getattr(hook, MARK, False) else self.wrap("catalog", "catalog.commit_hook", hook)
                for hook in table.commit_hooks
            ]

    # --- per-episode metrics ----------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced window of ``wall_s`` seconds."""
        t, n, c = self.time_s, self.calls, self.counts
        finishes = n["act.rewrite"]
        metrics = {
            "storage.create_calls": n["storage.create"],
            "storage.create_s": t["storage.create"],
            "storage.delete_calls": n["storage.delete"],
            "storage.delete_s": t["storage.delete"],
            "lst.append_commits": n["lst.append_commit"],
            "lst.append_commit_s": t["lst.append_commit"],
            "lst.replace_commits": n["lst.replace_commit"],
            "lst.replace_commit_s": t["lst.replace_commit"],
            "lst.expire_s": t["lst.expire"],
            "lst.conflicts": c["lst.conflicts"],
            "catalog.commit_hook_s": t["catalog.commit_hook"],
            "catalog.retention_s": t["catalog.retention"],
            "connectors.generate_s": t["connectors.generate"],
            "connectors.observe_s": t["connectors.observe"],
            "connectors.candidates": c["connectors.candidates"],
            "transport.pack_s": t["transport.pack"],
            "transport.unpack_s": t["transport.unpack"],
            "transport.returned_candidates": c["transport.returned"],
            "workers.remote_observe_s": c["workers.remote_observe_s"],
            "sharding.coordinator_s": self.self_s["sharding"],
            "decide.rank_s": t["decide.rank"],
            "decide.select_s": t["decide.select"],
            "decide.ranked": c["decide.ranked"],
            "act.prepare_s": t["act.prepare"],
            "act.rewrite_s": t["act.rewrite"],
            "act.jobs": c["act.jobs"],
            "act.skipped": c["act.skipped"],
            "act.success_ratio": c["act.successes"] / finishes if finishes else 0.0,
            "locks.acquire_s": t["locks.acquire"],
            "locks.acquires": c["locks.acquires"],
            "locks.contended": c["locks.contended"],
            "locks.release_s": t["locks.release"],
            "locks.audit_commit_s": t["locks.audit_commit"],
            "fairness.admit_s": t["fairness.admit"],
            "fairness.deferred": c["fairness.deferred"],
            "promoter.step_s": t["promoter.step"],
            "replay.history_publish_s": t["replay.history_publish"],
            "replay.evaluate_recent_s": t["replay.evaluate_recent"],
            "obs.export_s": t["obs.export"],
            "obs.export_last_ms": self.last_s.get("obs.export", 0.0) * 1e3,
            "service.cycle_self_s": self.self_s["service"],
        }
        attributed = 0.0
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self.self_s[layer]
            attributed += self.self_s[layer]
        metrics["ledger.wall_s"] = wall_s
        metrics["ledger.unattributed_s"] = wall_s - attributed
        return {name: float(value) for name, value in metrics.items()}


# --- per-call notes: counts read from arguments and results ------------------


def _note_generate(ledger, args, result):
    ledger.counts["connectors.candidates"] += len(result)


def _note_unpack(ledger, args, result):
    spec, _placed, worker_result = args[1], args[2], args[3]
    ledger.counts["workers.remote_observe_s"] += worker_result.observe_wall_s
    selected = getattr(result, "selected", None)
    ledger.counts["transport.returned"] += len(selected) if selected is not None else len(spec.keys)


def _note_rank(ledger, args, result):
    ledger.counts["decide.ranked"] += len(result)


def _note_prepare(ledger, args, result):
    ledger.counts["act.jobs" if result is not None else "act.skipped"] += 1


def _note_rewrite(ledger, args, result):
    ledger.counts["act.successes"] += bool(result.success)


def _note_acquire(ledger, args, result):
    ledger.counts["locks.acquires" if result else "locks.contended"] += 1


def _note_admit(ledger, args, result):
    ledger.counts["fairness.deferred"] += len(args[1]) - len(result)


_NOTES = {
    "connectors.generate": _note_generate,
    "transport.unpack": _note_unpack,
    "decide.rank": _note_rank,
    "act.prepare": _note_prepare,
    "act.rewrite": _note_rewrite,
    "locks.acquire": _note_acquire,
    "fairness.admit": _note_admit,
}
