"""The policy plane: one crash-safe seam for "which policy is live", closed-loop.

Before this module, the policy a deployment ran was frozen into pipeline
constructors (:func:`~repro.core.service.openhouse_pipeline` arguments,
:meth:`~repro.replay.variants.PolicyVariant.build_catalog_pipeline`), so
nothing could ever *act* on what the Policy Lab learned — ROADMAP item 3's
gap.  Two pieces close it:

:class:`PolicyStore`
    The durable source of truth: which
    :class:`~repro.replay.variants.PolicyVariant` is **active**, which
    candidates form the **pool**, and the versioned promotion history.
    File-backed under one directory with the same crash-safety discipline
    as the daemon's :class:`~repro.core.daemon.ResumableStateMachine`
    (atomic tmp-write + ``os.replace``) and the same append-only
    ``audit.jsonl`` discipline as :class:`~repro.core.locks.LockManager`
    (one JSON line per event, ``O_APPEND`` writes under ``PIPE_BUF``).
    Promotions and rollbacks are **two-phase**: an intent line is appended
    *before* the active-policy file flips, a commit line after — so a
    ``kill -9`` anywhere leaves evidence that :meth:`PolicyStore._recover`
    resolves deterministically on the next open, and
    :func:`verify_promotions` can replay the log and prove the final state
    after the fact (the promotion analogue of
    :func:`~repro.core.locks.verify_audit`).

:class:`PolicyPromoter`
    The control loop: on a daemon-scheduled cadence it shadow-evaluates
    the candidate pool against the deployment's own
    :class:`~repro.replay.catalog_trace.CatalogHistoryRing` (via
    :meth:`~repro.core.service.AutoCompService.evaluate_recent`), promotes
    a statistically-clear winner, then watches the next N **live** cycles
    against the CI regression-gate metrics
    (:func:`~repro.analysis.metrics.reduction_efficiency`,
    :func:`~repro.analysis.metrics.write_amplification`, GBHr) and
    auto-rolls back on degradation.  While the guard window is open the
    promoter never promotes again — no churn.  Outcomes feed forward:
    :attr:`PolicyPromoter.warm_start` carries the winner's knobs for
    :meth:`~repro.core.autotune.Optimizer.optimize`.

Live pipelines pick the active policy up through
:func:`apply_variant` — :meth:`~repro.core.service.AutoCompService.run_cycle`
calls it (via ``_sync_policy``) whenever the store's version moved, for
plain and sharded pipelines alike.

Layering note: :mod:`repro.replay` sits *above* :mod:`repro.core`, so
everything replay-shaped (:class:`~repro.replay.variants.PolicyVariant`
deserialisation, what-if reports) is imported lazily, mirroring
``service.py`` and ``pipeline.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field

from repro import durable
from repro.analysis.metrics import reduction_efficiency, write_amplification
from repro.core.filters import MinSmallFileCountFilter, QuiescenceFilter
from repro.errors import ValidationError
from repro.obs.tracing import timed
from repro.units import DAY

#: Active-policy lifecycle states.
#: ``STABLE`` — the active variant is trusted; promotions may proceed.
#: ``GUARD``  — a freshly promoted variant is on probation; the promoter
#: holds all further promotions until the guard window confirms or rolls
#: back.
PROMOTION_STATES = ("STABLE", "GUARD")

#: File names inside a policy-store directory.
ACTIVE_FILE = "active.json"
POOL_FILE = "pool.json"
PROMOTION_AUDIT_LOG = "audit.jsonl"

#: Audit events that commit a version bump.
_COMMIT_EVENTS = ("promote", "rollback")

#: Fractional lead over the active variant's shadow efficiency a
#: challenger needs before it is promoted (0.05 = 5% better).
PROMOTE_MARGIN = 0.05

#: Fractional degradation of a guarded metric the guard window allows
#: before it rolls a promotion back.
GUARD_TOLERANCE = 0.25


def _variant_to_dict(variant) -> dict:
    return variant.to_dict()


def _variant_from_dict(data: dict):
    # Imported lazily: repro.replay sits above repro.core in the layering.
    from repro.replay.variants import PolicyVariant

    return PolicyVariant.from_dict(data)


class PolicyStore:
    """Durable active policy + candidate pool + versioned promotion history.

    One directory holds three files:

    * ``active.json`` — the current active variant, its version, lifecycle
      state (``STABLE``/``GUARD``), the pre-promotion variant kept for
      rollback, and the guard window's metadata (length + pre-promotion
      metric baseline).  Written atomically (tmp + ``os.replace``), so a
      reader sees the old or the new policy, never a torn one.
    * ``pool.json`` — the candidate variants the promoter shadow-evaluates.
    * ``audit.jsonl`` — append-only promotion history: ``init``,
      ``pool_update``, ``shadow``, ``promote_intent``/``promote``,
      ``rollback_intent``/``rollback``, ``*_abort``, ``guard_pass``.

    Crash-safety contract (the **two-phase transition** discipline):
    version-bumping transitions append an intent line, then replace
    ``active.json``, then append the commit line.  :meth:`_recover` (run
    on every open) resolves a dangling intent by looking at which side of
    the flip ``active.json`` is on — completing the commit line when the
    flip happened, appending an abort otherwise — so a ``kill -9``
    anywhere in the window converges to a consistent active policy, and
    :func:`verify_promotions` replaying the log always agrees with
    ``active.json``.

    Args:
        store_dir: durable home of the three files (created if missing).
        clock: timestamp source for audit/state stamps.

    Attributes:
        promote_hook: optional callable invoked with ``(op, variant_name)``
            *between* the intent line and the active-file flip — test
            instrumentation for widening the crash window (the analogue of
            :meth:`~repro.core.daemon.AutoCompDaemon.backfill`'s
            ``unit_hook``).
        recovered_action: what :meth:`_recover` did on open (None = the
            log was clean).
    """

    def __init__(self, store_dir: str | os.PathLike, clock=time.time) -> None:
        self.store_dir = os.fspath(store_dir)
        os.makedirs(self.store_dir, exist_ok=True)
        durable.sweep_temp_files(self.store_dir)
        self._clock = clock
        self.promote_hook = None
        self._mutex = threading.RLock()
        self._pool_memo: tuple[tuple[int, int, int], tuple] | None = None
        self._audit_file = durable.Appender(self.audit_path)
        weakref.finalize(self, self._audit_file.close)
        self._active: dict | None = self._read_json(self._active_path)
        self.recovered_action: str | None = self._recover()

    # --- paths / file helpers ---------------------------------------------------

    @property
    def _active_path(self) -> str:
        return os.path.join(self.store_dir, ACTIVE_FILE)

    @property
    def _pool_path(self) -> str:
        return os.path.join(self.store_dir, POOL_FILE)

    @property
    def audit_path(self) -> str:
        """Path of the append-only promotion audit log."""
        return os.path.join(self.store_dir, PROMOTION_AUDIT_LOG)

    @staticmethod
    def _read_json(path: str) -> dict | None:
        try:
            with open(path, encoding="utf-8") as stream:
                return json.load(stream)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            return None  # torn sibling write: recovery resolves via the audit log

    @staticmethod
    def _write_json(path: str, payload: dict) -> None:
        durable.atomic_write(path, json.dumps(payload, sort_keys=True))

    def _audit(self, event: str, **payload: object) -> None:
        record = {"event": event, "pid": os.getpid(), "ts": self._clock(), **payload}
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        # One O_APPEND write per line, atomic on POSIX under PIPE_BUF, safe
        # across processes (the lock audit writes through an Appender too).
        self._audit_file.write(line.encode("utf-8"))

    # --- recovery ---------------------------------------------------------------

    def _recover(self) -> str | None:
        """Resolve a crash mid-transition; returns what was done (or None).

        Two dangling shapes exist: an intent with no commit/abort (killed
        inside a promote/rollback), and a ``guard_pass`` line whose
        ``active.json`` still says ``GUARD`` (killed between the audit
        line and the state flip — guard passes log first, flip second).
        """
        with self._mutex:
            events = read_promotions(self.store_dir)
            action = None
            # Dangling intent?
            pending = None
            for event in events:
                name = event.get("event", "")
                if name.endswith("_intent"):
                    pending = event
                elif name in _COMMIT_EVENTS or name.endswith("_abort"):
                    pending = None
            if pending is not None:
                op = pending["event"][: -len("_intent")]
                to_version = pending.get("to_version")
                active = self._active
                if active is not None and active.get("version") == to_version:
                    # The flip happened; only the commit line is missing.
                    self._audit(
                        op,
                        version=to_version,
                        variant=active.get("variant", {}).get("name"),
                        recovered=True,
                    )
                    action = f"completed {op} v{to_version}"
                else:
                    self._audit(f"{op}_abort", to_version=to_version, recovered=True)
                    action = f"aborted {op} v{to_version}"
            # Guard pass logged but state flip lost?
            state = replay_promotions(self.store_dir)
            active = self._active
            if (
                active is not None
                and active.get("state") == "GUARD"
                and state.final_state == "STABLE"
                and state.final_version == active.get("version")
            ):
                record = dict(active)
                record["state"] = "STABLE"
                record["previous"] = None
                record["guard"] = None
                record["updated_at"] = self._clock()
                self._write_json(self._active_path, record)
                self._active = record
                action = f"completed guard_pass v{record['version']}"
            return action

    # --- read side --------------------------------------------------------------

    @property
    def version(self) -> int | None:
        """Monotonic active-policy version (None before :meth:`initialize`)."""
        with self._mutex:
            return None if self._active is None else int(self._active["version"])

    @property
    def state(self) -> str | None:
        """``STABLE`` / ``GUARD`` (None before :meth:`initialize`)."""
        with self._mutex:
            return None if self._active is None else str(self._active["state"])

    @property
    def active(self):
        """The active :class:`~repro.replay.variants.PolicyVariant` (or None)."""
        with self._mutex:
            if self._active is None:
                return None
            return _variant_from_dict(self._active["variant"])

    @property
    def previous(self):
        """The pre-promotion variant held for rollback (GUARD state only)."""
        with self._mutex:
            if self._active is None or not self._active.get("previous"):
                return None
            return _variant_from_dict(self._active["previous"])

    @property
    def guard(self) -> dict | None:
        """Guard-window metadata set at promotion (cycles, metric baseline)."""
        with self._mutex:
            if self._active is None:
                return None
            return self._active.get("guard")

    def snapshot(self) -> dict:
        """A JSON-safe view for ``status.json`` (no variant objects)."""
        with self._mutex:
            if self._active is None:
                return {"version": None, "state": None, "active": None}
            return {
                "version": self._active["version"],
                "state": self._active["state"],
                "active": self._active["variant"].get("name"),
                "previous": (self._active.get("previous") or {}).get("name"),
                "guard": self._active.get("guard"),
                "pool": [v.name for v in self.pool()],
            }

    def pool(self) -> list:
        """The candidate-pool variants (possibly empty).

        ``pool.json`` is parsed again only when its ``(inode, mtime,
        size)`` changes.  Every rewrite is an ``atomic_write``, which
        renames a new inode into place, so a sibling store's
        :meth:`set_pool` is seen.  (Two sibling rewrites within one
        filesystem timestamp tick could restore the inode number and size
        this store last read; only first initialisation and operators
        rewrite the pool.)
        """
        try:
            stat = os.stat(self._pool_path)
        except FileNotFoundError:
            return []
        key = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        with self._mutex:
            memo = self._pool_memo
            if memo is None or memo[0] != key:
                data = self._read_json(self._pool_path) or {}
                variants = tuple(
                    _variant_from_dict(entry) for entry in data.get("variants", [])
                )
                memo = self._pool_memo = (key, variants)
            return list(memo[1])

    # --- write side -------------------------------------------------------------

    def initialize(self, variant, pool=()) -> bool:
        """Install ``variant`` as active v1 (idempotent; audits ``init``).

        Returns True when the store was empty and is now initialised;
        False when an active policy already existed (nothing changes —
        restarts must not clobber a promoted policy with the boot default).
        A non-empty ``pool`` is installed only on first initialisation.
        """
        with self._mutex:
            if self._active is not None:
                return False
            record = {
                "version": 1,
                "state": "STABLE",
                "variant": _variant_to_dict(variant),
                "previous": None,
                "guard": None,
                "updated_at": self._clock(),
            }
            self._write_json(self._active_path, record)
            self._active = record
            self._audit("init", version=1, variant=variant.name)
            if pool:
                self.set_pool(pool)
            return True

    def set_pool(self, variants) -> None:
        """Replace the candidate pool (names must be unique)."""
        variants = list(variants)
        names = [v.name for v in variants]
        if len(names) != len(set(names)):
            raise ValidationError(f"pool variant names must be unique, got {names}")
        with self._mutex:
            self._write_json(
                self._pool_path, {"variants": [_variant_to_dict(v) for v in variants]}
            )
            self._audit("pool_update", variants=names)

    def record_shadow(self, summary: dict) -> None:
        """Append one shadow-evaluation outcome to the audit log."""
        self._audit("shadow", **summary)

    def _two_phase(self, op: str, new_record: dict) -> int:
        """Intent → flip → commit; the crash-safe version-bump core."""
        to_version = new_record["version"]
        self._audit(
            f"{op}_intent",
            to_version=to_version,
            variant=new_record["variant"]["name"],
            from_variant=(self._active or {}).get("variant", {}).get("name"),
        )
        hook = self.promote_hook
        if hook is not None:
            hook(op, new_record["variant"]["name"])
        self._write_json(self._active_path, new_record)
        self._active = new_record
        self._audit(op, version=to_version, variant=new_record["variant"]["name"])
        return to_version

    def promote(self, variant, guard: dict | None = None) -> int:
        """Make ``variant`` active under a guard window; returns the new version.

        Only legal from ``STABLE`` — a store in ``GUARD`` is still judging
        the last promotion, and stacking another would lose the rollback
        target.  The outgoing variant is retained as ``previous`` so
        :meth:`rollback` can restore it without consulting anything else.
        """
        with self._mutex:
            if self._active is None:
                raise ValidationError("initialize() the store before promote()")
            if self._active["state"] != "STABLE":
                raise ValidationError(
                    "cannot promote while a guard window is open (state GUARD)"
                )
            record = {
                "version": self._active["version"] + 1,
                "state": "GUARD",
                "variant": _variant_to_dict(variant),
                "previous": self._active["variant"],
                "guard": guard or {},
                "updated_at": self._clock(),
            }
            return self._two_phase("promote", record)

    def rollback(self, reason: str = "", metrics: dict | None = None) -> int:
        """Restore the pre-promotion variant; returns the new version.

        Only legal from ``GUARD``.  Audited as its own two-phase
        transition (``rollback_intent`` / ``rollback``) carrying the
        degradation evidence.
        """
        with self._mutex:
            if self._active is None or self._active["state"] != "GUARD":
                raise ValidationError("rollback() is only legal from GUARD state")
            previous = self._active.get("previous")
            if not previous:
                raise ValidationError("GUARD state has no previous variant to restore")
            record = {
                "version": self._active["version"] + 1,
                "state": "STABLE",
                "variant": previous,
                "previous": None,
                "guard": None,
                "updated_at": self._clock(),
            }
            self._audit("rollback_evidence", reason=reason, metrics=metrics or {})
            return self._two_phase("rollback", record)

    def confirm(self, metrics: dict | None = None) -> None:
        """Close the guard window: the promoted variant survives (``guard_pass``).

        The audit line lands *before* the state flip; :meth:`_recover`
        completes the flip if a crash separates the two, so the log and
        ``active.json`` always converge.
        """
        with self._mutex:
            if self._active is None or self._active["state"] != "GUARD":
                raise ValidationError("confirm() is only legal from GUARD state")
            self._audit(
                "guard_pass",
                version=self._active["version"],
                variant=self._active["variant"]["name"],
                metrics=metrics or {},
            )
            record = dict(self._active)
            record["state"] = "STABLE"
            record["previous"] = None
            record["guard"] = None
            record["updated_at"] = self._clock()
            self._write_json(self._active_path, record)
            self._active = record


# --- audit replay / verification ------------------------------------------------


@dataclass
class PromotionSummary:
    """Outcome of :func:`replay_promotions` / :func:`verify_promotions`."""

    events: int = 0
    promotions: int = 0
    rollbacks: int = 0
    guard_passes: int = 0
    shadows: int = 0
    aborts: int = 0
    final_version: int | None = None
    final_state: str | None = None
    final_variant: str | None = None
    #: Human-readable invariant violations (empty = clean history).
    violations: list = field(default_factory=list)


def _promotion_log(store_dir: str | os.PathLike) -> tuple[list[dict], list[str]]:
    """The events of a store's promotion audit log and its corrupt lines."""
    return durable.read_jsonl(os.path.join(os.fspath(store_dir), PROMOTION_AUDIT_LOG))


def read_promotions(store_dir: str | os.PathLike) -> list[dict]:
    """Parse a store's promotion audit log (missing log = empty).

    Lines that do not parse are left out; :func:`replay_promotions`
    reports them.
    """
    return _promotion_log(store_dir)[0]


def replay_promotions(store_dir: str | os.PathLike) -> PromotionSummary:
    """Replay the audit log into the promotion state machine.

    Checks the structural invariants as it goes: versions bump by exactly
    one per commit, promotes only leave ``STABLE``, rollbacks and guard
    passes only leave ``GUARD``, every commit has a matching intent, and
    no intent is left dangling (recovery resolves those on store open).
    A line that does not parse, anywhere but at the tail where an append
    may still be in flight, is a lost record and a violation too.
    """
    summary = PromotionSummary()
    version: int | None = None
    state: str | None = None
    variant: str | None = None
    pending: dict | None = None
    events, corrupt = _promotion_log(store_dir)
    summary.violations.extend(f"{PROMOTION_AUDIT_LOG} {error}" for error in corrupt)
    for event in events:
        summary.events += 1
        name = event.get("event", "")
        if name == "init":
            version = int(event.get("version", 1))
            state = "STABLE"
            variant = event.get("variant")
        elif name.endswith("_intent"):
            if pending is not None:
                summary.violations.append(
                    f"overlapping intents: {pending['event']} then {name}"
                )
            pending = event
        elif name.endswith("_abort"):
            summary.aborts += 1
            pending = None
        elif name in _COMMIT_EVENTS:
            to_version = event.get("version")
            if pending is None or pending.get("to_version") != to_version:
                summary.violations.append(
                    f"{name} v{to_version} has no matching intent"
                )
            pending = None
            if version is not None and to_version != version + 1:
                summary.violations.append(
                    f"{name} v{to_version} does not follow v{version}"
                )
            expected_from = "STABLE" if name == "promote" else "GUARD"
            if state is not None and state != expected_from:
                summary.violations.append(
                    f"{name} v{to_version} from state {state} (expected {expected_from})"
                )
            version = to_version
            variant = event.get("variant")
            if name == "promote":
                summary.promotions += 1
                state = "GUARD"
            else:
                summary.rollbacks += 1
                state = "STABLE"
        elif name == "guard_pass":
            summary.guard_passes += 1
            if state != "GUARD":
                summary.violations.append(
                    f"guard_pass v{event.get('version')} from state {state}"
                )
            state = "STABLE"
        elif name == "shadow":
            summary.shadows += 1
        # init/pool_update/rollback_evidence carry no state transition.
    if pending is not None:
        summary.violations.append(
            f"unresolved {pending['event']} to v{pending.get('to_version')} "
            "(store was never re-opened to recover)"
        )
    summary.final_version = version
    summary.final_state = state
    summary.final_variant = variant
    return summary


def verify_promotions(store_dir: str | os.PathLike) -> PromotionSummary:
    """Replay the audit log *and* check it agrees with ``active.json``.

    The promotion analogue of :func:`~repro.core.locks.verify_audit`: the
    daemon soak and crash-recovery suites gate on an empty
    ``violations`` list.
    """
    summary = replay_promotions(store_dir)
    active = PolicyStore._read_json(
        os.path.join(os.fspath(store_dir), ACTIVE_FILE)
    )
    if active is None:
        if summary.final_version is not None:
            summary.violations.append(
                "audit log has history but active.json is missing"
            )
        return summary
    if active.get("version") != summary.final_version:
        summary.violations.append(
            f"active.json v{active.get('version')} != replayed v{summary.final_version}"
        )
    if active.get("state") != summary.final_state:
        summary.violations.append(
            f"active.json state {active.get('state')} != replayed {summary.final_state}"
        )
    name = active.get("variant", {}).get("name")
    if name != summary.final_variant:
        summary.violations.append(
            f"active.json variant {name!r} != replayed {summary.final_variant!r}"
        )
    return summary


# --- applying a variant to live pipelines ----------------------------------------


def _apply_to_pipeline(pipeline, variant) -> None:
    pipeline.policy = variant.build_policy()
    pipeline.selector = variant.build_selector()
    pipeline.scheduler = variant.build_scheduler()
    pipeline.generation = variant.generation
    # Replace only the policy-owned filters; deployment-owned ones (e.g.
    # the recent-table age window) stay where the operator put them.
    filters = [
        f
        for f in pipeline.stats_filters
        if not isinstance(f, (MinSmallFileCountFilter, QuiescenceFilter))
    ]
    filters.append(MinSmallFileCountFilter(variant.min_small_files))
    if variant.quiesce_days > 0:
        filters.append(QuiescenceFilter(variant.quiesce_days * DAY))
    pipeline.stats_filters = filters


def apply_variant(pipeline, variant):
    """Reconfigure a live pipeline (plain or sharded) to run ``variant``.

    The write side of the :class:`PolicyStore` seam: policy, selector,
    scheduler, generation strategy and the policy-owned statistics filters
    (min-small-files, quiescence) are swapped in place — connectors,
    backends, caches, act gates, taps and feedback hooks are untouched, so
    a promotion never drops daemon gates or recorded history.  On a
    :class:`~repro.core.sharding.ShardedPipeline` every shard is updated;
    the fleet-level decide state is read from the shards, so it follows.

    Returns the pipeline, reconfigured.
    """
    for shard in getattr(pipeline, "shards", None) or [pipeline]:
        _apply_to_pipeline(shard, variant)
    return pipeline


# --- the control loop ------------------------------------------------------------


class PolicyPromoter:
    """Shadow-evaluate, promote behind a guardrail, roll back on degradation.

    Lifecycle (see the README's "Self-driving policy" section for the
    operator view)::

                    shadow eval (step)            N live cycles
        STABLE ────────────────────────▶ GUARD ────────────────▶ STABLE
           ▲        clear winner?                 degraded?        │
           │              no → hold                  yes           │
           └──────────────────────────── rollback ◀────────────────┘

    :meth:`step` is the scheduled entry point (the daemon drives it on its
    own cadence): while ``STABLE`` it replays the candidate pool over the
    service's whole history ring and promotes only a *clear* winner — one
    whose shadow efficiency beats the active variant's own by
    :data:`PROMOTE_MARGIN` (5%).  No clear winner means a ``hold``: the
    active policy is never churned on noise.  While ``GUARD`` it promotes
    nothing; instead :meth:`observe_cycle` (registered on the service's
    ``cycle_hooks``) accumulates live-cycle metrics until ``guard_cycles``
    of them exist, then compares their means against the pre-promotion
    baseline captured at promotion time: efficiency may not drop, write
    amplification and GBHr may not rise, each beyond
    :data:`GUARD_TOLERANCE` (25%) — one degraded metric triggers
    :meth:`PolicyStore.rollback`, otherwise :meth:`PolicyStore.confirm`
    closes the window.

    Feedback: every shadow report refreshes :attr:`warm_start` (for
    :meth:`~repro.core.autotune.Optimizer.optimize`).

    Args:
        store: the policy plane's durable state (shared with the service).
        guard_cycles: live cycles watched after a promotion.
        min_history_cycles: recorded cycle markers required before any
            shadow evaluation (too-short history ranks on noise).

    Each :meth:`step` opens a ``promoter.step`` span on the attached
    service's pipeline tracer, when it has one.
    """

    def __init__(
        self,
        store: PolicyStore,
        guard_cycles: int = 3,
        min_history_cycles: int = 2,
    ) -> None:
        if guard_cycles <= 0:
            raise ValidationError("guard_cycles must be positive")
        if min_history_cycles < 1:
            raise ValidationError("min_history_cycles must be >= 1")
        self.store = store
        self.guard_cycles = guard_cycles
        self.min_history_cycles = min_history_cycles
        self.service = None
        #: The latest shadow report's winner knobs — feed to
        #: :meth:`~repro.core.autotune.Optimizer.optimize` as ``warm_start``.
        self.warm_start: dict = {}
        self.shadow_evals = 0
        self.promotions = 0
        self.rollbacks = 0
        self.guard_passes = 0
        self.holds = 0
        self.step_errors = 0
        self.last_decision: dict | None = None
        self._live: deque = deque(maxlen=max(guard_cycles, 8))
        self._guard_window: list[dict] = []
        self._ingest_lock = threading.Lock()
        self._ingested_bytes = 0

    # --- wiring -----------------------------------------------------------------

    def attach(self, service) -> "PolicyPromoter":
        """Wire the promoter into a service (idempotent for the same one).

        Enables the service's history ring, points the service at this
        promoter's :class:`PolicyStore` (so the next cycle resolves the
        live policy through it), subscribes to ``table_commit`` taps for
        ingest accounting, and registers :meth:`observe_cycle` on the
        service's ``cycle_hooks``.  The store itself is *not* seeded here:
        call :meth:`PolicyStore.initialize` once with the deployment's
        boot variant and pool — it is idempotent, so a restart never
        clobbers a promoted policy, and an uninitialised store simply
        leaves cycles on the pipeline's constructed policy until then
        (:meth:`step` refuses to run on one).
        """
        if self.service is service:
            return self
        if self.service is not None:
            raise ValidationError("promoter is already attached to a service")
        self.service = service
        if service.policy_store is not self.store:
            # A re-attach after detach() keeps the applied policy version,
            # so the next cycle does not re-apply an unchanged variant.
            service.use_policy_store(self.store)
        service.enable_history()
        taps = service._history_taps
        if taps is not None:
            taps.subscribe("table_commit", self._on_commit)
        if self.observe_cycle not in service.cycle_hooks:
            service.cycle_hooks.append(self.observe_cycle)
        return self

    def detach(self) -> "PolicyPromoter":
        """Undo :meth:`attach` (idempotent); :meth:`attach` may follow again.

        Unsubscribes the ``table_commit`` tap and removes
        :meth:`observe_cycle` from the service's ``cycle_hooks``, so the
        service holds no reference back to the promoter and a stopped
        deployment is freed by reference counting alone.  The service keeps
        resolving its policy through the store and keeps its history ring.
        """
        service = self.service
        if service is None:
            return self
        taps = service._history_taps
        if taps is not None:
            taps.unsubscribe("table_commit", self._on_commit)
        if self.observe_cycle in service.cycle_hooks:
            service.cycle_hooks.remove(self.observe_cycle)
        self.service = None
        return self

    def _telemetry(self):
        service = self.service
        return getattr(service.pipeline, "telemetry", None) if service else None

    def _count(self, name: str, series_version: bool = True) -> None:
        telemetry = self._telemetry()
        if telemetry is None:
            return
        telemetry.increment(f"autocomp.promoter.{name}")
        if series_version and self.store.version is not None:
            telemetry.record(
                "autocomp.promoter.active_version", time.time(), self.store.version
            )

    def _on_commit(self, kind: str, commit) -> None:
        if commit.op == "replace":
            return  # compaction output, not workload ingest
        total = sum(f.size_bytes for f in commit.added_data)
        with self._ingest_lock:
            self._ingested_bytes += total

    def _drain_ingested(self) -> int:
        with self._ingest_lock:
            total, self._ingested_bytes = self._ingested_bytes, 0
        return total

    # --- live-cycle observation (the guard window) ------------------------------

    def observe_cycle(self, report) -> None:
        """Service cycle hook: fold one live cycle into the guard metrics.

        Idle cycles (no candidates generated, no results) are skipped —
        they carry no evidence either way.  When a guard window is open
        and ``guard_cycles`` observations have accumulated, the window is
        judged immediately (confirm or rollback), so guard outcomes land
        on cycle cadence rather than waiting for the next promoter tick.
        """
        merged = getattr(report, "report", report)
        ingested = self._drain_ingested()
        if merged.candidates_generated == 0 and not merged.results:
            return
        reduced = merged.total_files_reduced
        gbhr = merged.total_gbhr
        rewritten = sum(r.rewritten_bytes for r in merged.results)
        metrics = {
            "files_reduced": int(reduced),
            "gbhr": float(gbhr),
            "efficiency": reduction_efficiency(max(0, reduced), gbhr)
            if gbhr > 0
            else 0.0,
            "write_amplification": write_amplification(rewritten, ingested),
        }
        self._live.append(metrics)
        if self.store.state == "GUARD":
            self._guard_window.append(metrics)
            guard = self.store.guard or {}
            needed = int(guard.get("cycles", self.guard_cycles))
            if len(self._guard_window) >= needed:
                self._finish_guard()

    @staticmethod
    def _means(window: list[dict]) -> dict:
        keys = ("efficiency", "write_amplification", "gbhr", "files_reduced")
        n = max(len(window), 1)
        return {key: sum(m[key] for m in window) / n for key in keys}

    def _finish_guard(self) -> None:
        guard = self.store.guard or {}
        baseline = guard.get("baseline")
        means = self._means(self._guard_window)
        self._guard_window = []
        degraded: list[str] = []
        if baseline:
            tol = GUARD_TOLERANCE
            base_eff = baseline.get("efficiency", 0.0)
            if base_eff > 0 and means["efficiency"] < base_eff * (1 - tol):
                degraded.append(
                    f"efficiency {means['efficiency']:.4g} < "
                    f"{base_eff:.4g} - {tol:.0%}"
                )
            base_wamp = baseline.get("write_amplification", 0.0)
            if base_wamp > 0 and means["write_amplification"] > base_wamp * (1 + tol):
                degraded.append(
                    f"write_amplification {means['write_amplification']:.4g} > "
                    f"{base_wamp:.4g} + {tol:.0%}"
                )
            base_gbhr = baseline.get("gbhr", 0.0)
            if base_gbhr > 0 and means["gbhr"] > base_gbhr * (1 + tol):
                degraded.append(
                    f"gbhr {means['gbhr']:.4g} > {base_gbhr:.4g} + {tol:.0%}"
                )
        if degraded:
            self.store.rollback(reason="; ".join(degraded), metrics=means)
            self.rollbacks += 1
            self._count("rollbacks")
            self.last_decision = {
                "action": "rollback",
                "version": self.store.version,
                "degraded": degraded,
                "metrics": means,
            }
        else:
            self.store.confirm(metrics=means)
            self.guard_passes += 1
            self._count("guard_passes")
            self.last_decision = {
                "action": "guard_pass",
                "version": self.store.version,
                "metrics": means,
            }

    # --- the scheduled step -----------------------------------------------------

    def _history_cycles(self) -> int:
        trace = self.service._history.trace()
        return sum(1 for event in trace.events if event["kind"] == "cycle")

    @staticmethod
    def _clear_winner(best, active_score) -> bool:
        if active_score.efficiency <= 0:
            return best.efficiency > 0
        return best.efficiency > active_score.efficiency * (1 + PROMOTE_MARGIN)

    def _hold(self, reason: str, **extra) -> dict:
        self.holds += 1
        self._count("holds")
        decision = {"action": "hold", "reason": reason, **extra}
        self.last_decision = decision
        return decision

    def step(self, now: float | None = None) -> dict:
        """One promoter tick: shadow-evaluate and maybe promote.

        Returns a JSON-safe decision dict (``action`` is ``promote`` /
        ``hold`` / ``guard_wait``), also kept as :attr:`last_decision`
        for :meth:`status`.

        Raises:
            ValidationError: when not :meth:`attach`-ed, or the store was
                never initialised.
        """
        if self.service is None:
            raise ValidationError("attach() the promoter to a service before step()")
        with timed(self.service.pipeline.tracer, "promoter.step") as step:
            decision = self._step_inner()
            step.note(action=decision["action"])
        return decision

    def _step_inner(self) -> dict:
        store = self.store
        active = store.active
        if active is None:
            raise ValidationError("initialize() the policy store before step()")
        if store.state == "GUARD":
            # Never promote during the guardrail window: the last
            # promotion is still on probation.
            self.holds += 1
            self._count("holds")
            decision = {
                "action": "guard_wait",
                "version": store.version,
                "guard_cycles_observed": len(self._guard_window),
            }
            self.last_decision = decision
            return decision
        pool = store.pool()
        challengers = [v for v in pool if v.name != active.name]
        if not challengers:
            return self._hold("empty_pool")
        if self._history_cycles() < self.min_history_cycles:
            return self._hold(
                "insufficient_history", cycles=self._history_cycles()
            )
        candidates = [active] + challengers
        with timed(
            None, "promoter.eval", "autocomp.hist.promoter_eval_wall_s", self._telemetry()
        ):
            report = self.service.evaluate_recent(candidates)
        self.shadow_evals += 1
        self._count("shadow_evals")
        self.warm_start = report.to_priors()
        ranked = report.ranked()
        best = ranked[0]
        active_score = next(
            score for score in report.scores if score.variant.name == active.name
        )
        scores_summary = {
            score.variant.name: round(score.efficiency, 6)
            for score in ranked
        }
        if best.variant.name == active.name or not self._clear_winner(
            best, active_score
        ):
            store.record_shadow(
                {"decision": "hold", "best": best.variant.name, "scores": scores_summary}
            )
            return self._hold(
                "no_clear_winner", best=best.variant.name, scores=scores_summary
            )
        baseline = self._means(list(self._live)[-self.guard_cycles :]) if self._live else None
        store.record_shadow(
            {"decision": "promote", "best": best.variant.name, "scores": scores_summary}
        )
        version = store.promote(
            best.variant,
            guard={
                "cycles": self.guard_cycles,
                "baseline": baseline,
                "shadow": {
                    "winner": round(best.efficiency, 6),
                    "active": round(active_score.efficiency, 6),
                },
            },
        )
        self._guard_window = []
        self.promotions += 1
        self._count("promotions")
        decision = {
            "action": "promote",
            "version": version,
            "variant": best.variant.name,
            "over": active.name,
            "scores": scores_summary,
        }
        self.last_decision = decision
        return decision

    # --- observability ----------------------------------------------------------

    def status(self) -> dict:
        """A JSON-safe snapshot for the daemon's ``status.json``."""
        return {
            "attached": self.service is not None,
            "store": self.store.snapshot(),
            "shadow_evals": self.shadow_evals,
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "guard_passes": self.guard_passes,
            "holds": self.holds,
            "step_errors": self.step_errors,
            "guard_cycles_observed": len(self._guard_window),
            "warm_start": dict(self.warm_start),
            "last_decision": self.last_decision,
        }
