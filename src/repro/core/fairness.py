"""Admission control with per-database fairness quotas.

A multi-tenant AutoComp deployment (paper §7) compacts tables from many
databases in one cycle, and the ranked candidate list is global — so one
hot tenant whose tables dominate the ranking can consume every execution
slot cycle after cycle, starving the rest of the fleet.
:class:`AdmissionController` sits between selection and execution as an
**act gate** (:attr:`repro.core.pipeline.AutoCompPipeline.act_gates`):
each cycle it admits candidates in rank order subject to a per-database
cap and an optional global cap, and when the global cap binds it spreads
the remaining slots across databases by deficit round-robin so deferred
tenants accumulate priority instead of losing it.

The controller's per-cycle counters are shared across every gate call in
the cycle — a :class:`~repro.core.sharding.ShardedPipeline` invokes the
gate once per shard, and the quota must hold fleet-wide, not per shard —
so the daemon calls :meth:`AdmissionController.begin_cycle` once per
scheduled cycle before any shard acts.
"""

from __future__ import annotations

import threading

from repro.errors import ValidationError
from repro.simulation.telemetry import COUNT_BOUNDS


class AdmissionController:
    """Per-database fairness quotas over selected candidates.

    Args:
        max_per_database: most candidates admitted per database per cycle
            (``None`` = unlimited).
        max_total: most candidates admitted in total per cycle across all
            gate calls (``None`` = unlimited).
        telemetry: optional :class:`repro.simulation.Telemetry`; admitted
            and deferred counts are recorded under
            ``autocomp.admission.admitted`` / ``autocomp.admission.deferred``.

    Deferred candidates are not lost: each deferral increments the
    database's *deficit*, and when ``max_total`` forces a choice between
    databases, higher-deficit databases are admitted first (deficit
    round-robin), so a tenant starved in cycle *n* moves up in cycle
    *n + 1*.
    """

    def __init__(
        self,
        max_per_database: int | None = None,
        max_total: int | None = None,
        telemetry=None,
    ) -> None:
        if max_per_database is not None and max_per_database < 1:
            raise ValidationError("max_per_database must be >= 1")
        if max_total is not None and max_total < 1:
            raise ValidationError("max_total must be >= 1")
        self.max_per_database = max_per_database
        self.max_total = max_total
        self.telemetry = telemetry
        self.admitted_total = 0
        self.deferred_total = 0
        self._mutex = threading.Lock()
        self._cycle_by_db: dict[str, int] = {}
        self._cycle_admitted = 0
        self._deficit: dict[str, int] = {}

    def begin_cycle(self) -> None:
        """Reset the per-cycle counters (call once per scheduled cycle)."""
        with self._mutex:
            self._cycle_by_db = {}
            self._cycle_admitted = 0

    def deficits(self) -> dict[str, int]:
        """Current per-database deficits (starved tenants rank higher)."""
        with self._mutex:
            return {db: d for db, d in self._deficit.items() if d > 0}

    def admit(self, candidates: list) -> list:
        """Filter ranked candidates through the quotas; order-preserving.

        Candidates are considered in the given (rank) order.  A candidate
        is deferred when its database hit ``max_per_database`` this cycle,
        or when ``max_total`` is exhausted — except that under a binding
        global cap, candidates from higher-deficit databases are pulled
        forward ahead of lower-deficit ones (then by rank), so the cap is
        shared rather than first-come-first-served.  The admitted list
        preserves the original relative order.
        """
        if not candidates:
            return candidates
        with self._mutex:
            order = list(enumerate(candidates))
            if self.max_total is not None:
                remaining = self.max_total - self._cycle_admitted
                if remaining < len(candidates):
                    # Global cap binds: consider starved databases first.
                    order.sort(
                        key=lambda pair: (
                            -self._deficit.get(self._db_of(pair[1]), 0),
                            pair[0],
                        )
                    )
            admitted_idx = []
            deferred_dbs = []
            for index, candidate in order:
                db = self._db_of(candidate)
                per_db = self._cycle_by_db.get(db, 0)
                over_db = (
                    self.max_per_database is not None and per_db >= self.max_per_database
                )
                over_total = (
                    self.max_total is not None and self._cycle_admitted >= self.max_total
                )
                if over_db or over_total:
                    deferred_dbs.append(db)
                    continue
                self._cycle_by_db[db] = per_db + 1
                self._cycle_admitted += 1
                admitted_idx.append(index)
                if self._deficit.get(db, 0) > 0:
                    self._deficit[db] -= 1
            for db in deferred_dbs:
                self._deficit[db] = self._deficit.get(db, 0) + 1
            self.admitted_total += len(admitted_idx)
            self.deferred_total += len(deferred_dbs)
            if self.telemetry is not None:
                if admitted_idx:
                    self.telemetry.increment(
                        "autocomp.admission.admitted", len(admitted_idx)
                    )
                if deferred_dbs:
                    self.telemetry.increment(
                        "autocomp.admission.deferred", len(deferred_dbs)
                    )
                self.telemetry.observe(
                    "autocomp.hist.admission_admitted",
                    len(admitted_idx),
                    bounds=COUNT_BOUNDS,
                )
                self.telemetry.observe(
                    "autocomp.hist.admission_deferred",
                    len(deferred_dbs),
                    bounds=COUNT_BOUNDS,
                )
            admitted_idx.sort()
            return [candidates[i] for i in admitted_idx]

    # The gate signature pipelines call: gate(selected) -> selected.
    __call__ = admit

    @staticmethod
    def _db_of(candidate) -> str:
        key = getattr(candidate, "key", candidate)
        return getattr(key, "database", str(key))
