"""Event taps: a lightweight publish/subscribe bus for simulation events.

The Policy Lab (:mod:`repro.replay`) needs to observe what a running
simulation *does* — write commits, compactions, onboarding batches, cycle
summaries — without the simulation knowing anything about trace formats.
A :class:`TapBus` decouples the two: producers (the fleet model and
simulator) publish named events with plain-dict payloads, and any number of
subscribers (a :class:`~repro.replay.recorder.TraceRecorder`, a live
dashboard, a test assertion) receive them synchronously in publish order.

Publishing to a bus with no subscribers for a kind is free apart from one
dict lookup, so producers can publish unconditionally; a producer handed no
bus at all (``taps=None``) skips even that.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ValidationError

#: Event kinds published by the fleet simulation (see
#: :class:`~repro.fleet.model.FleetModel` /
#: :class:`~repro.fleet.simulator.FleetSimulator`).
FLEET_EVENT_KINDS = ("onboard", "day", "compact", "cycle")

#: Event kinds published by the LST-catalog plane (see
#: :class:`~repro.catalog.catalog.Catalog` — database/table creation and
#: per-commit ``TableCommit`` records — and :class:`~repro.core.pipeline.AutoCompPipeline`,
#: which publishes one ``cycle`` summary per OODA pass when handed a bus).
CATALOG_EVENT_KINDS = ("db_create", "table_create", "table_commit", "cycle")

TapHandler = Callable[[str, dict], None]


class TapBus:
    """Synchronous publish/subscribe bus keyed by event kind.

    Handlers receive ``(kind, payload)`` and run inline in publish order;
    a handler subscribed to the wildcard kind ``"*"`` receives every event.
    """

    def __init__(self) -> None:
        self._handlers: dict[str, list[TapHandler]] = {}
        self.published = 0

    def subscribe(self, kind: str, handler: TapHandler) -> TapHandler:
        """Register ``handler`` for events of ``kind`` (``"*"`` = all).

        Returns the handler for symmetry with :meth:`unsubscribe`.
        """
        if not kind:
            raise ValidationError("tap kind must be non-empty")
        self._handlers.setdefault(kind, []).append(handler)
        return handler

    def unsubscribe(self, kind: str, handler: TapHandler) -> bool:
        """Remove one registration; returns whether it existed."""
        handlers = self._handlers.get(kind)
        if handlers is None or handler not in handlers:
            return False
        handlers.remove(handler)
        if not handlers:
            del self._handlers[kind]
        return True

    def publish(self, kind: str, payload: dict) -> None:
        """Deliver ``payload`` to every handler of ``kind`` and ``"*"``."""
        self.published += 1
        for handler in self._handlers.get(kind, ()):
            handler(kind, payload)
        for handler in self._handlers.get("*", ()):
            handler(kind, payload)

    def has_subscribers(self, kind: str) -> bool:
        """Whether anyone listens to ``kind`` (directly or via ``"*"``)."""
        return bool(self._handlers.get(kind)) or bool(self._handlers.get("*"))
