"""Discrete-event simulator loop.

The :class:`Simulator` owns a :class:`~repro.simulation.clock.SimClock` and an
:class:`~repro.simulation.events.EventQueue` and exposes the small scheduling
API the rest of the library builds on:

* ``at(t, fn)`` / ``after(dt, fn)`` — one-shot events;
* ``every(interval, fn)`` — recurring events (periodic compaction triggers,
  hourly workload waves);
* ``run_until(t)`` / ``run()`` — drive the loop.

Callbacks may schedule further events, including at the current instant.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ValidationError
from repro.simulation.clock import SimClock
from repro.simulation.events import Event, EventQueue


class Simulator:
    """Single-threaded deterministic discrete-event simulator."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.queue = EventQueue()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    # --- scheduling ---------------------------------------------------------

    def at(self, time: float, action: Callable[[], None], name: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time``."""
        if time < self.clock.now:
            raise ValidationError(
                f"cannot schedule event in the past ({time} < now={self.clock.now})"
            )
        return self.queue.push(time, action, name)

    def after(self, delay: float, action: Callable[[], None], name: str = "") -> Event:
        """Schedule ``action`` after ``delay`` seconds from now."""
        if delay < 0:
            raise ValidationError(f"delay must be non-negative, got {delay}")
        return self.queue.push(self.clock.now + delay, action, name)

    def every(
        self,
        interval: float,
        action: Callable[[], None],
        name: str = "",
        start: float | None = None,
        until: float | None = None,
    ) -> Event:
        """Schedule ``action`` to fire every ``interval`` seconds.

        Args:
            interval: spacing between firings; must be positive.
            action: zero-argument callable run at each firing.
            name: label used for the underlying events.
            start: absolute time of the first firing.  Defaults to
                ``now + interval`` (i.e. the first tick happens one interval
                from now, matching "triggered every hour" semantics in §6).
            until: if given, no firing is scheduled at or after this time.

        Returns:
            The event handle for the *first* firing; recurrence re-arms
            itself from within each firing.
        """
        if interval <= 0:
            raise ValidationError(f"interval must be positive, got {interval}")
        first = self.clock.now + interval if start is None else start

        def fire() -> None:
            action()
            next_time = self.clock.now + interval
            if until is None or next_time < until:
                self.queue.push(next_time, fire, name)

        if until is not None and first >= until:
            # Nothing to schedule; return a dummy cancelled event for API shape.
            event = self.queue.push(first, fire, name)
            self.queue.cancel(event)
            return event
        return self.queue.push(first, fire, name)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        self.queue.cancel(event)

    # --- execution ------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event, advancing the clock to it.

        Returns:
            ``True`` if an event was executed, ``False`` if the queue was empty.
        """
        if not self.queue:
            return False
        event = self.queue.pop()
        self.clock.advance_to(event.time)
        event.action()
        return True

    def run_until(self, end_time: float) -> None:
        """Run events with ``time <= end_time`` then set the clock to ``end_time``.

        Events scheduled beyond ``end_time`` remain queued, so simulations can
        be resumed with a later horizon.
        """
        if end_time < self.clock.now:
            raise ValidationError(
                f"end_time {end_time} is before current time {self.clock.now}"
            )
        while True:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > end_time:
                break
            self.step()
        self.clock.advance_to(end_time)

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue is empty.

        Args:
            max_events: safety valve against runaway self-rescheduling loops.

        Raises:
            RuntimeError: if more than ``max_events`` events fire.
        """
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
