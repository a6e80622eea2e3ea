"""Trace capture: subscribe to fleet events, serialize them to JSONL.

A :class:`TraceRecorder` sits between a :class:`~repro.simulation.taps.TapBus`
and a :class:`~repro.replay.trace.TraceWriter`: the fleet model publishes
``onboard`` / ``day`` / ``compact`` events as it mutates (and the fleet
simulator publishes ``cycle`` summaries), and the recorder writes each one
through verbatim, prefixed by a seed-stamped header.

Typical wiring::

    taps = TapBus()
    config = FleetConfig(initial_tables=500, seed=7)
    recorder = TraceRecorder("run.trace.jsonl", taps, config=config)
    sim = FleetSimulator(config, taps=taps)   # initial onboard recorded
    sim.set_strategy(0, AutoCompStrategy(sim.model, k=10))
    sim.run_days(30)
    recorder.close()

The recorder subscribes *before* the model onboards its initial population,
so the trace always contains the complete fleet history — a replayer needs
no out-of-band state.
"""

from __future__ import annotations

import dataclasses
import os
from typing import IO

from repro.fleet.model import FleetConfig
from repro.replay.trace import TRACE_EVENT_KINDS, TRACE_SCHEMA_VERSION, TraceWriter
from repro.simulation.taps import TapBus


class TraceRecorder:
    """Records every fleet event published on a bus into a JSONL trace.

    Args:
        sink: trace destination — a path or an open text stream (e.g. an
            ``io.StringIO`` for in-memory capture).
        taps: the bus the fleet publishes on; the recorder subscribes to
            every trace-relevant kind immediately.
        config: the fleet configuration stamped into the header, which is
            written with the first event — the recorded
            :class:`~repro.fleet.FleetModel`'s initial onboard, published
            when it is constructed.

    A recorded trace can be re-chunked afterwards through a chunked
    :class:`~repro.replay.trace.TraceWriter`.
    """

    def __init__(
        self,
        sink: str | os.PathLike | IO[str],
        taps: TapBus,
        config: FleetConfig,
    ) -> None:
        self._writer = TraceWriter(sink)
        self._taps = taps
        self._header_written = False
        self._config = config
        self._closed = False
        for kind in TRACE_EVENT_KINDS:
            taps.subscribe(kind, self._on_event)

    @property
    def events_recorded(self) -> int:
        """Events written so far (header excluded)."""
        return max(self._writer.records_written - (1 if self._header_written else 0), 0)

    def _on_event(self, kind: str, payload: dict) -> None:
        if self._closed:
            return
        if not self._header_written:
            # The first event a fleet publishes is its initial onboard.
            self._writer.write(
                {
                    "kind": "header",
                    "schema": TRACE_SCHEMA_VERSION,
                    "seed": self._config.seed,
                    "config": dataclasses.asdict(self._config),
                }
            )
            self._header_written = True
        self._writer.write({"kind": kind, **payload})

    def close(self) -> None:
        """Unsubscribe and flush/close the underlying writer (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for kind in TRACE_EVENT_KINDS:
            self._taps.unsubscribe(kind, self._on_event)
        self._writer.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
