"""Tests for the discrete-event simulator loop."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.simulation import SimClock, Simulator


class TestScheduling:
    def test_at_and_run_until(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: fired.append(sim.now))
        sim.at(10.0, lambda: fired.append(sim.now))
        sim.run_until(7.0)
        assert fired == [5.0]
        assert sim.now == 7.0
        sim.run_until(20.0)
        assert fired == [5.0, 10.0]
        assert sim.now == 20.0

    def test_after_relative(self):
        sim = Simulator(SimClock(start=100.0))
        fired = []
        sim.after(2.5, lambda: fired.append(sim.now))
        sim.run_until(200.0)
        assert fired == [102.5]

    def test_past_scheduling_rejected(self):
        sim = Simulator(SimClock(start=50.0))
        with pytest.raises(ValidationError):
            sim.at(49.0, lambda: None)
        with pytest.raises(ValidationError):
            sim.after(-1.0, lambda: None)

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.after(1.0, chain)

        sim.after(1.0, chain)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.at(5.0, lambda: fired.append("x"))
        sim.cancel(event)
        sim.run_until(10.0)
        assert fired == []


class TestEvery:
    def test_recurring_fires_at_interval(self):
        sim = Simulator()
        fired = []
        sim.every(10.0, lambda: fired.append(sim.now))
        sim.run_until(35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_recurring_with_explicit_start(self):
        sim = Simulator()
        fired = []
        sim.every(10.0, lambda: fired.append(sim.now), start=5.0)
        sim.run_until(30.0)
        assert fired == [5.0, 15.0, 25.0]

    def test_recurring_until_bound(self):
        sim = Simulator()
        fired = []
        sim.every(10.0, lambda: fired.append(sim.now), until=25.0)
        sim.run_until(100.0)
        assert fired == [10.0, 20.0]

    def test_until_before_first_firing_schedules_nothing(self):
        sim = Simulator()
        fired = []
        sim.every(10.0, lambda: fired.append(sim.now), until=5.0)
        sim.run_until(100.0)
        assert fired == []

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValidationError):
            Simulator().every(0.0, lambda: None)


class TestRun:
    def test_run_drains_queue(self):
        sim = Simulator()
        fired = []
        for t in (3.0, 1.0, 2.0):
            sim.at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_guards_against_infinite_loops(self):
        sim = Simulator()

        def rearm():
            sim.after(1.0, rearm)

        sim.after(1.0, rearm)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_run_until_backwards_rejected(self):
        sim = Simulator(SimClock(start=10.0))
        with pytest.raises(ValidationError):
            sim.run_until(5.0)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_equal_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.at(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]
