"""Unit tests for Environment scheduling semantics (repro.sim.core)."""

from __future__ import annotations

import pytest

from repro.sim.core import Environment
from repro.sim.errors import SimulationError


class TestClockAndRun:
    def test_initial_time_defaults_to_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_override(self):
        assert Environment(initial_time=100.0).now == 100.0

    def test_run_until_time_advances_clock(self, env):
        env.timeout(3)
        env.run(until=10)
        assert env.now == 10

    def test_run_until_time_stops_before_later_events(self, env):
        fired = []
        late = env.timeout(20)
        late.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=10)
        assert fired == []
        assert env.now == 10

    def test_run_until_event_returns_value(self, env):
        event = env.timeout(4, value="done")
        assert env.run(until=event) == "done"
        assert env.now == 4

    def test_run_until_already_triggered_event(self, env):
        event = env.timeout(0, value="early")
        env.run()
        assert env.run(until=event) == "early"

    def test_run_until_past_raises(self, env):
        env.timeout(5)
        env.run(until=5)
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_run_until_event_never_triggered_raises(self, env):
        pending = env.event()
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=pending)

    def test_run_without_until_exhausts_queue(self, env):
        env.timeout(1)
        env.timeout(7)
        env.run()
        assert env.now == 7

    def test_resumable_runs(self, env):
        env.timeout(5)
        env.timeout(15)
        env.run(until=10)
        assert env.now == 10
        env.run(until=20)
        assert env.now == 20


class TestStepAndPeek:
    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(9)
        env.timeout(2)
        assert env.peek() == 2

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_step_processes_one_event(self, env):
        env.timeout(1)
        env.timeout(2)
        env.step()
        assert env.now == 1
        env.step()
        assert env.now == 2


class TestOrdering:
    def test_events_fire_in_time_order(self, env):
        order = []
        for delay in (5, 1, 3, 2, 4):
            event = env.timeout(delay, value=delay)
            event.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == [1, 2, 3, 4, 5]

    def test_fifo_among_simultaneous_events(self, env):
        order = []
        for tag in "abcde":
            event = env.timeout(1.0, value=tag)
            event.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == list("abcde")

    def test_scheduling_into_the_past_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env._schedule(event, 1, -1.0)

    def test_clock_never_goes_backwards(self, env, script):
        stamps = []

        script(*[0.5, lambda: stamps.append(env.now)] * 10)
        env.timeout(0)
        env.timeout(2.5)
        env.run()
        assert stamps == sorted(stamps)
