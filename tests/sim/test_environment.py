"""Unit tests for Environment scheduling semantics (repro.sim.core)."""

from __future__ import annotations

import pytest

from repro.sim.core import Environment
from repro.sim.errors import SimulationError


def _noop(_event) -> None:
    pass


class TestClockAndRun:
    def test_initial_time_defaults_to_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_override(self):
        assert Environment(initial_time=100.0).now == 100.0

    def test_run_until_time_advances_clock(self, env):
        env._sleep(3, _noop)
        env.run(until=10)
        assert env.now == 10

    def test_run_until_time_stops_before_later_events(self, env):
        fired = []
        env._sleep(20, lambda e: fired.append(env.now))
        env.run(until=10)
        assert fired == []
        assert env.now == 10

    def test_run_until_past_raises(self, env):
        env._sleep(5, _noop)
        env.run(until=5)
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_run_returns_none(self, env):
        env._sleep(1, _noop)
        assert env.run(until=5) is None
        env._sleep(1, _noop)
        assert env.run() is None

    def test_run_without_until_exhausts_queue(self, env):
        env._sleep(1, _noop)
        env._sleep(7, _noop)
        env.run()
        assert env.now == 7

    def test_resumable_runs(self, env):
        env._sleep(5, _noop)
        env._sleep(15, _noop)
        env.run(until=10)
        assert env.now == 10
        env.run(until=20)
        assert env.now == 20


class TestStepAndPeek:
    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env._sleep(9, _noop)
        env._sleep(2, _noop)
        assert env.peek() == 2

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_step_processes_one_event(self, env):
        env._sleep(1, _noop)
        env._sleep(2, _noop)
        env.step()
        assert env.now == 1
        env.step()
        assert env.now == 2


class TestOrdering:
    def test_events_fire_in_time_order(self, env):
        order = []
        for delay in (5, 1, 3, 2, 4):
            env._sleep(delay, lambda e, delay=delay: order.append(delay))
        env.run()
        assert order == [1, 2, 3, 4, 5]

    def test_fifo_among_simultaneous_events(self, env):
        order = []
        for tag in "abcde":
            env._sleep(1.0, lambda e, tag=tag: order.append(tag))
        env.run()
        assert order == list("abcde")

    def test_scheduling_into_the_past_rejected(self, env):
        with pytest.raises(ValueError, match="negative"):
            env._sleep(-1.0, _noop)
        assert env.peek() == float("inf")

    def test_clock_never_goes_backwards(self, env, script):
        stamps = []

        script(*[0.5, lambda: stamps.append(env.now)] * 10)
        env._sleep(0, _noop)
        env._sleep(2.5, _noop)
        env.run()
        assert stamps == sorted(stamps)
