"""Tests for the ``script`` fixture in ``tests/conftest.py``.

System tests inject timed arrivals through ``script``, and several pin
same-instant outcomes (preemption storms, arrivals at a completion
instant).  Those expected values depend on the fixture's event order,
so the order is pinned here on the bare engine.
"""

from __future__ import annotations

import pytest


class TestScriptFixture:
    def test_actions_run_in_order_at_their_times(self, env, script):
        log = []
        script(
            lambda: log.append(("a", env.now)),
            lambda: log.append(("b", env.now)),
            2.0,
            lambda: log.append(("c", env.now)),
            0.5,
            lambda: log.append(("d", env.now)),
        )
        env.run()
        assert log == [("a", 0.0), ("b", 0.0), ("c", 2.0), ("d", 2.5)]

    def test_first_segment_runs_ahead_of_same_instant_events(self, env, script):
        """The kick is an urgent call: it beats normal events due now,
        even ones scheduled before the script started."""
        log = []
        env._sleep(0.0, lambda e: log.append("sleep"))
        script(lambda: log.append("script"))
        env.run()
        assert log == ["script", "sleep"]

    def test_wait_is_armed_when_the_previous_segment_ends(self, env, script):
        """A wait takes its heap key from inside the previous callback,
        after that segment's actions: same-instant sleeps armed before
        the script, or by its own actions, fire first."""
        log = []
        env._sleep(1.0, lambda e: log.append("armed-before"))

        def arm_inside():
            env._sleep(1.0, lambda e: log.append("armed-inside"))

        script(arm_inside, 1.0, lambda: log.append("script"))
        env.run()
        assert log == ["armed-before", "armed-inside", "script"]

    def test_scripts_start_in_creation_order(self, env, script):
        log = []
        for tag in "xyz":
            script(lambda tag=tag: log.append(tag), 1.0,
                   lambda tag=tag: log.append(tag.upper()))
        env.run()
        assert log == ["x", "y", "z", "X", "Y", "Z"]

    def test_zero_wait_yields_to_queued_same_instant_events(self, env, script):
        log = []
        script(
            lambda: env._sleep(0.0, lambda e: log.append("queued")),
            0.0,
            lambda: log.append("after-yield"),
        )
        env.run()
        assert log == ["queued", "after-yield"]
        assert env.now == 0.0

    def test_action_error_propagates_out_of_run(self, env, script):
        def broken():
            raise RuntimeError("scripted failure")

        script(1.0, broken)
        with pytest.raises(RuntimeError, match="scripted failure"):
            env.run()
        assert env.now == 1.0
