"""Unit tests for the engine's pooled timers (repro.sim.core)."""

from __future__ import annotations

import pytest

from repro.sim.errors import EventLifecycleError


class TestSleep:
    def test_sleep_fires_after_delay(self, env):
        times = []
        env._sleep(5.5, lambda e: times.append(env.now))
        env.run()
        assert times == [5.5]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env._sleep(-0.1, lambda e: None)

    def test_zero_delay_fires_at_current_time(self, env):
        times = []
        env._sleep(0.0, lambda e: times.append(env.now))
        env.run()
        assert times == [0.0]
        assert env.now == 0.0


class TestCancellableSleep:
    """The kernel's cancellable-timer primitive: ``_Sleep.cancel()``.

    Preemptive servers schedule a completion timer per dispatch and must
    be able to revoke it without firing its callbacks (and without
    leaking the pooled object or corrupting a later reuse of it).
    """

    def test_cancelled_sleep_never_fires_callback(self, env):
        fired = []
        sleep = env._sleep(5.0, lambda event: fired.append(event))
        sleep.cancel()
        env.run(until=10.0)
        assert fired == []

    def test_cancelled_sleep_returns_to_pool_at_expiry(self, env):
        sleep = env._sleep(5.0, lambda event: None)
        sleep.cancel()
        assert sleep not in env._sleep_pool  # still parked in the heap
        env.run(until=10.0)
        assert sleep in env._sleep_pool

    def test_cancel_then_resleep_uses_a_fresh_object(self, env):
        """Until its stale heap entry pops, a cancelled sleep must NOT be
        reused -- a second heap entry for the same object would fire the
        new owner's callback at the old expiry."""
        fired = []
        first = env._sleep(5.0, lambda event: None)
        first.cancel()
        second = env._sleep(1.0, lambda event: fired.append(env.now))
        assert second is not first
        env.run(until=10.0)
        assert fired == [1.0]

    def test_recycled_after_cancellation_fires_normally(self, env):
        """Once recycled through the pool, a previously cancelled object
        serves later sleeps exactly like a fresh one."""
        first = env._sleep(2.0, lambda event: None)
        first.cancel()
        env.run(until=3.0)  # stale entry pops; object returns to the pool
        assert first in env._sleep_pool

        fired = []
        reused = env._sleep(4.0, lambda event: fired.append(env.now))
        assert reused is first
        env.run(until=10.0)
        assert fired == [7.0]

    def test_cancel_processed_sleep_raises(self, env):
        sleep = env._sleep(1.0, lambda event: None)
        env.run(until=2.0)
        with pytest.raises(EventLifecycleError):
            sleep.cancel()

    def test_cancellation_does_not_disturb_other_events(self, env):
        order = []
        env._sleep(3.0, lambda event: order.append("keep"))
        victim = env._sleep(1.0, lambda event: order.append("victim"))
        env._sleep(5.0, lambda event: order.append("late"))
        victim.cancel()
        env.run(until=10.0)
        assert order == ["keep", "late"]

    def test_cancel_at_expiry_instant_is_honored(self, env):
        """Cancelling at the very instant the sleep expires (same time,
        earlier event) still suppresses the callback -- the preemption
        boundary case where a preemption lands at the completion
        instant."""
        fired = []
        # The trigger is armed first, so at t=1.0 it is processed
        # before the sleep (same time, smaller sequence key).
        env._sleep(1.0, lambda event: sleep.cancel())
        sleep = env._sleep(1.0, lambda event: fired.append(event))
        env.run(until=2.0)
        assert fired == []
        assert sleep in env._sleep_pool
