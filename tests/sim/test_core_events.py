"""Unit tests for the event lifecycle (repro.sim.core)."""

from __future__ import annotations

import pytest

from repro.sim.errors import EventLifecycleError


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(EventLifecycleError):
            _ = event.value

    def test_ok_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(EventLifecycleError):
            _ = event.ok

    def test_succeed_sets_value(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_with_none_value_still_triggered(self, env):
        event = env.event().succeed()
        assert event.triggered
        assert event.value is None

    def test_double_succeed_raises(self, env):
        event = env.event().succeed(1)
        with pytest.raises(EventLifecycleError):
            event.succeed(2)

    def test_fail_then_succeed_raises(self, env):
        event = env.event().fail(RuntimeError("boom"))
        event.defuse()
        with pytest.raises(EventLifecycleError):
            event.succeed(1)

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_fail_stores_exception(self, env):
        error = ValueError("bad")
        event = env.event().fail(error)
        event.defuse()
        assert not event.ok
        assert event.value is error

    def test_undefused_failure_crashes_run(self, env):
        env.event().fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_does_not_crash_run(self, env):
        event = env.event().fail(RuntimeError("handled"))
        event.defuse()
        env.run()  # must not raise

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]
        assert event.processed

    def test_repr_shows_state(self, env):
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)
        env.run()
        assert "processed" in repr(event)


class TestTimeout:
    def test_timeout_fires_after_delay(self, env):
        times = []
        event = env.timeout(5.5)
        event.callbacks.append(lambda e: times.append(env.now))
        env.run()
        assert times == [5.5]

    def test_timeout_carries_value(self, env):
        event = env.timeout(1.0, value="tick")
        env.run()
        assert event.value == "tick"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-0.1)

    def test_zero_delay_fires_at_current_time(self, env):
        event = env.timeout(0.0)
        env.run()
        assert event.processed
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
        late = env.timeout(5.0)
        late.callbacks.append(lambda event: order.append("late"))
        victim.cancel()
        env.run(until=10.0)
        assert order == ["keep", "late"]

    def test_cancel_at_expiry_instant_is_honored(self, env):
        """Cancelling at the very instant the sleep expires (same time,
        earlier event) still suppresses the callback -- the preemption
        boundary case where a preemption lands at the completion
        instant."""
        fired = []
        # The trigger is created first, so at t=1.0 it is processed
        # before the sleep (same time, smaller sequence key).
        trigger = env.timeout(1.0)
        sleep = env._sleep(1.0, lambda event: fired.append(event))
        trigger.callbacks.append(lambda event: sleep.cancel())
        env.run(until=2.0)
        assert fired == []
        assert sleep in env._sleep_pool
