"""Engine contract tests for ``repro.sim._engine``.

The first part pins the event-ordering contract of the engine: time
order, FIFO among same-time events, the urgent deque, the run horizon,
and pooled, cancellable sleeps.

The second part pins :meth:`Environment.step` as the faithful reference
implementation of the inlined run loop: a manually stepped, traced
simulation must match ``run()`` event for event and metric for metric.

The rest covers the kernel-internal primitives the system model runs
on: ``_schedule_call`` bookkeeping events, the generic ``_schedule``
path, sequence-key accounting, ``run(until=...)`` edge cases, and the
pickling contract checkpoints rely on.
"""

from __future__ import annotations

import pytest

from repro.sim import _engine
from repro.sim._engine import NORMAL, URGENT, Environment, Timeout
from repro.sim.errors import EventLifecycleError, SimulationError, StopSimulation


class TestEventOrdering:
    def test_time_order(self):
        env = Environment()
        order = []
        for delay in (5.0, 1.0, 3.0, 2.0, 4.0):
            env.timeout(delay, value=delay).callbacks.append(
                lambda e: order.append(e.value)
            )
        env.run()
        assert order == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_fifo_among_simultaneous(self):
        env = Environment()
        order = []
        for tag in "abcde":
            env.timeout(1.0, value=tag).callbacks.append(
                lambda e: order.append(e.value)
            )
        env.run()
        assert order == list("abcde")

    def test_urgent_calls_run_before_normal_events_at_same_time(self):
        """An urgent ``_schedule_call`` issued while dispatching an event
        must run before every already-scheduled normal event at the same
        timestamp -- the deque bypass must be order-equivalent to the old
        ``(time, URGENT, seq)`` heap entries."""
        env = Environment()
        order = []
        first = env.timeout(1.0)
        env.timeout(1.0, value="normal-later").callbacks.append(
            lambda e: order.append(e.value)
        )

        def schedule_urgent(_event):
            env._schedule_call(lambda e: order.append("urgent"))

        first.callbacks.append(schedule_urgent)
        env.run()
        assert order == ["urgent", "normal-later"]

    def test_urgent_calls_are_fifo(self):
        env = Environment()
        order = []
        env._schedule_call(lambda e: order.append(1))
        env._schedule_call(lambda e: order.append(2))
        env._schedule_call(lambda e: order.append(3))
        env.run()
        assert order == [1, 2, 3]

    def test_normal_schedule_call_keeps_heap_fifo(self):
        """NORMAL-priority calls interleave with other normal events by
        schedule order (they consume sequence keys)."""
        env = Environment()
        order = []
        env.timeout(0.0, value="t1").callbacks.append(
            lambda e: order.append(e.value)
        )
        env._schedule_call(
            lambda e: order.append("call"), priority=NORMAL
        )
        env.timeout(0.0, value="t2").callbacks.append(
            lambda e: order.append(e.value)
        )
        env.run()
        assert order == ["t1", "call", "t2"]

    def test_run_until_horizon(self):
        env = Environment()
        fired = []
        env.timeout(20.0).callbacks.append(lambda e: fired.append(env.now))
        env.run(until=10.0)
        assert fired == []
        assert env.now == 10.0
        env.run(until=30.0)
        assert fired == [20.0]
        assert env.now == 30.0

    def test_event_at_horizon_instant_runs(self):
        env = Environment()
        fired = []
        env.timeout(10.0).callbacks.append(lambda e: fired.append(env.now))
        env.run(until=10.0)
        assert fired == [10.0]

    def test_run_until_event(self):
        env = Environment()
        event = env.timeout(4.0, value="done")
        assert env.run(until=event) == "done"
        assert env.now == 4.0

    def test_user_stop_inside_timed_run_withdraws_horizon(self):
        """A StopSimulation raised by user code during ``run(until=t)``
        must not leave the horizon sentinel behind: a later run past
        ``t`` keeps going."""
        env = Environment()

        def stopper(_event):
            raise StopSimulation("early")

        env.timeout(1.0).callbacks.append(stopper)
        fired = []
        env.timeout(5.0).callbacks.append(lambda e: fired.append(env.now))
        assert env.run(until=10.0) == "early"
        env.run(until=20.0)
        assert fired == [5.0]
        assert env.now == 20.0

    def test_sleep_pooling_and_cancel(self):
        env = Environment()
        fired = []
        sleep = env._sleep(2.0, lambda e: fired.append(env.now))
        env.run(until=3.0)
        assert fired == [2.0]
        assert sleep in env._sleep_pool
        with pytest.raises(EventLifecycleError):
            sleep.cancel()
        again = env._sleep(1.0, lambda e: fired.append(env.now))
        assert again is sleep
        again.cancel()
        env.run(until=5.0)
        assert fired == [2.0]
        assert sleep in env._sleep_pool

    def test_peek_and_step(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(9.0)
        env.timeout(2.0)
        assert env.peek() == 2.0
        env.step()
        assert env.now == 2.0
        env._schedule_call(lambda e: None)
        assert env.peek() == env.now  # urgent call is due immediately
        env.step()
        env.step()
        assert env.now == 9.0
        with pytest.raises(SimulationError):
            env.step()

    def test_run_until_pooled_sleep_is_rejected(self):
        """A pooled sleep is recycled at expiry, so waiting on one is
        always a bug -- the kernel fails loudly instead of returning
        instantly (pending sleeps carry no callback list)."""
        env = Environment()
        sleep = env._sleep(5.0, lambda e: None)
        with pytest.raises(SimulationError, match="pooled kernel sleep"):
            env.run(until=sleep)

    def test_failed_event_crashes_unless_defused(self):
        env = Environment()
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        env2 = Environment()
        env2.event().fail(RuntimeError("ok")).defuse()
        env2.run()


class TestStepMatchesRunLoop:
    """``Environment.step()`` is the reference implementation of one run
    loop iteration; a stepped, traced simulation must reproduce the
    inlined loop event for event (same trace) and bit for bit (same
    RunResult)."""

    CONFIGS = [
        dict(seed=42),
        dict(seed=13, preemptive=True, strategy="EQF"),
    ]

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_stepped_equals_run(self, overrides):
        from repro.system.config import baseline_config
        from repro.system.simulation import Simulation

        config = baseline_config(
            sim_time=600.0, warmup_time=60.0, trace=True, **overrides
        )

        reference = Simulation(config)
        reference_result = reference.run()

        stepped = Simulation(config)
        env = stepped.env
        for horizon, at_end in (
            (config.warmup_time, stepped.metrics.reset),
            (config.sim_time, None),
        ):
            while env.peek() <= horizon:
                env.step()
            if env.now < horizon:
                env._now = horizon  # run(until=t) advances the clock too
            if at_end is not None:
                at_end(env.now)
        stepped_result = stepped.metrics.snapshot(env.now)

        def key(event):
            # Everything but unit_name: the lazy display name embeds the
            # process-global unit id, which keeps counting across the two
            # back-to-back simulations (the ordering-relevant identity --
            # time, kind, node, class, deadline -- is all here).
            return (
                event.time, event.kind, event.node_index,
                event.task_class, event.deadline,
            )

        assert (
            [key(e) for e in stepped.trace_log.events]
            == [key(e) for e in reference.trace_log.events]
        )
        assert stepped_result == reference_result

class TestBookkeepingCalls:
    """``_schedule_call``: the bare single-callback events node servers,
    preemption pokes and deferred continuations run on."""

    def test_call_payload_reaches_callback(self):
        env = Environment()
        seen = []
        env._schedule_call(
            lambda e: seen.append((e._ok, e._value)), value="payload"
        )
        env._schedule_call(
            lambda e: seen.append((e._ok, e._value)),
            ok=False, value=KeyError("k"), defused=True,
        )
        env.run()
        assert seen[0] == (True, "payload")
        assert seen[1][0] is False
        assert isinstance(seen[1][1], KeyError)

    @pytest.mark.parametrize("priority", [URGENT, NORMAL], ids=["urgent", "normal"])
    def test_failed_call_crashes_run_unless_defused(self, priority):
        env = Environment()
        env._schedule_call(
            lambda e: None, ok=False, value=RuntimeError("boom"),
            priority=priority,
        )
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        env2 = Environment()
        env2._schedule_call(
            lambda e: None, ok=False, value=RuntimeError("ok"),
            defused=True, priority=priority,
        )
        env2.run()

    def test_callback_may_defuse_a_failed_call(self):
        env = Environment()

        def handle(event):
            event._defused = True

        env._schedule_call(handle, ok=False, value=RuntimeError("handled"))
        env.run()

    def test_step_raises_failed_urgent_call(self):
        env = Environment()
        env._schedule_call(lambda e: None, ok=False, value=ValueError("v"))
        with pytest.raises(ValueError, match="v"):
            env.step()

    def test_urgent_calls_consume_no_sequence_numbers(self):
        """The determinism contract of the urgent deque: urgent calls
        never take a heap key, so they cannot relabel normal events."""
        env = Environment()
        before = env._seq_peek()
        env._schedule_call(lambda e: None)
        env._schedule_call(lambda e: None)
        assert env._seq_peek() == before
        env._schedule_call(lambda e: None, priority=NORMAL)
        assert env._seq_peek() == before + 1

    def test_pooled_call_can_be_reenqueued(self):
        """Long-lived owners keep one ``_Call`` and push it back onto the
        urgent deque after it fired, as node wake-ups do."""
        env = Environment()
        fired = []
        wake = env._schedule_call(lambda e: fired.append(env.now))

        def later(_event):
            env._urgent.append(wake)

        env.timeout(3.0).callbacks.append(later)
        env.run()
        assert fired == [0.0, 3.0]

    def test_urgent_call_from_urgent_call_runs_before_heap(self):
        env = Environment()
        order = []
        env.timeout(0.0).callbacks.append(lambda e: order.append("normal"))

        def first(_event):
            order.append("first")
            env._schedule_call(lambda e: order.append("second"))

        env._schedule_call(first)
        env.run()
        assert order == ["first", "second", "normal"]


class TestDelayedSchedule:
    """The generic ``_schedule(event, priority, delay)`` path."""

    def _tagged(self, env, tag, order):
        event = env.event()
        event._value = tag
        event.callbacks.append(lambda e: order.append(e._value))
        return event

    def test_urgent_delayed_schedule_sorts_ahead_of_normal(self):
        env = Environment()
        order = []
        env.timeout(2.0, value="timeout").callbacks.append(
            lambda e: order.append(e.value)
        )
        env._schedule(self._tagged(env, "normal", order), NORMAL, 2.0)
        env._schedule(self._tagged(env, "urgent", order), URGENT, 2.0)
        env.run()
        assert order == ["urgent", "timeout", "normal"]

    def test_urgent_delayed_schedules_are_fifo(self):
        env = Environment()
        order = []
        for tag in "abc":
            env._schedule(self._tagged(env, tag, order), URGENT, 1.0)
        env.run()
        assert order == list("abc")

    def test_delayed_schedule_fires_at_now_plus_delay(self):
        env = Environment(initial_time=10.0)
        stamps = []
        event = env.event()
        event._value = None
        event.callbacks.append(lambda e: stamps.append(env.now))
        env._schedule(event, NORMAL, 2.5)
        env.run()
        assert stamps == [12.5]


class TestSequenceKeys:
    def test_seq_peek_does_not_consume(self):
        env = Environment()
        env.timeout(1.0)
        peeked = env._seq_peek()
        assert env._seq_peek() == peeked
        assert env._next_seq() == peeked

    def test_run_horizon_consumes_no_sequence_number(self):
        """Slicing a run into many ``run(until=t)`` calls (checkpointing
        and emission do) must not move the key of any later event."""
        sliced = Environment()
        whole = Environment()
        for env in (sliced, whole):
            env.timeout(7.0)
        for t in (1.0, 2.0, 3.0, 4.0):
            sliced.run(until=t)
        whole.run(until=4.0)
        assert sliced._seq_peek() == whole._seq_peek()


class TestRunUntil:
    def test_run_until_event_leaves_later_events_queued(self):
        env = Environment()
        fired = []
        target = env.timeout(2.0, value="target")
        env.timeout(5.0).callbacks.append(lambda e: fired.append(env.now))
        assert env.run(until=target) == "target"
        assert fired == []
        assert env.peek() == 5.0
        env.run()
        assert fired == [5.0]

    def test_run_until_event_triggered_by_a_callback(self):
        env = Environment()
        target = env.event()
        env.timeout(3.0).callbacks.append(lambda e: target.succeed("late"))
        assert env.run(until=target) == "late"
        assert env.now == 3.0

    def test_run_until_processed_event_returns_at_once(self):
        env = Environment()
        target = env.timeout(1.0, value="old")
        env.run()
        env.timeout(4.0)
        assert env.run(until=target) == "old"
        assert env.now == 1.0
        assert env.peek() == 5.0

    def test_model_error_inside_timed_run_withdraws_horizon(self):
        env = Environment()

        def broken(_event):
            raise ValueError("model bug")

        env.timeout(1.0).callbacks.append(broken)
        fired = []
        env.timeout(15.0).callbacks.append(lambda e: fired.append(env.now))
        with pytest.raises(ValueError, match="model bug"):
            env.run(until=10.0)
        assert env.now == 1.0
        env.run(until=20.0)
        assert fired == [15.0]
        assert env.now == 20.0


class TestEventDispatch:
    def test_callback_list_is_dropped_after_processing(self):
        env = Environment()
        event = env.timeout(1.0)
        env.run()
        assert event.processed
        assert event.callbacks is None

    def test_succeed_inside_callback_queues_behind_same_time_events(self):
        env = Environment()
        order = []
        follow_up = env.event()
        follow_up.callbacks.append(lambda e: order.append(e.value))
        env.timeout(1.0).callbacks.append(lambda e: follow_up.succeed("chained"))
        env.timeout(1.0, value="queued").callbacks.append(
            lambda e: order.append(e.value)
        )
        env.run()
        assert order == ["queued", "chained"]
        assert env.now == 1.0

    def test_every_callback_sees_a_failed_event_before_the_crash(self):
        env = Environment()
        seen = []
        event = env.event()
        event.callbacks.append(lambda e: seen.append("first"))
        event.callbacks.append(lambda e: seen.append("second"))
        event.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert seen == ["first", "second"]


class TestPooledSleepContract:
    @pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "pooled"])
    def test_negative_sleep_delay_rejected(self, pooled):
        env = Environment()
        if pooled:
            env._sleep(1.0, lambda e: None)
            env.run()
        pool_before = list(env._sleep_pool)
        with pytest.raises(ValueError, match="negative"):
            env._sleep(-1.0, lambda e: None)
        assert env._sleep_pool == pool_before
        assert env.peek() == float("inf")

    def test_sleep_callback_may_rearm_the_same_object(self):
        """The run loop recycles a sleep *before* calling its callback,
        so a callback that sleeps again gets the very object back."""
        env = Environment()
        seen = []

        def tick(event):
            seen.append((env.now, event))
            if len(seen) < 3:
                env._sleep(1.0, tick)

        first = env._sleep(1.0, tick)
        env.run()
        assert [t for t, _ in seen] == [1.0, 2.0, 3.0]
        assert all(event is first for _, event in seen)
        assert env._sleep_pool == [first]


class _Recorder:
    """Picklable callback target: records (label, time) pairs."""

    def __init__(self, env):
        self.env = env
        self.log = []

    def hit(self, event):
        self.log.append((event._value, self.env.now))

    def slept(self, event):
        self.log.append(("sleep", self.env.now))


class TestPickling:
    """Checkpoints pickle the environment graph; a restored copy must
    carry on exactly as the original."""

    def _populated(self):
        env = Environment()
        recorder = _Recorder(env)
        for delay, tag in ((3.0, "c"), (1.0, "a"), (1.0, "b")):
            env.timeout(delay, value=tag).callbacks.append(recorder.hit)
        env._sleep(2.0, recorder.slept)
        env._schedule_call(recorder.hit, value="urgent")
        env._schedule_call(recorder.hit, value="normal-call", priority=NORMAL)
        return env, recorder

    def test_round_trip_continues_identically(self):
        import pickle

        env, recorder = self._populated()
        restored_env, restored = pickle.loads(pickle.dumps((env, recorder)))
        assert restored_env._seq_peek() == env._seq_peek()
        env.run()
        restored_env.run()
        assert restored.log == recorder.log
        assert recorder.log[0] == ("urgent", 0.0)
        assert restored_env._seq_peek() == env._seq_peek()

    def test_pending_sentinel_identity_survives(self):
        import pickle

        env = Environment()
        event = env.event()
        clone = pickle.loads(pickle.dumps(event))
        assert not clone.triggered
        with pytest.raises(EventLifecycleError):
            clone.value

    def test_timeout_subclass_is_not_checkpointable(self):
        import pickle

        class Custom(Timeout):
            __slots__ = ()

        env = Environment()
        with pytest.raises(TypeError, match="Custom"):
            pickle.dumps(Custom(env, 1.0))

    def test_classes_pickle_under_the_engine_module_path(self):
        """Existing checkpoints name ``repro.sim._engine`` classes; the
        public re-export in ``repro.sim.core`` must not change that."""
        import pickle

        from repro.sim import core

        env, _recorder = self._populated()
        payload = pickle.dumps(env)
        assert b"repro.sim._engine" in payload
        for name in core.__all__:
            obj = getattr(core, name)
            assert obj is getattr(_engine, name)
        for cls in (core.Environment, core.Event, core.Timeout, core._Call):
            assert cls.__module__ == "repro.sim._engine"
