"""Engine contract tests for ``repro.sim._engine``.

The first part pins the event-ordering contract of the engine: time
order, FIFO among same-time events, the urgent deque, the run horizon,
and pooled, cancellable sleeps.

The second part pins :meth:`Environment.step` as the faithful reference
implementation of the inlined run loop: a manually stepped, traced
simulation must match ``run()`` event for event and metric for metric.

The rest covers the kernel-internal primitives the system model runs
on: ``_schedule_call`` bookkeeping events, sequence-key accounting,
``run(until=t)`` edge cases, error propagation, and the pickling
contract checkpoints rely on.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.sim import _engine
from repro.sim._engine import NORMAL, URGENT, Environment, _Call, _Sleep
from repro.sim.errors import EventLifecycleError, SimulationError, StopSimulation


def _noop(_event) -> None:
    pass


class TestEventOrdering:
    def test_time_order(self):
        env = Environment()
        order = []
        for delay in (5.0, 1.0, 3.0, 2.0, 4.0):
            env._sleep(delay, lambda e, delay=delay: order.append(delay))
        env.run()
        assert order == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_fifo_among_simultaneous(self):
        env = Environment()
        order = []
        for tag in "abcde":
            env._sleep(1.0, lambda e, tag=tag: order.append(tag))
        env.run()
        assert order == list("abcde")

    def test_urgent_calls_run_before_normal_events_at_same_time(self):
        """An urgent ``_schedule_call`` issued while dispatching an event
        must run before every already-scheduled normal event at the same
        timestamp -- the deque bypass must be order-equivalent to the old
        ``(time, URGENT, seq)`` heap entries."""
        env = Environment()
        order = []

        def schedule_urgent(_event):
            env._schedule_call(lambda e: order.append("urgent"))

        env._sleep(1.0, schedule_urgent)
        env._sleep(1.0, lambda e: order.append("normal-later"))
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
        env._sleep(0.0, lambda e: order.append("s1"))
        env._schedule_call(
            lambda e: order.append("call"), priority=NORMAL
        )
        env._sleep(0.0, lambda e: order.append("s2"))
        env.run()
        assert order == ["s1", "call", "s2"]

    def test_run_until_horizon(self):
        env = Environment()
        fired = []
        env._sleep(20.0, lambda e: fired.append(env.now))
        env.run(until=10.0)
        assert fired == []
        assert env.now == 10.0
        env.run(until=30.0)
        assert fired == [20.0]
        assert env.now == 30.0

    def test_event_at_horizon_instant_runs(self):
        env = Environment()
        fired = []
        env._sleep(10.0, lambda e: fired.append(env.now))
        env.run(until=10.0)
        assert fired == [10.0]

    def test_user_stop_inside_timed_run_withdraws_horizon(self):
        """A StopSimulation raised by user code during ``run(until=t)``
        must not leave the horizon sentinel behind: a later run past
        ``t`` keeps going."""
        env = Environment()

        def stopper(_event):
            raise StopSimulation("early")

        env._sleep(1.0, stopper)
        fired = []
        env._sleep(5.0, lambda e: fired.append(env.now))
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
        env._sleep(9.0, _noop)
        env._sleep(2.0, _noop)
        assert env.peek() == 2.0
        env.step()
        assert env.now == 2.0
        env._schedule_call(_noop)
        assert env.peek() == env.now  # urgent call is due immediately
        env.step()
        env.step()
        assert env.now == 9.0
        with pytest.raises(SimulationError):
            env.step()

    def test_heap_holds_only_sleeps_and_calls(self):
        """The two event kinds: everything the model schedules is a pooled
        sleep or a bare call -- there is no event anything waits on."""
        env = Environment()
        env._sleep(1.0, _noop)
        env._schedule_call(_noop, priority=NORMAL)
        env._schedule_call(_noop)
        assert {type(entry[2]) for entry in env._queue} == {_Sleep, _Call}
        assert [type(call) for call in env._urgent] == [_Call]


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
            return (
                event.time, event.kind, event.unit_name, event.node_index,
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
        call = env._schedule_call(lambda e: seen.append(e), value="payload")
        env._schedule_call(
            lambda e: seen.append(e), value="normal", priority=NORMAL
        )
        env._schedule_call(lambda e: seen.append(e), priority=URGENT)
        env.run()
        assert seen[0] is call
        assert [e._value for e in seen] == ["payload", None, "normal"]

    def test_urgent_calls_consume_no_sequence_numbers(self):
        """The determinism contract of the urgent deque: urgent calls
        never take a heap key, so they cannot relabel normal events."""
        env = Environment()
        before = env._seq_peek()
        env._schedule_call(_noop)
        env._schedule_call(_noop)
        assert env._seq_peek() == before
        env._schedule_call(_noop, priority=NORMAL)
        assert env._seq_peek() == before + 1

    def test_normal_call_is_due_now(self):
        env = Environment(initial_time=4.0)
        stamps = []
        env._sleep(1.0, lambda e: env._schedule_call(
            lambda e: stamps.append(env.now), priority=NORMAL
        ))
        env.run()
        assert stamps == [5.0]

    def test_pooled_call_can_be_reenqueued(self):
        """Long-lived owners keep one ``_Call`` and push it back onto the
        urgent deque after it fired, as node wake-ups do."""
        env = Environment()
        fired = []
        wake = env._schedule_call(lambda e: fired.append(env.now))

        def later(_event):
            env._urgent.append(wake)

        env._sleep(3.0, later)
        env.run()
        assert fired == [0.0, 3.0]

    def test_urgent_call_from_urgent_call_runs_before_heap(self):
        env = Environment()
        order = []
        env._sleep(0.0, lambda e: order.append("normal"))

        def first(_event):
            order.append("first")
            env._schedule_call(lambda e: order.append("second"))

        env._schedule_call(first)
        env.run()
        assert order == ["first", "second", "normal"]


class TestErrorPropagation:
    """A callback's exception leaves the run loop unchanged: model bugs
    cannot pass silently, whatever kind of event ran the callback."""

    @staticmethod
    def _broken(_event):
        raise RuntimeError("boom")

    def _arm(self, env, kind):
        if kind == "sleep":
            env._sleep(1.0, self._broken)
        elif kind == "urgent":
            env._schedule_call(self._broken)
        else:
            env._schedule_call(self._broken, priority=NORMAL)

    @pytest.mark.parametrize("kind", ["sleep", "urgent", "normal"])
    def test_run_raises_callback_error(self, kind):
        env = Environment()
        self._arm(env, kind)
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    @pytest.mark.parametrize("kind", ["sleep", "urgent", "normal"])
    def test_step_raises_callback_error(self, kind):
        env = Environment()
        self._arm(env, kind)
        with pytest.raises(RuntimeError, match="boom"):
            env.step()


class TestSequenceKeys:
    def test_seq_peek_does_not_consume(self):
        env = Environment()
        env._sleep(1.0, _noop)
        peeked = env._seq_peek()
        assert env._seq_peek() == peeked
        assert env._next_seq() == peeked

    def test_run_horizon_consumes_no_sequence_number(self):
        """Slicing a run into many ``run(until=t)`` calls (checkpointing
        and emission do) must not move the key of any later event."""
        sliced = Environment()
        whole = Environment()
        for env in (sliced, whole):
            env._sleep(7.0, _noop)
        for t in (1.0, 2.0, 3.0, 4.0):
            sliced.run(until=t)
        whole.run(until=4.0)
        assert sliced._seq_peek() == whole._seq_peek()


class TestRunUntil:
    def test_model_error_inside_timed_run_withdraws_horizon(self):
        env = Environment()

        def broken(_event):
            raise ValueError("model bug")

        env._sleep(1.0, broken)
        fired = []
        env._sleep(15.0, lambda e: fired.append(env.now))
        with pytest.raises(ValueError, match="model bug"):
            env.run(until=10.0)
        assert env.now == 1.0
        env.run(until=20.0)
        assert fired == [15.0]
        assert env.now == 20.0

    def test_consumed_horizon_leaves_no_sentinel(self):
        """A horizon the loop reached is popped, not withdrawn: the heap
        holds only the model's own events afterwards."""
        env = Environment()
        env._sleep(15.0, _noop)
        env.run(until=10.0)
        assert [entry[0] for entry in env._queue] == [15.0]
        assert all(type(entry[2]) is _Sleep for entry in env._queue)

    def test_horizon_on_an_empty_heap_advances_the_clock(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0
        assert env._queue == []


class TestEventDispatch:
    def test_call_inside_callback_queues_behind_same_time_events(self):
        """A NORMAL call scheduled by a callback takes the next heap key,
        so it runs after every event already due at that instant."""
        env = Environment()
        order = []
        env._sleep(1.0, lambda e: env._schedule_call(
            lambda e: order.append("chained"), priority=NORMAL
        ))
        env._sleep(1.0, lambda e: order.append("queued"))
        env.run()
        assert order == ["queued", "chained"]
        assert env.now == 1.0


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

    @pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "pooled"])
    def test_nan_sleep_delay_rejected(self, pooled):
        """A NaN delay passes a ``delay < 0`` test; queued, it would fire
        first, set the clock to NaN, and let a later sleep move the
        clock back."""
        env = Environment()
        if pooled:
            env._sleep(1.0, lambda e: None)
            env.run()
        pool_before = list(env._sleep_pool)
        with pytest.raises(ValueError, match="NaN"):
            env._sleep(float("nan"), lambda e: None)
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

    def tagged(self, tag, _event):
        self.log.append((tag, self.env.now))


class TestPickling:
    """Checkpoints pickle the environment graph; a restored copy must
    carry on exactly as the original."""

    def _populated(self):
        env = Environment()
        recorder = _Recorder(env)
        for delay, tag in ((3.0, "c"), (1.0, "a"), (1.0, "b")):
            env._sleep(delay, partial(recorder.tagged, tag))
        env._sleep(2.0, partial(recorder.tagged, "sleep"))
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

    def test_cancelled_and_processed_sleeps_round_trip(self):
        """A cancelled sleep stays silent after a restore, and a fired
        one in the pool still refuses a stale cancel."""
        import pickle

        env = Environment()
        recorder = _Recorder(env)
        fired = env._sleep(1.0, partial(recorder.tagged, "fired"))
        env.run(until=1.5)
        env._sleep(3.0, partial(recorder.tagged, "cancelled")).cancel()
        env._sleep(4.0, partial(recorder.tagged, "kept"))
        assert fired not in env._sleep_pool  # re-issued to "cancelled"
        restored_env, restored = pickle.loads(pickle.dumps((env, recorder)))
        restored_env.run()
        assert restored.log == [("fired", 1.0), ("kept", 5.5)]
        for sleep in restored_env._sleep_pool:
            with pytest.raises(EventLifecycleError):
                sleep.cancel()

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
        for cls in (core.Environment, core._Call, _Sleep):
            assert cls.__module__ == "repro.sim._engine"
