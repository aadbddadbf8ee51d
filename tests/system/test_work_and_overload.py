"""Unit tests for WorkUnit and the overload policies."""

from __future__ import annotations

import gc

import pytest

from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.system.config import baseline_config
from repro.system.faults import FaultSpec
from repro.system.node import Node
from repro.system.overload import (
    OVERLOAD_POLICIES,
    AbortTardyAtDispatch,
    AbortVirtualAtDispatch,
    NoAbort,
    get_overload_policy,
)
from repro.system.simulation import Simulation
from repro.system.work import WorkUnit


def make_unit(env, dl=10.0, task_class=TaskClass.LOCAL, natural_deadline=None):
    timing = TimingRecord(ar=0.0, ex=1.0, dl=dl)
    return WorkUnit(
        name="u", task_class=task_class, node_index=0, timing=timing,
        natural_deadline=natural_deadline,
    )


class TestWorkUnit:
    def test_requires_deadline(self, env):
        timing = TimingRecord(ar=0.0, ex=1.0)  # no deadline assigned
        with pytest.raises(ValueError, match="without a deadline"):
            WorkUnit(name="u", task_class=TaskClass.LOCAL,
                     node_index=0, timing=timing)

    def test_no_completion_listener_by_default(self, env):
        assert make_unit(env).on_done is None

    def test_is_global_subtask(self, env):
        assert make_unit(env, task_class=TaskClass.GLOBAL).is_global_subtask
        assert not make_unit(env, task_class=TaskClass.LOCAL).is_global_subtask

    @pytest.mark.parametrize(
        "overrides", [{}, {"task_structure": "parallel"}],
        ids=["serial", "parallel"],
    )
    def test_ids_number_the_run_from_one(self, monkeypatch, overrides):
        """The local sources and the process manager draw from one
        counter per simulation: a run's units are numbered 1, 2, ... in
        submission order, whatever ran before it."""
        submitted = []
        submit = Node.submit

        def recording(node, unit):
            submitted.append(unit)
            submit(node, unit)

        monkeypatch.setattr(Node, "submit", recording)
        for _ in range(2):
            submitted.clear()
            Simulation(baseline_config(
                sim_time=200.0, warmup_time=20.0, seed=4, **overrides
            )).run()
            classes = {unit.task_class for unit in submitted}
            assert classes == {TaskClass.LOCAL, TaskClass.GLOBAL}
            assert [unit.id for unit in submitted] == list(
                range(1, len(submitted) + 1)
            )

    def test_repr(self, env):
        text = repr(make_unit(env))
        assert "local" in text
        assert "dl=10" in text


class TestNoAbort:
    def test_never_aborts(self, env):
        policy = NoAbort()
        unit = make_unit(env, dl=1.0)
        assert not policy.should_abort_at_dispatch(unit, now=1e9)


class TestAbortTardy:
    def test_aborts_past_deadline(self, env):
        policy = AbortTardyAtDispatch()
        unit = make_unit(env, dl=5.0)
        assert policy.should_abort_at_dispatch(unit, now=5.1)

    def test_keeps_at_exact_deadline(self, env):
        policy = AbortTardyAtDispatch()
        unit = make_unit(env, dl=5.0)
        assert not policy.should_abort_at_dispatch(unit, now=5.0)

    def test_keeps_before_deadline(self, env):
        policy = AbortTardyAtDispatch()
        unit = make_unit(env, dl=5.0)
        assert not policy.should_abort_at_dispatch(unit, now=2.0)

    def test_uses_natural_deadline_not_virtual(self, env):
        """A subtask past its virtual deadline but inside the end-to-end
        deadline is still worth running."""
        policy = AbortTardyAtDispatch()
        unit = make_unit(env, dl=5.0, task_class=TaskClass.GLOBAL,
                         natural_deadline=50.0)
        assert not policy.should_abort_at_dispatch(unit, now=10.0)
        assert policy.should_abort_at_dispatch(unit, now=51.0)

    def test_natural_defaults_to_virtual(self, env):
        assert make_unit(env, dl=5.0).natural_deadline == 5.0


class TestAbortVirtual:
    def test_aborts_past_virtual_deadline(self, env):
        """The blind component behaviour: discards on the assigned deadline
        even when the end-to-end deadline is still reachable."""
        policy = AbortVirtualAtDispatch()
        unit = make_unit(env, dl=5.0, task_class=TaskClass.GLOBAL,
                         natural_deadline=50.0)
        assert policy.should_abort_at_dispatch(unit, now=10.0)

    def test_keeps_before_virtual_deadline(self, env):
        policy = AbortVirtualAtDispatch()
        unit = make_unit(env, dl=5.0, natural_deadline=50.0)
        assert not policy.should_abort_at_dispatch(unit, now=4.0)


class TestRegistry:
    def test_known_policies(self):
        assert set(OVERLOAD_POLICIES) == {"no-abort", "abort-tardy", "abort-virtual"}

    def test_lookup_case_insensitive(self):
        assert get_overload_policy("No-Abort").name == "no-abort"

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            get_overload_policy("panic")


class TestLocalSourceUnits:
    """The local task sources build units without the constructor; every
    slot must still hold what ``WorkUnit.__init__`` would store."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"load_profile": ((0.5, 0.5), (0.5, 1.5))}],
        ids=["stationary", "modulated"],
    )
    def test_slots_match_the_constructor(self, monkeypatch, overrides):
        stamped = []
        submit = Node.submit

        def recording(node, unit):
            if unit.task_class is TaskClass.LOCAL and len(stamped) < 20:
                stamped.append(
                    (unit, {slot: getattr(unit, slot)
                            for slot in WorkUnit.__slots__})
                )
            submit(node, unit)

        monkeypatch.setattr(Node, "submit", recording)
        Simulation(baseline_config(
            sim_time=200.0, warmup_time=20.0, seed=4, **overrides
        )).run()
        assert len(stamped) == 20
        ids = [slots["id"] for _, slots in stamped]
        assert ids == sorted(set(ids))  # drawn from the run's counter
        for unit, slots in stamped:
            built = WorkUnit(
                name=None, task_class=TaskClass.LOCAL,
                node_index=slots["node_index"], timing=slots["timing"],
                unit_id=slots["id"],
            )
            expected = {
                slot: getattr(built, slot) for slot in WorkUnit.__slots__
            }
            assert slots == expected


class TestUnitLifetime:
    """Nothing keeps a work unit alive once its run is dropped: each
    unit is freed when its last owner (queue, event, frame) lets go."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"preemptive": True},
            {"task_structure": "parallel"},
            # Lossy crashes with a short retry timeout: lost units take
            # the retry path, and late completions of timed-out attempts
            # reach their attempt as orphans.
            {
                "strategy": "EQF",
                "faults": FaultSpec(
                    mttf=300.0, mttr=20.0, in_flight="lost",
                    retry_limit=2, retry_timeout=3.0,
                ),
            },
            # Overload aborts at dispatch, on both node kinds: aborted
            # units without a listener are dropped by the server loop.
            {"overload_policy": "abort-tardy"},
            {"preemptive": True, "overload_policy": "abort-tardy"},
            # Crashes that discard the ready queue as well.
            {
                "faults": FaultSpec(
                    mttf=300.0, mttr=20.0, queued="dropped",
                ),
            },
            # Time-varying load: the modulated local arrival path.
            {"load_profile": ((0.5, 0.5), (0.5, 1.5))},
        ],
        ids=[
            "baseline", "preemptive", "parallel", "lossy-retry",
            "abort-tardy", "preemptive-abort-tardy", "crash-dropped-queued",
            "load-profile",
        ],
    )
    def test_no_unit_outlives_a_dropped_run(self, overrides):
        # Units that other tests keep alive are held here, so no unit
        # this run builds can reuse one of their addresses.
        before = [obj for obj in gc.get_objects() if type(obj) is WorkUnit]
        known = {id(obj) for obj in before}
        sim = Simulation(baseline_config(
            sim_time=1500.0, warmup_time=150.0, seed=4, **overrides
        ))
        sim.run()
        del sim
        gc.collect()
        survivors = [
            obj for obj in gc.get_objects()
            if type(obj) is WorkUnit and id(obj) not in known
        ]
        assert survivors == []
