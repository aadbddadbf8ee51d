"""Unit tests for WorkUnit and the overload policies."""

from __future__ import annotations

import pytest

from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.system.overload import (
    OVERLOAD_POLICIES,
    AbortTardyAtDispatch,
    AbortVirtualAtDispatch,
    NoAbort,
    get_overload_policy,
)
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

    def test_ids_unique(self, env):
        assert make_unit(env).id != make_unit(env).id

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


class TestUnitPool:
    """The free-list recycling contract of ``acquire_unit``/``release``."""

    def _acquire(self, env, dl=10.0):
        from repro.system.work import acquire_unit

        timing = TimingRecord(ar=0.0, ex=1.0, dl=dl)
        return acquire_unit(
            name=None, task_class=TaskClass.LOCAL, node_index=0,
            timing=timing,
        )

    def test_acquire_requires_deadline(self, env):
        from repro.system.work import acquire_unit

        with pytest.raises(ValueError, match="without a deadline"):
            acquire_unit(
                name=None, task_class=TaskClass.LOCAL,
                node_index=0, timing=TimingRecord(ar=0.0, ex=1.0),
            )

    def test_release_recycles_the_object(self, env):
        first = self._acquire(env)
        first.release()
        second = self._acquire(env)
        assert second is first  # LIFO free list hands the object back

    def test_ids_stay_monotone_through_recycling(self, env):
        unit = self._acquire(env)
        first_id = unit.id
        unit.release()
        recycled = self._acquire(env)
        assert recycled.id > first_id
        assert make_unit(env).id > recycled.id  # shared counter

    def test_double_release_raises(self, env):
        unit = self._acquire(env)
        unit.release()
        with pytest.raises(RuntimeError, match="released twice"):
            unit.release()

    def test_release_drops_run_references(self, env):
        unit = self._acquire(env)
        unit.release()
        assert unit.timing is None
        assert unit.on_done is None
        assert not hasattr(unit, "env")

    def test_recycled_unit_is_fully_restamped(self, env):
        stale = self._acquire(env)
        stale.lost = True
        stale.release()
        fresh = self._acquire(env, dl=7.0)
        assert fresh is stale
        assert fresh.lost is False
        assert fresh.timing.dl == 7.0
        assert fresh.natural_deadline == 7.0
        assert fresh.on_done is None
        fresh.release()  # the restamped timing re-arms the release guard

    def test_in_use_and_high_water_accounting(self, env):
        from repro.system.work import UNIT_POOL

        base_in_use = UNIT_POOL.in_use
        units = [self._acquire(env) for _ in range(4)]
        assert UNIT_POOL.in_use == base_in_use + 4
        assert UNIT_POOL.high_water >= base_in_use + 4
        high = UNIT_POOL.high_water
        for unit in units:
            unit.release()
        assert UNIT_POOL.in_use == base_in_use
        assert UNIT_POOL.high_water == high  # high-water never recedes

    def test_hand_built_units_stay_out_of_the_pool(self, env):
        unit = make_unit(env)
        assert unit.pool is None
