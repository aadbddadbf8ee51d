"""Unit tests for scheduling policies and the ready queue
(repro.system.schedulers)."""

from __future__ import annotations

import pytest

from repro.core.strategies.base import PriorityClass
from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.sim.core import Environment
from repro.system.schedulers import (
    POLICIES,
    EarliestDeadlineFirst,
    FirstComeFirstServed,
    MinimumLaxityFirst,
    ReadyQueue,
    get_policy,
)
from repro.system.work import WorkUnit


def unit(env, dl, pex=1.0, ar=0.0, ex=None, priority=PriorityClass.NORMAL, name="u"):
    timing = TimingRecord(ar=ar, ex=ex if ex is not None else pex, pex=pex, dl=dl)
    return WorkUnit(
        name=name,
        task_class=TaskClass.LOCAL,
        node_index=0,
        timing=timing,
        priority_class=priority,
    )


class TestPolicyKeys:
    def test_edf_key_is_deadline(self, env):
        assert EarliestDeadlineFirst().key(unit(env, dl=7.5)) == 7.5

    def test_mlf_key_is_deadline_minus_pex(self, env):
        assert MinimumLaxityFirst().key(unit(env, dl=7.5, pex=2.0)) == 5.5

    def test_fcfs_key_constant(self, env):
        assert FirstComeFirstServed().key(unit(env, dl=7.5)) == 0.0


class TestPolicyRegistry:
    def test_known_policies(self):
        assert set(POLICIES) == {"EDF", "MLF", "FCFS"}

    def test_lookup_case_insensitive(self):
        assert get_policy("edf").name == "EDF"

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            get_policy("RM")


class TestReadyQueueEDF:
    def test_pops_earliest_deadline(self, env):
        queue = ReadyQueue(EarliestDeadlineFirst())
        for dl in (5.0, 2.0, 9.0, 3.0):
            queue.push(unit(env, dl=dl, name=f"dl{dl}"))
        popped = [queue.pop().timing.dl for _ in range(4)]
        assert popped == [2.0, 3.0, 5.0, 9.0]

    def test_fifo_tiebreak(self, env):
        queue = ReadyQueue(EarliestDeadlineFirst())
        for tag in "abc":
            queue.push(unit(env, dl=4.0, name=tag))
        assert [queue.pop().name for _ in range(3)] == ["a", "b", "c"]

    def test_peek_does_not_remove(self, env):
        queue = ReadyQueue(EarliestDeadlineFirst())
        queue.push(unit(env, dl=1.0))
        assert queue.peek() is queue.peek()
        assert len(queue) == 1

    def test_peek_empty_returns_none(self):
        assert ReadyQueue(EarliestDeadlineFirst()).peek() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            ReadyQueue(EarliestDeadlineFirst()).pop()

    def test_len_and_bool(self, env):
        queue = ReadyQueue(EarliestDeadlineFirst())
        assert not queue
        queue.push(unit(env, dl=1.0))
        assert queue
        assert len(queue) == 1


class TestReadyQueueMLF:
    def test_orders_by_laxity(self, env):
        queue = ReadyQueue(MinimumLaxityFirst())
        # dl=10,pex=8 -> laxity key 2; dl=5,pex=1 -> key 4; dl=6,pex=5 -> 1.
        a = unit(env, dl=10.0, pex=8.0, name="a")
        b = unit(env, dl=5.0, pex=1.0, name="b")
        c = unit(env, dl=6.0, pex=5.0, name="c")
        for u in (a, b, c):
            queue.push(u)
        assert [queue.pop().name for _ in range(3)] == ["c", "a", "b"]

    def test_differs_from_edf(self, env):
        """MLF can dispatch a later-deadline task first when it is bigger --
        the core difference between the two policies."""
        edf = ReadyQueue(EarliestDeadlineFirst())
        mlf = ReadyQueue(MinimumLaxityFirst())
        small_urgent = dict(dl=5.0, pex=0.5)
        big_later = dict(dl=6.0, pex=5.0)
        for queue in (edf, mlf):
            queue.push(unit(env, **small_urgent, name="small"))
            queue.push(unit(env, **big_later, name="big"))
        assert edf.pop().name == "small"
        assert mlf.pop().name == "big"


class TestReadyQueueFCFS:
    def test_insertion_order(self, env):
        queue = ReadyQueue(FirstComeFirstServed())
        for i, dl in enumerate((9.0, 1.0, 5.0)):
            queue.push(unit(env, dl=dl, name=f"u{i}"))
        assert [queue.pop().name for _ in range(3)] == ["u0", "u1", "u2"]


class TestGlobalsFirstClassPriority:
    def test_elevated_class_always_wins(self, env):
        queue = ReadyQueue(EarliestDeadlineFirst())
        queue.push(unit(env, dl=1.0, priority=PriorityClass.NORMAL, name="local"))
        queue.push(unit(env, dl=100.0, priority=PriorityClass.ELEVATED, name="global"))
        assert queue.pop().name == "global"

    def test_edf_within_each_class(self, env):
        queue = ReadyQueue(EarliestDeadlineFirst())
        queue.push(unit(env, dl=50.0, priority=PriorityClass.ELEVATED, name="g-late"))
        queue.push(unit(env, dl=10.0, priority=PriorityClass.ELEVATED, name="g-early"))
        queue.push(unit(env, dl=2.0, priority=PriorityClass.NORMAL, name="l-early"))
        queue.push(unit(env, dl=3.0, priority=PriorityClass.NORMAL, name="l-late"))
        order = [queue.pop().name for _ in range(4)]
        assert order == ["g-early", "g-late", "l-early", "l-late"]
