"""Unit tests for the processing node (repro.system.node)."""

from __future__ import annotations

import pytest

from repro.core.strategies.base import PriorityClass
from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.sim.core import Environment
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.overload import AbortTardyAtDispatch
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.work import WorkUnit


@pytest.fixture
def metrics():
    return MetricsCollector(node_count=1)


@pytest.fixture
def node(env, metrics):
    return Node(env=env, index=0, policy=EarliestDeadlineFirst(), metrics=metrics)


def submit(env, node, ex, dl, name="u", task_class=TaskClass.LOCAL, ar=None,
           on_done=None):
    timing = TimingRecord(ar=env.now if ar is None else ar, ex=ex, dl=dl)
    unit = WorkUnit(name=name, task_class=task_class,
                    node_index=0, timing=timing, on_done=on_done)
    node.submit(unit)
    return unit


class TestService:
    def test_single_unit_served_for_ex(self, env, node):
        handed_back = []
        unit = submit(env, node, ex=2.5, dl=10.0,
                      on_done=lambda u: handed_back.append((env.now, u)))
        env.run()
        assert unit.timing.started_at == 0.0
        assert unit.timing.completed_at == 2.5
        assert handed_back == [(2.5, unit)]

    def test_edf_order(self, env, node):
        late = submit(env, node, ex=1.0, dl=20.0, name="late")
        early = submit(env, node, ex=1.0, dl=5.0, name="early")
        env.run()
        # Both queued at t=0 while server idle wakes; earliest deadline first.
        assert early.timing.completed_at < late.timing.completed_at

    def test_non_preemptive(self, env, node, script):
        """A newly arrived urgent unit must wait for the unit in service."""
        running = submit(env, node, ex=10.0, dl=100.0, name="running")

        script(1.0, lambda: submit(env, node, ex=1.0, dl=2.0, name="urgent"))
        env.run()
        assert running.timing.completed_at == 10.0

    def test_sequential_service(self, env, node):
        a = submit(env, node, ex=2.0, dl=4.0, name="a")
        b = submit(env, node, ex=3.0, dl=9.0, name="b")
        env.run()
        assert a.timing.completed_at == 2.0
        assert b.timing.started_at == 2.0
        assert b.timing.completed_at == 5.0

    def test_server_idles_between_arrivals(self, env, node, script):
        created = []
        script(
            lambda: submit(env, node, ex=1.0, dl=5.0),
            10.0,
            lambda: created.append(submit(env, node, ex=1.0, dl=20.0)),
        )
        env.run()
        late = created[0]
        assert late.timing.started_at == 10.0

    def test_wrong_node_rejected(self, env, node):
        timing = TimingRecord(ar=0.0, ex=1.0, dl=5.0)
        unit = WorkUnit(name="u", task_class=TaskClass.LOCAL,
                        node_index=3, timing=timing)
        with pytest.raises(ValueError, match="routed to node"):
            node.submit(unit)

    def test_busy_and_queue_length(self, env, node, script):
        submit(env, node, ex=5.0, dl=100.0)
        submit(env, node, ex=5.0, dl=100.0)

        observed = []
        script(1.0, lambda: observed.append((node.busy, node.queue_length)))
        env.run()
        assert observed == [(True, 1)]
        assert not node.busy
        assert node.queue_length == 0


class TestMetricsIntegration:
    def test_local_completion_recorded(self, env, node, metrics):
        submit(env, node, ex=1.0, dl=0.5)   # will miss
        submit(env, node, ex=1.0, dl=50.0)  # will meet
        env.run()
        stats = metrics.snapshot(env.now, [node]).local
        assert stats.completed == 2
        assert stats.missed == 1

    def test_global_subtask_not_recorded_as_local(self, env, node, metrics):
        submit(env, node, ex=1.0, dl=5.0, task_class=TaskClass.GLOBAL)
        env.run()
        snapshot = metrics.snapshot(env.now, [node])
        assert snapshot.local.completed == 0
        assert snapshot.global_.completed == 0  # end-to-end is the PM's job

    def test_utilization_signal(self, env, node, metrics):
        submit(env, node, ex=4.0, dl=100.0)
        env.run(until=10.0)
        row = metrics.snapshot(10.0, [node]).per_node[0]
        assert row.utilization == pytest.approx(0.4)

    def test_dispatch_count(self, env, node, metrics):
        for _ in range(3):
            submit(env, node, ex=0.5, dl=100.0)
        env.run()
        assert metrics.snapshot(env.now, [node]).per_node[0].dispatched == 3


class TestAbortAtDispatch:
    @pytest.fixture
    def abort_node(self, env, metrics):
        return Node(env=env, index=0, policy=EarliestDeadlineFirst(),
                    metrics=metrics, overload_policy=AbortTardyAtDispatch())

    def test_expired_unit_dropped_without_service(self, env, abort_node, metrics):
        # The blocker has the earliest deadline, so EDF serves it first and
        # the doomed unit's deadline expires while it waits.
        handed_back = []
        blocker = submit(env, abort_node, ex=10.0, dl=2.0, name="blocker")
        doomed = submit(env, abort_node, ex=1.0, dl=5.0, name="doomed",
                        on_done=lambda u: handed_back.append((env.now, u)))
        env.run()
        assert doomed.timing.aborted
        assert doomed.timing.started_at is None
        assert handed_back == [(10.0, doomed)]
        stats = metrics.snapshot(env.now, [abort_node]).local
        assert stats.aborted == 1
        assert stats.missed == 2  # the blocker itself finished tardy too
        assert stats.completed == 1  # only the blocker ran

    def test_unit_within_deadline_not_dropped(self, env, abort_node):
        unit = submit(env, abort_node, ex=1.0, dl=50.0)
        env.run()
        assert not unit.timing.aborted
        assert unit.timing.completed_at == 1.0

    def test_abort_frees_capacity_for_queue(self, env, abort_node):
        """Dropping an expired unit lets the next one start immediately."""
        submit(env, abort_node, ex=10.0, dl=1.0, name="blocker")  # served first
        submit(env, abort_node, ex=5.0, dl=5.0, name="doomed")
        survivor = submit(env, abort_node, ex=1.0, dl=50.0, name="survivor")
        env.run()
        assert survivor.timing.started_at == 10.0  # right after blocker


class _Log:
    """A tracer that also takes the continuations' entries: one ordered
    record of what the nodes and the continuations did."""

    def __init__(self, env):
        self.env = env
        self.entries = []

    def record(self, now, kind, unit, index):
        self.entries.append((now, kind, unit.name))

    def continuation(self, name):
        # Ignores its argument: only the moment it runs is recorded.
        return lambda _arg: self.entries.append(
            (self.env.now, "continue", name)
        )


class TestSameInstantCompletions:
    """Two units complete at one instant on two nodes.

    A's continuation submits an urgent unit ``x`` to B.  The rule is that
    every completion due at an instant, and the dispatch each node makes
    after it, runs before any of that instant's continuations: so B
    picks its queued ``b2`` before ``x`` exists, and the continuations
    run in completion order.
    """

    EXPECTED = {
        Node: [
            (1.0, "complete", "a1"),
            (1.0, "complete", "b1"),
            (1.0, "dispatch", "b2"),
            (1.0, "continue", "a1"),
            (1.0, "submit", "x"),
            (1.0, "continue", "b1"),
            (2.0, "complete", "b2"),
            (2.0, "dispatch", "x"),
            (3.0, "complete", "x"),
        ],
        # ``x`` preempts ``b2`` from inside A's continuation; the
        # preemption poke runs before B's continuation.
        PreemptiveNode: [
            (1.0, "complete", "a1"),
            (1.0, "complete", "b1"),
            (1.0, "dispatch", "b2"),
            (1.0, "continue", "a1"),
            (1.0, "submit", "x"),
            (1.0, "preempt", "b2"),
            (1.0, "dispatch", "x"),
            (1.0, "continue", "b1"),
            (2.0, "complete", "x"),
            (2.0, "dispatch", "b2"),
            (3.0, "complete", "b2"),
        ],
    }

    @pytest.mark.parametrize(
        "node_cls", [Node, PreemptiveNode], ids=["node", "preemptive"]
    )
    def test_continuations_follow_every_same_instant_completion(
        self, env, node_cls
    ):
        metrics = MetricsCollector(node_count=2)
        log = _Log(env)
        metrics.tracer = log
        a, b = (
            node_cls(env=env, index=i, policy=EarliestDeadlineFirst(),
                     metrics=metrics)
            for i in range(2)
        )

        def unit(name, node, dl, on_done=None):
            return WorkUnit(
                name=name, task_class=TaskClass.LOCAL, node_index=node.index,
                timing=TimingRecord(ar=env.now, ex=1.0, dl=dl),
                on_done=on_done,
            )

        def continue_a1(_arg):
            log.entries.append((env.now, "continue", "a1"))
            b.submit(unit("x", b, dl=1.5))

        a.submit(unit("a1", a, dl=10.0, on_done=continue_a1))
        b.submit(unit("b1", b, dl=10.0, on_done=log.continuation("b1")))
        b.submit(unit("b2", b, dl=50.0))
        env.run()
        entries = [e for e in log.entries if e[0] > 0.0]
        assert entries == self.EXPECTED[node_cls]

    def test_lone_completion_dispatches_before_its_continuation(
        self, env, node, metrics
    ):
        log = _Log(env)
        metrics.tracer = log
        submit(env, node, ex=1.0, dl=5.0, name="first",
               on_done=log.continuation("first"))
        submit(env, node, ex=1.0, dl=9.0, name="second")
        env.run()
        assert [e for e in log.entries if e[0] > 0.0] == [
            (1.0, "complete", "first"),
            (1.0, "dispatch", "second"),
            (1.0, "continue", "first"),
            (2.0, "complete", "second"),
        ]


class TestCompletionChannel:
    """``on_done`` is a unit's only completion channel: every way a node
    finishes with a unit hands it to that callback exactly once, a unit
    without one gets no callback, and either way the unit's outcome is
    recorded exactly once."""

    #: When the target unit (ex 1, dl 5, submitted at 0) is handed back.
    HANDED_BACK_AT = {
        "completion": 1.0,
        "dispatch-abort": 10.0,  # dispatched after the blocker, past dl
        "crash-lost-in-flight": 0.5,
        "crash-dropped-queued": 0.5,
    }

    @pytest.mark.parametrize("channel", ["on_done", "none"])
    @pytest.mark.parametrize("scenario", list(HANDED_BACK_AT))
    @pytest.mark.parametrize(
        "node_cls", [Node, PreemptiveNode], ids=["node", "preemptive"]
    )
    def test_unit_handed_back_exactly_once(
        self, env, metrics, node_cls, scenario, channel, monkeypatch
    ):
        recorded = []
        record = MetricsCollector.record_unit_completion

        def recording(collector, unit):
            recorded.append(unit)
            record(collector, unit)

        monkeypatch.setattr(
            MetricsCollector, "record_unit_completion", recording
        )
        node = node_cls(
            env=env, index=0, policy=EarliestDeadlineFirst(), metrics=metrics,
            overload_policy=(
                AbortTardyAtDispatch() if scenario == "dispatch-abort" else None
            ),
        )
        if scenario == "crash-lost-in-flight":
            node.configure_fault_semantics(lose_in_flight=True, drop_queued=False)
        elif scenario == "crash-dropped-queued":
            node.configure_fault_semantics(lose_in_flight=False, drop_queued=True)
        if scenario in ("dispatch-abort", "crash-dropped-queued"):
            # Hand-built and earliest-deadline: served ahead of the target.
            submit(env, node, ex=10.0, dl=2.0, name="blocker")
        handed_back = []
        unit = WorkUnit(
            name="target", task_class=TaskClass.LOCAL, node_index=0,
            timing=TimingRecord(ar=0.0, ex=1.0, dl=5.0),
            on_done=(
                (lambda u: handed_back.append((env.now, u)))
                if channel == "on_done" else None
            ),
        )
        node.submit(unit)
        if scenario.startswith("crash"):
            env.run(until=0.5)
            node.crash()
        env.run(until=50.0)
        if channel == "on_done":
            assert handed_back == [(self.HANDED_BACK_AT[scenario], unit)]
        else:
            assert handed_back == []
        assert recorded.count(unit) == 1
        assert unit.timing.aborted is (scenario != "completion")
        assert unit.lost is scenario.startswith("crash")
