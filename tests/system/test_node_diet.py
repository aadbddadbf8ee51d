"""Pins for the lean fleet node.

A node costs one object the garbage collector tracks, the node itself:
its per-run values live in one :class:`NodeShared` per simulation, its
ready heap is the shared empty tuple until its first submit, it stores
no bound method of itself, and the preemptive node's preemption record
is an empty dict, which the collector does not track.  It holds its
busy, queue and down signals as float slots, so building a 100k-node
fleet stays cheap.
These tests pin that budget (tracked objects and traced bytes per node)
and the equivalences it rests on:

* the inlined ready queue, drawing from a counter the nodes share,
  dispatches in :class:`ReadyQueue`'s pop order;
* a node that never gets work answers every query and survives a
  crash and a recovery on its shared empty heap;
* nodes built alone keep their own listener and crash semantics;
* the node's signal slots reproduce :class:`TimeWeighted` exactly,
  through service, preemption, crashes, recoveries and a warm-up reset;
* the least-outstanding placement files nodes that already hold work
  under their counts;
* the positional ``NodeStats`` rows of a snapshot map every counter to
  its own field;
* the snapshot holds its node rows as columns, within a byte and a
  tracked-object budget.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import random
import tracemalloc

import pytest

from repro.core.strategies.base import PriorityClass
from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.scenarios import get_scenario
from repro.sim.core import Environment
from repro.sim.monitor import TimeWeighted
from repro.sim.rng import StreamFactory
from repro.system.config import parallel_baseline_config
from repro.system.faults import (
    IN_FLIGHT_LOST,
    FaultInjector,
    FaultSpec,
    LiveSet,
)
from repro.system.metrics import NODE_COUNTERS, MetricsCollector, NodeStats
from repro.system.node import _NO_WORK, Node, NodeShared
from repro.system.overload import NoAbort
from repro.system.placement import LeastOutstandingPlacement
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import (
    EarliestDeadlineFirst,
    FirstComeFirstServed,
    MinimumLaxityFirst,
    ReadyQueue,
)
from repro.system.simulation import Simulation
from repro.system.work import WorkUnit


def _fleet_config(node_count: int, **overrides):
    """``fleet-fanout``'s shape: global-only fans under least-outstanding
    placement, so every per-node object belongs to the node itself."""
    return parallel_baseline_config(
        node_count=node_count,
        frac_local=0.0,
        load=0.2,
        subtask_count=4,
        strategy="DIV-1",
        placement="least-outstanding",
        sim_time=10.0,
        warmup_time=0.0,
        seed=1,
        **overrides,
    )


def _tracked_per_node(node_count: int, **overrides) -> float:
    Simulation(_fleet_config(50, **overrides))  # import-time caches
    gc.collect()
    before = len(gc.get_objects())
    simulation = Simulation(_fleet_config(node_count, **overrides))
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(simulation.nodes) == node_count
    return added / node_count


def _bytes_per_node(node_count: int, **overrides) -> float:
    Simulation(_fleet_config(50, **overrides))  # import-time caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulation = Simulation(_fleet_config(node_count, **overrides))
        gc.collect()
        added = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(simulation.nodes) == node_count
    return added / node_count


class TestTrackedObjectBudget:
    def test_node_costs_one_tracked_object(self):
        assert _tracked_per_node(5000) <= 1.1

    def test_fleet_set_up_costs_at_most_320_bytes_per_node(self):
        # Everything a least-outstanding, fault-free simulation allocates
        # per node: the slotted node with its float signals, its entry in
        # the run's one node list, the collector's counter entries and
        # the placement's count entry.
        assert _bytes_per_node(5000) <= 320

    def test_preemptive_node_costs_one_tracked_object(self):
        # The preemption poke is the node itself on the urgent deque.
        assert _tracked_per_node(5000, preemptive=True) <= 1.1

    def test_preemptive_fleet_set_up_costs_at_most_330_bytes_per_node(self):
        # The fleet budget's objects plus the preemptive slots: a node
        # that has never been preempted holds the shared empty
        # remaining-demand mapping, not a dict of its own.
        assert _bytes_per_node(5000, preemptive=True) <= 330

    def test_nodes_of_one_simulation_share_one_run_object(self):
        simulation = Simulation(_fleet_config(8))
        shared = {id(node._shared) for node in simulation.nodes}
        assert len(shared) == 1
        run = simulation.nodes[0]._shared
        assert type(run) is NodeShared
        assert type(run.queue_seq) is itertools.count
        assert run.env is simulation.env
        assert run.metrics is simulation.metrics

    def test_the_run_keeps_one_node_list(self):
        simulation = Simulation(_fleet_config(8))
        nodes = simulation.nodes
        assert simulation.process_manager.nodes is nodes
        # Nothing a node reaches holds the node list.
        assert not hasattr(simulation.metrics, "nodes")
        assert not hasattr(simulation.placement_policy, "nodes")


# -- snapshot budget ----------------------------------------------------------


def _ran_fleet(node_count: int):
    """A finished ``fleet-fanout``-shaped run and its end instant."""
    simulation = Simulation(_fleet_config(node_count))
    simulation.run()
    metrics = simulation.metrics
    metrics.snapshot(simulation.env.now, simulation.nodes)  # import caches
    return metrics, simulation.nodes, simulation.env.now


class TestSnapshotBudget:
    """The end-of-run snapshot stores per-node results as columns: eight
    8-byte values per node and no per-node objects."""

    def test_snapshot_retains_at_most_80_bytes_per_node(self):
        metrics, nodes, now = _ran_fleet(5000)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = metrics.snapshot(now, nodes)
            gc.collect()
            added = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.per_node) == 5000
        assert added / 5000 <= 80

    @pytest.mark.parametrize("node_count", [500, 5000])
    def test_snapshot_adds_at_most_50_tracked_objects(self, node_count):
        metrics, nodes, now = _ran_fleet(node_count)
        gc.collect()
        before = len(gc.get_objects())
        result = metrics.snapshot(now, nodes)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert len(result.per_node) == node_count
        assert added <= 50


# -- dispatch order ---------------------------------------------------------


def _unit(index, node_index, dl, pex, priority):
    timing = TimingRecord(ar=0.0, ex=1.0, pex=pex, dl=dl)
    return WorkUnit(
        name=f"u{index}",
        task_class=TaskClass.LOCAL,
        node_index=node_index,
        timing=timing,
        priority_class=priority,
    )


def _submissions():
    """Interleaved submissions to nodes 0 and 1 with key ties inside and
    across both priority classes."""
    units = []
    for i in range(24):
        priority = (
            PriorityClass.ELEVATED if i % 3 == 0 else PriorityClass.NORMAL
        )
        units.append(_unit(i, i % 2, dl=10.0 + i % 4, pex=(i % 5) * 0.5,
                           priority=priority))
    return units


@pytest.mark.parametrize(
    "policy",
    [EarliestDeadlineFirst(), MinimumLaxityFirst(), FirstComeFirstServed()],
    ids=lambda policy: policy.name,
)
@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
def test_dispatch_order_equals_ready_queue_pop_order(node_cls, policy):
    env = Environment()
    metrics = MetricsCollector(node_count=2)
    shared = NodeShared(env, metrics, policy)
    nodes = [
        node_cls(env, i, policy, metrics, shared=shared) for i in range(2)
    ]
    references = [ReadyQueue(policy), ReadyQueue(policy)]
    units = _submissions()

    def submit_all(_event):
        for unit in units:
            nodes[unit.node_index].submit(unit)
            references[unit.node_index].push(unit)

    env._schedule_call(submit_all)
    env.run()
    for index, reference in enumerate(references):
        expected = []
        while reference:
            expected.append(reference.pop())
        served = sorted(
            (u for u in units if u.node_index == index),
            key=lambda u: u.timing.started_at,
        )
        assert [u.name for u in served] == [u.name for u in expected]


# -- signal slots ------------------------------------------------------------


class _SignalReference:
    """:class:`TimeWeighted` references for one node's signals.

    ``poll`` runs at every trace point and after every driver action.
    Busy and queue values come from what the node exposes (``busy``,
    ``queue_length``), fed at the instants the node moves the signal (a
    new ``_b_last``/``_q_last``) or changes its value.  An update within
    an instant adds no area, so only the instants matter for exactness.
    The down signal is fed by the driver, as the fault injector does.
    """

    def __init__(self, node):
        self.node = node
        self.busy = TimeWeighted("busy")
        self.queue = TimeWeighted("queue")
        self.down = TimeWeighted("down")
        self._seen = {"busy": (0.0, 0.0), "queue": (0.0, 0.0)}

    def record(self, time, kind, unit, node_index):
        self.poll(time)

    def poll(self, now):
        node = self.node
        for name, signal, value, last in (
            ("busy", self.busy, float(node.busy), node._b_last),
            ("queue", self.queue, float(node.queue_length), node._q_last),
        ):
            if (value, last) != self._seen[name]:
                signal.update(value, now)
                self._seen[name] = (value, last)

    def reset(self, now):
        for signal in (self.busy, self.queue, self.down):
            signal.reset(now)
        node = self.node
        self._seen = {"busy": (float(node.busy), now),
                      "queue": (float(node.queue_length), now)}


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize(
    "lose_in_flight,drop_queued",
    [(True, False), (False, False), (True, True), (False, True)],
    ids=["lost", "resume", "lost-dropped", "resume-dropped"],
)
@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_signal_slots_equal_time_weighted_reference(
    node_cls, lose_in_flight, drop_queued, seed
):
    """Over a seeded random run of submissions, completions, preemptions
    (preemptive node), crashes, recoveries and a warm-up reset, every
    snapshot's utilization, mean queue length and downtime equals the
    reference signals exactly."""
    rng = random.Random(seed)
    env = Environment()
    metrics = MetricsCollector(1)
    node = node_cls(env, 0, EarliestDeadlineFirst(), metrics)
    node.configure_fault_semantics(lose_in_flight, drop_queued)
    reference = _SignalReference(node)
    metrics.tracer = reference
    reset_step = rng.randrange(50, 150)
    checks = 0
    for step in range(300):
        now = env.now
        op = rng.random()
        if step == reset_step:
            metrics.reset(now, [node])
            reference.reset(now)
        elif op < 0.3:
            timing = TimingRecord(
                ar=now, ex=rng.choice([0.5, 1.0, 1.5, 2.5]),
                dl=now + rng.uniform(1.0, 20.0),
            )
            node.submit(WorkUnit(f"u{step}", TaskClass.LOCAL, 0, timing))
        elif op < 0.8:
            env.run(until=now + rng.choice([0.25, 0.5, 1.5, 3.0]))
        elif op < 0.84:
            if node.up:
                # Fault events are heap events: the urgent deque (a
                # pending preemption poke) drains before they run.
                env.run(until=now)
                node.set_down_signal(1.0, now)
                reference.down.update(1.0, now)
                node.crash()
        elif op < 0.96:
            if not node.up:
                node.set_down_signal(0.0, now)
                reference.down.update(0.0, now)
                node.recover()
        else:
            row = metrics.snapshot(now, [node]).per_node[0]
            assert _same(row.utilization, reference.busy.mean_at(now))
            assert _same(
                row.mean_queue_length, reference.queue.mean_at(now)
            )
            assert _same(row.downtime, reference.down.mean_at(now))
            checks += 1
        reference.poll(env.now)
    if not node.up:
        node.set_down_signal(0.0, env.now)
        reference.down.update(0.0, env.now)
        node.recover()
        reference.poll(env.now)
    env.run()
    assert not node.busy and not node.queue_length
    now = env.now + 1.0
    row = metrics.snapshot(now, [node]).per_node[0]
    assert row.utilization == reference.busy.mean_at(now)
    assert row.mean_queue_length == reference.queue.mean_at(now)
    assert row.downtime == reference.down.mean_at(now)
    assert checks > 0
    if node_cls is PreemptiveNode:
        assert node.preemptions > 0


# -- nodes that never get work -----------------------------------------------


@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
def test_idle_node_survives_queries_crash_and_recovery(env, node_cls):
    metrics = MetricsCollector(1)
    node = node_cls(env, 0, EarliestDeadlineFirst(), metrics)
    node.configure_fault_semantics(lose_in_flight=True, drop_queued=True)
    assert node._heap is _NO_WORK
    assert node.queue_length == 0
    assert "queued=0" in repr(node)
    node.crash()
    assert not node.up
    node.recover()
    assert node.up
    env.run(until=1.0)
    assert node._heap is _NO_WORK
    assert node.queue_length == 0 and not node.busy
    assert sum(metrics.node_lost) == 0
    assert metrics.snapshot(1.0, [node]).per_node[0].utilization == 0.0


@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
def test_first_submit_swaps_in_a_heap_of_its_own(env, node_cls):
    metrics = MetricsCollector(2)
    nodes = [
        node_cls(env, i, EarliestDeadlineFirst(), metrics) for i in range(2)
    ]
    nodes[0].submit(_unit(0, 0, dl=5.0, pex=1.0,
                          priority=PriorityClass.NORMAL))
    assert type(nodes[0]._heap) is list and nodes[0].queue_length == 1
    assert nodes[1]._heap is _NO_WORK
    env.run()
    assert nodes[0]._heap == [] and nodes[1]._heap is _NO_WORK


@pytest.mark.parametrize("preemptive", [False, True])
def test_mostly_idle_fleet_outstanding_matches_placement(preemptive):
    """On a run where most nodes never get a unit, the from-scratch
    ``_outstanding()`` reference agrees with the incremental counts."""
    config = _fleet_config(400, preemptive=preemptive).with_(
        sim_time=1.0
    )
    simulation = Simulation(config)
    env = simulation.env
    placement = simulation.placement_policy
    for until in (0.25, 0.5, 1.0):
        env.run(until=until)
        assert placement._outstanding(simulation.nodes) == placement._counts
    idle = [n for n in simulation.nodes if n._heap is _NO_WORK]
    assert len(idle) > len(simulation.nodes) // 2
    assert placement._outstanding(simulation.nodes)[idle[0].index] == 0


@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
def test_nodes_built_alone_keep_their_own_run_object(env, streams, node_cls):
    metrics = MetricsCollector(2)
    policy = EarliestDeadlineFirst()
    first, second = (node_cls(env, i, policy, metrics) for i in range(2))
    assert first._shared is not second._shared
    first.configure_fault_semantics(lose_in_flight=False, drop_queued=True)
    assert (second._shared.lose_in_flight, second._shared.drop_queued) == (
        True, False
    )
    LeastOutstandingPlacement([first], StreamFactory(seed=1))
    assert first._shared.outstanding_listener is not None
    assert second._shared.outstanding_listener is None
    # The fault injector sets the semantics of every run object it sees.
    FaultInjector(
        env=env, nodes=[first, second],
        spec=FaultSpec(
            mttf=50.0, mttr=5.0, in_flight="resume", queued="dropped"
        ),
        streams=streams, metrics=metrics, live_set=LiveSet(2),
    )
    for node in (first, second):
        assert (node._shared.lose_in_flight, node._shared.drop_queued) == (
            False, True
        )


def test_node_on_a_run_object_rejects_other_run_values(env):
    metrics = MetricsCollector(2)
    policy = EarliestDeadlineFirst()
    shared = NodeShared(env, metrics, policy)
    Node(env, 0, policy, metrics, shared=shared)
    with pytest.raises(ValueError, match="NodeShared"):
        Node(env, 1, FirstComeFirstServed(), metrics, shared=shared)
    with pytest.raises(ValueError, match="NodeShared"):
        Node(env, 1, policy, metrics, overload_policy=NoAbort(),
             shared=shared)


# -- least-outstanding placement --------------------------------------------


def test_placement_over_busy_nodes_moves_them_to_their_buckets():
    env = Environment()
    metrics = MetricsCollector(3)
    nodes = [Node(env, i, EarliestDeadlineFirst(), metrics) for i in range(3)]
    for _ in range(2):
        nodes[2].submit(_unit(0, 2, dl=5.0, pex=1.0,
                              priority=PriorityClass.NORMAL))
    placement = LeastOutstandingPlacement(nodes, StreamFactory(seed=1))
    assert placement._counts == [0, 0, 2]
    assert placement._active == [2]
    assert placement._members == {2: [2]}
    assert placement.pick_distinct(3)[2] == 2


# -- positional snapshot rows -----------------------------------------------


def _as_time_weighted(node, kind: str, start: float) -> TimeWeighted:
    """One of ``node``'s signals (``kind`` "b", "q" or "d") loaded into
    the reference :class:`TimeWeighted`."""
    signal = TimeWeighted(start_time=start)
    signal._value = getattr(node, f"_{kind}_value")
    signal._area = getattr(node, f"_{kind}_area")
    signal._last_time = getattr(node, f"_{kind}_last")
    return signal


def test_positional_snapshot_maps_every_counter_to_its_field():
    config = get_scenario("detector-preemptive").to_config(
        sim_time=2000.0, warmup_time=200.0, seed=3, strategy="EQF",
    )
    config = config.with_(
        faults=dataclasses.replace(config.faults, in_flight=IN_FLIGHT_LOST)
    )
    simulation = Simulation(config)
    simulation.run()
    metrics = simulation.metrics
    now = simulation.env.now
    for name in NODE_COUNTERS:
        assert sum(getattr(metrics, f"node_{name}")) > 0, name

    start = metrics._warmup_end
    expected = [
        NodeStats(
            index=i,
            utilization=_as_time_weighted(node, "b", start).mean_at(now),
            mean_queue_length=_as_time_weighted(
                node, "q", start
            ).mean_at(now),
            dispatched=metrics.node_dispatched[i],
            preemptions=metrics.node_preemptions[i],
            crashes=metrics.node_crashes[i],
            lost=metrics.node_lost[i],
            downtime=_as_time_weighted(node, "d", start).mean_at(now),
            suspicions=metrics.node_suspicions[i],
        )
        for i, node in enumerate(simulation.nodes)
    ]
    assert metrics.snapshot(now, simulation.nodes).per_node == expected


# -- guards -----------------------------------------------------------------


@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
def test_nan_speed_is_rejected(env, node_cls):
    with pytest.raises(ValueError, match="speed"):
        node_cls(env, 0, EarliestDeadlineFirst(), MetricsCollector(1),
                 speed=float("nan"))
