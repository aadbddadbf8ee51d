"""Pins for the lean fleet node.

A node costs three objects the garbage collector tracks (the node, its
ready heap and its bound completion callback; two more for the
preemptive node's pooled poke), so building a 100k-node fleet stays
cheap.  These tests pin that budget and the equivalences it rests on:

* the inlined ready queue, drawing from a counter the nodes share,
  dispatches in :class:`ReadyQueue`'s pop order;
* the least-outstanding placement files nodes that already hold work
  under their counts;
* the positional ``NodeStats`` rows of a snapshot map every counter to
  its own field.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.core.strategies.base import PriorityClass
from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.scenarios import get_scenario
from repro.sim.core import Environment
from repro.sim.rng import StreamFactory
from repro.system.config import parallel_baseline_config
from repro.system.faults import IN_FLIGHT_LOST
from repro.system.metrics import NODE_COUNTERS, MetricsCollector, NodeStats
from repro.system.node import Node
from repro.system.placement import LeastOutstandingPlacement
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import (
    EarliestDeadlineFirst,
    FifoCounter,
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


class TestTrackedObjectBudget:
    def test_node_costs_three_tracked_objects(self):
        assert _tracked_per_node(5000) <= 3.1

    def test_preemptive_node_costs_five_tracked_objects(self):
        assert _tracked_per_node(5000, preemptive=True) <= 5.1

    def test_nodes_of_one_simulation_share_the_fifo_counter(self):
        simulation = Simulation(_fleet_config(8))
        counters = {id(node._queue_seq) for node in simulation.nodes}
        assert len(counters) == 1
        assert type(simulation.nodes[0]._queue_seq) is FifoCounter


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
    shared = FifoCounter()
    nodes = [
        node_cls(env, i, policy, metrics, fifo=shared) for i in range(2)
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

    expected = [
        NodeStats(
            index=i,
            utilization=metrics.node_busy[i].mean_at(now),
            mean_queue_length=metrics.node_queue[i].mean_at(now),
            dispatched=metrics.node_dispatched[i],
            preemptions=metrics.node_preemptions[i],
            crashes=metrics.node_crashes[i],
            lost=metrics.node_lost[i],
            downtime=metrics.node_down[i].mean_at(now),
            suspicions=metrics.node_suspicions[i],
        )
        for i in range(config.node_count)
    ]
    assert metrics.snapshot(now).per_node == expected


# -- guards -----------------------------------------------------------------


@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
def test_nan_speed_is_rejected(env, node_cls):
    with pytest.raises(ValueError, match="speed"):
        node_cls(env, 0, EarliestDeadlineFirst(), MetricsCollector(1),
                 speed=float("nan"))
