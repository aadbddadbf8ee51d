"""Property tests of the incremental least-outstanding placement state.

The fleet-state refactor replaced the O(n) per-decision rescans of
``LeastOutstandingPlacement`` with count buckets maintained from the
node outstanding hooks.  These tests drive random interleavings of
submit / time-advance / crash / recover against real nodes (both the
non-preemptive and preemptive kinds, under every crash-semantics
variant) and assert two invariants after every step:

* *count consistency*: the incrementally maintained outstanding counts
  equal a from-scratch recompute over the nodes (queue length + one if
  serving) and the fleet signal arrays;
* *decision equivalence*: ``pick_one``/``pick_distinct`` return exactly
  what the historical argmin-rescan implementation returns when run
  against a cloned tie-break stream, consuming exactly the same draws
  (stream states must match afterwards -- the draw trajectory is what
  the golden determinism gate pins).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task import TaskClass
from repro.core.timing import fast_timing
from repro.sim.core import Environment
from repro.sim.rng import StreamFactory
from repro.system.faults import LiveSet
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.placement import LeastOutstandingPlacement
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.work import WorkUnit

NODE_COUNT = 8

#: One step of the interleaving.  Time advances are coarse fixed deltas:
#: the point is event-order diversity, not float torture.
ops = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, NODE_COUNT - 1)),
    st.tuples(st.just("advance"), st.sampled_from([0.1, 0.7, 1.9, 4.0])),
    st.tuples(st.just("crash"), st.integers(0, NODE_COUNT - 1)),
    st.tuples(st.just("recover"), st.integers(0, NODE_COUNT - 1)),
    st.tuples(st.just("pick_one"), st.just(0)),
    st.tuples(st.just("pick_distinct"), st.integers(1, NODE_COUNT)),
)


def _reference_pick(placement, outstanding, excluded, rng):
    """The historical argmin-rescan decision (pre-refactor code)."""

    def argmins(values, skip):
        best = None
        ties = []
        for i, v in enumerate(values):
            if i in skip:
                continue
            if best is None or v < best:
                best = v
                ties = [i]
            elif v == best:
                ties.append(i)
        return ties

    live = placement.live
    if live is not None and live.live_count > 0:
        down_excluded = set(excluded) | {
            i for i in range(len(placement.nodes)) if i not in live
        }
        ties = argmins(outstanding, down_excluded)
        if not ties:
            ties = argmins(outstanding, excluded)
    else:
        ties = argmins(outstanding, excluded)
    if len(ties) == 1:
        return ties[0]
    return ties[rng.randrange(len(ties))]


def _clone(stream) -> random.Random:
    clone = random.Random()
    clone.setstate(stream.getstate())
    return clone


def _unit(env, node_index, now):
    timing = fast_timing(ar=now, ex=1.5, pex=1.5, dl=now + 50.0)
    return WorkUnit(None, TaskClass.LOCAL, node_index, timing)


def _check_counts(placement, metrics):
    recomputed = placement._outstanding()
    assert placement._counts == recomputed
    fleet = metrics.fleet
    for i in range(NODE_COUNT):
        assert recomputed[i] == int(
            fleet.queue_value[i] + fleet.busy_value[i]
        )


@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
@pytest.mark.parametrize(
    "lose_in_flight,drop_queued",
    [(False, False), (True, False), (True, True)],
)
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(ops, min_size=1, max_size=40))
def test_incremental_counts_and_decisions_match_rescan(
    node_cls, lose_in_flight, drop_queued, steps
):
    env = Environment()
    metrics = MetricsCollector(NODE_COUNT)
    policy = EarliestDeadlineFirst()
    nodes = [
        node_cls(env=env, index=i, policy=policy, metrics=metrics)
        for i in range(NODE_COUNT)
    ]
    for node in nodes:
        node.configure_fault_semantics(lose_in_flight, drop_queued)
    placement = LeastOutstandingPlacement(nodes, StreamFactory(seed=17))
    live = LiveSet(NODE_COUNT)
    placement.attach_live_set(live)

    for op, arg in steps:
        if op == "submit":
            nodes[arg].submit(_unit(env, arg, env.now))
        elif op == "advance":
            env.run(until=env.now + arg)
        elif op == "crash":
            # Mirror the fault injector's order: the live set flips
            # before the node callback runs.
            if arg in live:
                live.mark_down(arg)
                nodes[arg].crash()
        elif op == "recover":
            if arg not in live:
                live.mark_up(arg)
                nodes[arg].recover()
        elif op == "pick_one":
            outstanding = placement._outstanding()
            clone = _clone(placement._stream)
            expected = _reference_pick(placement, outstanding, set(), clone)
            assert placement.pick_one() == expected
            assert placement._stream.getstate() == clone.getstate()
        else:  # pick_distinct
            outstanding = placement._outstanding()
            clone = _clone(placement._stream)
            expected = []
            excluded: set = set()
            for _ in range(arg):
                pick = _reference_pick(
                    placement, outstanding, excluded, clone
                )
                excluded.add(pick)
                expected.append(pick)
            assert placement.pick_distinct(arg) == expected
            assert placement._stream.getstate() == clone.getstate()
        _check_counts(placement, metrics)

    # Drain everything still in flight: the incremental state must stay
    # consistent through the tail of completions too.
    for i in range(NODE_COUNT):
        if i not in live:
            live.mark_up(i)
            nodes[i].recover()
            _check_counts(placement, metrics)
    env.run(until=env.now + 1_000.0)
    _check_counts(placement, metrics)
    assert placement._counts == [0] * NODE_COUNT


@settings(max_examples=20, deadline=None)
@given(steps=st.lists(ops, min_size=1, max_size=30))
def test_incremental_counts_without_live_set(steps):
    """Fault-oblivious configs (live never attached) stay consistent."""
    env = Environment()
    metrics = MetricsCollector(NODE_COUNT)
    policy = EarliestDeadlineFirst()
    nodes = [
        Node(env=env, index=i, policy=policy, metrics=metrics)
        for i in range(NODE_COUNT)
    ]
    placement = LeastOutstandingPlacement(nodes, StreamFactory(seed=23))
    for op, arg in steps:
        if op == "submit":
            nodes[arg].submit(_unit(env, arg, env.now))
        elif op == "advance":
            env.run(until=env.now + arg)
        elif op == "pick_one":
            outstanding = placement._outstanding()
            clone = _clone(placement._stream)
            expected = _reference_pick(placement, outstanding, set(), clone)
            assert placement.pick_one() == expected
            assert placement._stream.getstate() == clone.getstate()
        elif op == "pick_distinct":
            outstanding = placement._outstanding()
            clone = _clone(placement._stream)
            expected = []
            excluded: set = set()
            for _ in range(arg):
                pick = _reference_pick(
                    placement, outstanding, excluded, clone
                )
                excluded.add(pick)
                expected.append(pick)
            assert placement.pick_distinct(arg) == expected
            assert placement._stream.getstate() == clone.getstate()
        # crash/recover ops are no-ops in the fault-oblivious variant
        _check_counts(placement, metrics)
