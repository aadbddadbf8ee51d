"""Tests for subtask placement policies (repro.system.placement)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.sim.core import Environment
from repro.sim.rng import StreamFactory
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.placement import (
    LeastOutstandingPlacement,
    RoundRobinPlacement,
    UniformPlacement,
    ZipfPlacement,
)
from repro.system.schedulers import get_policy
from repro.system.work import WorkUnit
from repro.core.task import TaskClass
from repro.core.timing import fast_timing


class TestUniformPlacement:
    def test_matches_historical_route_stream_draws(self):
        """Uniform must consume the exact calls factories used to make on
        the "global-route" stream (bit-identical golden results)."""
        placement = UniformPlacement(6, StreamFactory(seed=42))
        reference = StreamFactory(seed=42).get("global-route")
        picks = [placement.pick_one() for _ in range(50)]
        expected = [reference.randrange(6) for _ in range(50)]
        assert picks == expected
        assert placement.pick_distinct(4) == reference.sample(range(6), 4)

    def test_pick_distinct_yields_distinct(self):
        placement = UniformPlacement(6, StreamFactory(seed=1))
        for _ in range(100):
            picks = placement.pick_distinct(4)
            assert len(set(picks)) == 4


class TestRoundRobinPlacement:
    def test_rotates(self):
        placement = RoundRobinPlacement(3)
        assert [placement.pick_one() for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_pick_distinct_is_consecutive(self):
        placement = RoundRobinPlacement(4)
        assert placement.pick_distinct(3) == [0, 1, 2]
        assert placement.pick_distinct(3) == [3, 0, 1]

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinPlacement(2).pick_distinct(3)


class TestZipfPlacement:
    def test_skew_favors_low_indices(self):
        placement = ZipfPlacement(6, 1.2, StreamFactory(seed=7))
        counts = Counter(placement.pick_one() for _ in range(20_000))
        assert counts[0] > counts[2] > counts[5]

    def test_zero_exponent_is_uniform(self):
        placement = ZipfPlacement(4, 0.0, StreamFactory(seed=7))
        counts = Counter(placement.pick_one() for _ in range(40_000))
        for index in range(4):
            assert counts[index] / 40_000 == pytest.approx(0.25, abs=0.02)

    def test_pick_distinct_yields_distinct(self):
        placement = ZipfPlacement(6, 1.5, StreamFactory(seed=3))
        for _ in range(200):
            picks = placement.pick_distinct(4)
            assert len(set(picks)) == 4

    def test_overflow_rejected(self):
        placement = ZipfPlacement(3, 1.0, StreamFactory(seed=3))
        with pytest.raises(ValueError):
            placement.pick_distinct(4)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ZipfPlacement(3, -0.5, StreamFactory(seed=3))

    def test_own_stream_name(self):
        streams = StreamFactory(seed=5)
        ZipfPlacement(4, 1.0, streams).pick_one()
        assert "placement-zipf" in list(streams.names())


def _make_nodes(env, count):
    metrics = MetricsCollector(count)
    policy = get_policy("EDF")
    return [
        Node(env=env, index=i, policy=policy, metrics=metrics)
        for i in range(count)
    ]


def _busy_unit(env, node_index):
    timing = fast_timing(ar=0.0, ex=10.0, pex=10.0, dl=100.0)
    return WorkUnit(None, TaskClass.LOCAL, node_index, timing)


class TestLeastOutstandingPlacement:
    def test_picks_the_idle_node(self):
        env = Environment()
        nodes = _make_nodes(env, 3)
        placement = LeastOutstandingPlacement(nodes, StreamFactory(seed=1))
        nodes[0].submit(_busy_unit(env, 0))
        nodes[2].submit(_busy_unit(env, 2))
        env.run(until=1.0)  # dispatch: nodes 0 and 2 now busy
        assert placement.pick_one() == 1

    def test_pick_distinct_orders_by_outstanding(self):
        env = Environment()
        nodes = _make_nodes(env, 3)
        placement = LeastOutstandingPlacement(nodes, StreamFactory(seed=1))
        for _ in range(2):
            nodes[0].submit(_busy_unit(env, 0))
        nodes[1].submit(_busy_unit(env, 1))
        env.run(until=1.0)
        # Outstanding: node0 = 2 (one serving, one queued), node1 = 1, node2 = 0.
        assert placement.pick_distinct(3) == [2, 1, 0]

    def test_ties_break_randomly_not_structurally(self):
        env = Environment()
        nodes = _make_nodes(env, 4)
        placement = LeastOutstandingPlacement(nodes, StreamFactory(seed=2))
        counts = Counter(placement.pick_one() for _ in range(4_000))
        # All idle: every node must win sometimes.
        assert set(counts) == {0, 1, 2, 3}

    def test_overflow_rejected(self):
        env = Environment()
        nodes = _make_nodes(env, 2)
        placement = LeastOutstandingPlacement(nodes, StreamFactory(seed=1))
        with pytest.raises(ValueError):
            placement.pick_distinct(3)


class TestZipfExtremeSkew:
    """Regression: pick_distinct must not rejection-sample (extreme skew
    used to stall on near-zero tail weights)."""

    def test_extreme_skew_terminates_and_is_distinct(self):
        placement = ZipfPlacement(6, 50.0, StreamFactory(seed=9))
        picks = placement.pick_distinct(6)
        assert sorted(picks) == [0, 1, 2, 3, 4, 5]

    def test_underflowed_weights_fall_back_deterministically(self):
        # (i+1)**s overflows to inf for i>0, so every tail weight is 0.0.
        placement = ZipfPlacement(4, 1e6, StreamFactory(seed=9))
        assert placement.pick_distinct(4) == [0, 1, 2, 3]

    def test_one_draw_per_pick(self):
        streams = StreamFactory(seed=9)
        placement = ZipfPlacement(6, 1.2, streams)
        reference = StreamFactory(seed=9).get("placement-zipf")
        placement.pick_distinct(4)
        # Exactly four draws consumed: the next draw matches the 5th
        # draw of an untouched reference stream.
        for _ in range(4):
            expected = reference.random()
        assert streams.get("placement-zipf").random() == reference.random()
