"""Unit tests for workload generation (repro.system.workload)."""

from __future__ import annotations

import pytest

from repro.core.estimators import uniform_error_estimator
from repro.core.task import ParallelTask, SerialTask, SimpleTask
from repro.sim.core import Environment
from repro.sim.distributions import (
    Deterministic,
    DiscreteUniform,
    Exponential,
    Uniform,
    exponential_interarrival,
)
from repro.sim.rng import StreamFactory
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.config import baseline_config
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.simulation import Simulation
from repro.system.workload import LocalTaskSource, StageFactory


def chain(streams, count=Deterministic(4), node_count=6, **kwargs):
    """A serial-chain factory: ``count`` stages of one leaf each."""
    kwargs.setdefault("slack", Uniform(1.0, 10.0))
    return StageFactory(
        node_count=node_count, stages=count, width=None,
        execution=Exponential(1.0), streams=streams, **kwargs,
    )


def fans(streams, stages=1, width=4, node_count=6, **kwargs):
    """``stages`` serial stages, each a fan of ``width`` distinct nodes."""
    kwargs.setdefault("slack", Uniform(1.25, 5.0))
    return StageFactory(
        node_count=node_count, stages=Deterministic(stages), width=width,
        execution=Exponential(1.0), streams=streams, **kwargs,
    )


class TestStageFactoryChain:
    @pytest.fixture
    def factory(self, streams):
        return chain(streams)

    def test_builds_chain_of_m(self, factory):
        tree, _ = factory.build(now=0.0)
        assert isinstance(tree, SerialTask)
        assert tree.subtask_count() == 4

    def test_deadline_identity(self, factory):
        """dl = ar + total ex + slack with slack inside the slack range."""
        tree, deadline = factory.build(now=100.0)
        slack = deadline - 100.0 - tree.total_ex()
        assert 1.0 <= slack <= 10.0

    def test_nodes_within_range(self, factory):
        tree, _ = factory.build(now=0.0)
        assert all(0 <= leaf.node_index < 6 for leaf in tree.leaves())

    def test_variable_count(self, streams):
        factory = chain(streams, count=DiscreteUniform(2, 6))
        counts = {factory.build(now=0.0)[0].subtask_count() for _ in range(300)}
        assert counts == {2, 3, 4, 5, 6}

    def test_single_subtask_builds_leaf(self, streams):
        factory = chain(
            streams, count=Deterministic(1), node_count=3,
            slack=Uniform(0.5, 1.0),
        )
        tree, _ = factory.build(now=0.0)
        assert isinstance(tree, SimpleTask)

    def test_noisy_estimator_perturbs_pex_not_ex(self, streams):
        factory = chain(streams, estimator=uniform_error_estimator(0.5))
        tree, deadline = factory.build(now=0.0)
        for leaf in tree.leaves():
            assert 0.5 * leaf.ex <= leaf.pex <= 1.5 * leaf.ex
        slack = deadline - tree.total_ex()
        assert 1.0 <= slack <= 10.0  # deadline uses real ex, not pex

    def test_reproducible_across_factories(self):
        def build_once():
            tree, deadline = chain(StreamFactory(7)).build(now=0.0)
            return [(leaf.ex, leaf.node_index) for leaf in tree.leaves()], deadline

        assert build_once() == build_once()

    def test_bad_node_count_rejected(self, streams):
        with pytest.raises(ValueError):
            chain(streams, node_count=0)

    def test_zero_count_rejected_at_build(self, streams):
        factory = chain(streams, count=Deterministic(0))
        with pytest.raises(ValueError, match="stage count"):
            factory.build(now=0.0)


class TestStageFactoryFan:
    @pytest.fixture
    def factory(self, streams):
        return fans(streams)

    def test_builds_fan(self, factory):
        tree, _ = factory.build(now=0.0)
        assert isinstance(tree, ParallelTask)
        assert tree.subtask_count() == 4

    def test_distinct_nodes(self, factory):
        """Sec. 5.2: the m subtasks execute at m different nodes."""
        for _ in range(100):
            tree, _ = factory.build(now=0.0)
            nodes = [leaf.node_index for leaf in tree.leaves()]
            assert len(set(nodes)) == len(nodes)

    def test_deadline_uses_longest_branch(self, factory):
        """Paper eq. (2): dl = max ex + slack + ar."""
        tree, deadline = factory.build(now=50.0)
        longest = max(leaf.ex for leaf in tree.leaves())
        slack = deadline - 50.0 - longest
        assert 1.25 <= slack <= 5.0

    def test_fan_out_exceeding_nodes_rejected(self, streams):
        with pytest.raises(ValueError, match="distinct nodes"):
            fans(streams, width=4, node_count=3)

    def test_fan_out_one_builds_leaf(self, streams):
        tree, _ = fans(streams, width=1, node_count=3).build(now=0.0)
        assert isinstance(tree, SimpleTask)


class TestStageFactoryTree:
    @pytest.fixture
    def factory(self, streams):
        return fans(streams, stages=2, width=2, slack=Uniform(1.0, 10.0))

    def test_structure(self, factory):
        tree, _ = factory.build(now=0.0)
        assert isinstance(tree, SerialTask)
        assert len(tree.children) == 2
        assert all(isinstance(stage, ParallelTask) for stage in tree.children)
        assert tree.subtask_count() == 4

    def test_deadline_uses_critical_path(self, factory):
        tree, deadline = factory.build(now=10.0)
        slack = deadline - 10.0 - tree.total_ex()
        assert 1.0 <= slack <= 10.0

    def test_distinct_nodes_within_stage(self, factory):
        for _ in range(50):
            tree, _ = factory.build(now=0.0)
            for stage in tree.children:
                nodes = [leaf.node_index for leaf in stage.leaves()]
                assert len(set(nodes)) == len(nodes)

    def test_width_one_gives_simple_stages(self, streams):
        tree, _ = fans(streams, stages=3, width=1, node_count=3).build(now=0.0)
        assert all(stage.is_leaf for stage in tree.children)

    @pytest.mark.parametrize("width", [0, 9])
    def test_bad_width_rejected(self, streams, width):
        with pytest.raises(ValueError):
            fans(streams, stages=2, width=width)


class TestLocalTaskSource:
    def test_negative_gap_rejected(self, env, streams):
        node = Node(env, 0, EarliestDeadlineFirst(), MetricsCollector(1))
        with pytest.raises(ValueError, match="interarrival gap"):
            LocalTaskSource(
                env=env,
                node=node,
                interarrival=Deterministic(-1.0),
                execution=Exponential(1.0),
                slack=Uniform(0.25, 2.5),
                streams=streams,
            )

    def test_generates_poisson_stream(self, env, streams):
        metrics = MetricsCollector(node_count=1)
        node = Node(env=env, index=0, policy=EarliestDeadlineFirst(), metrics=metrics)
        source = LocalTaskSource(
            env=env,
            node=node,
            interarrival=exponential_interarrival(0.5),
            execution=Exponential(0.1),  # light service to avoid saturation
            slack=Uniform(0.25, 2.5),
            streams=streams,
        )
        env.run(until=2_000.0)
        # Expect about rate * horizon = 1000 arrivals.
        assert source.generated == pytest.approx(1_000, rel=0.15)
        stats = metrics.snapshot(env.now, [node]).local
        assert stats.completed > 0

    def test_deadline_identity_on_generated_units(
        self, env, streams, monkeypatch
    ):
        metrics = MetricsCollector(node_count=1)
        node = Node(env=env, index=0, policy=EarliestDeadlineFirst(), metrics=metrics)
        captured = []
        original_submit = Node.submit

        def capturing_submit(target, unit):
            # Snapshot at submission: fire-and-forget units return to the
            # pool (timing dropped) as soon as the node finishes them.
            captured.append(unit.timing.sl)
            return original_submit(target, unit)

        # The source submits through the no-completion-event fast path.
        # Nodes have no instance dict, so the wrapper goes on the class.
        monkeypatch.setattr(Node, "submit", capturing_submit)
        LocalTaskSource(
            env=env,
            node=node,
            interarrival=exponential_interarrival(1.0),
            execution=Exponential(1.0),
            slack=Uniform(0.25, 2.5),
            streams=streams,
        )
        env.run(until=100.0)
        assert captured
        for slack in captured:
            assert 0.25 <= slack <= 2.5


class TestStreamsOnlyWhereDrawn:
    """A named stream is made only where something draws from it; a
    stream's seed derives from its name, so leaving one out moves no
    other draw."""

    ESTIMATE_AND_COUNT = {f"local-estimate/node-{i}" for i in range(6)} | {
        "global-estimate",
        "global-count",
    }

    def test_perfect_estimator_and_fixed_count_make_none(self):
        simulation = Simulation(
            baseline_config(sim_time=200.0, warmup_time=20.0, seed=3)
        )
        simulation.run()
        names = set(simulation.streams.names())
        assert "global-execution" in names
        assert not names & self.ESTIMATE_AND_COUNT

    def test_imperfect_estimator_and_count_range_draw_from_theirs(self):
        simulation = Simulation(baseline_config(
            sim_time=200.0, warmup_time=20.0, seed=3,
            pex_error=0.5, subtask_count_range=(2, 6),
        ))
        streams = simulation.streams
        states = {
            name: streams.get(name).getstate()
            for name in self.ESTIMATE_AND_COUNT
        }
        assert set(streams.names()) >= self.ESTIMATE_AND_COUNT
        simulation.run()
        for name, state in states.items():
            assert streams.get(name).getstate() != state, name
