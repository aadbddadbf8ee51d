"""Additional integration scenarios across the system layer."""

from __future__ import annotations

import pytest

from repro.core.strategies import parse_assigner
from repro.core.strategies.base import PriorityClass
from repro.core.task import SimpleTask, parallel, serial
from repro.sim.core import Environment
from repro.system.config import baseline_config
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.process_manager import ProcessManager
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.simulation import simulate


def build_system(env, node_count=3, strategy="UD"):
    metrics = MetricsCollector(node_count)
    nodes = [
        Node(env=env, index=i, policy=EarliestDeadlineFirst(), metrics=metrics)
        for i in range(node_count)
    ]
    manager = ProcessManager(
        env=env, nodes=nodes, assigner=parse_assigner(strategy), metrics=metrics
    )
    return manager, metrics, nodes


class TestHopelessTasks:
    def test_deadline_already_past_at_submission(self, env, script):
        """A soft real-time system accepts and runs already-late tasks."""
        manager, metrics, nodes = build_system(env)

        def late_submit():
            tree = serial(
                SimpleTask(1.0, node_index=0), SimpleTask(1.0, node_index=1)
            )
            manager.submit(tree, deadline=5.0)  # in the past

        script(10.0, late_submit)
        env.run()
        stats = metrics.snapshot(env.now, nodes).global_
        assert stats.completed == 1
        assert stats.missed == 1

    def test_negative_slack_propagates_through_eqf(self, env):
        """EQF with negative remaining slack pulls virtual deadlines *before*
        submit + pex, raising the doomed chain's priority."""
        manager, _, _ = build_system(env, strategy="EQF")
        tree = serial(
            SimpleTask(2.0, node_index=0), SimpleTask(2.0, node_index=1)
        )
        manager.submit(tree, deadline=1.0)  # needs >= 4
        env.run()
        first = list(tree.leaves())[0]
        # slack = 1 - 0 - 4 = -3; share = -3 * 2/4 = -1.5; dl = 0 + 2 - 1.5.
        assert first.timing.dl == pytest.approx(0.5)


class TestGFPriorities:
    def test_gf_subtasks_jump_local_queue(self, env, script):
        """A GF subtask submitted *after* locals with earlier deadlines is
        still served first."""
        manager, _, nodes = build_system(env, strategy="GF")
        from tests.system.test_node import submit as node_submit

        # Server busy until t=4; two locals queued with tight deadlines.
        node_submit(env, nodes[0], ex=4.0, dl=4.5, name="in-service")
        local = node_submit(env, nodes[0], ex=1.0, dl=6.0, name="queued-local")

        leaf = SimpleTask(1.0, node_index=0)
        script(1.0, lambda: manager.submit(leaf, deadline=100.0))
        env.run()
        # Global subtask (dl=100!) served at t=4, before the local (dl=6).
        assert leaf.timing.started_at == 4.0
        assert local.timing.started_at == 5.0

    def test_gf_stamps_elevated_class_on_serial_stages(self, env, monkeypatch):
        manager, _, nodes = build_system(env, strategy="EQF-GF")
        captured = []
        original = Node.submit

        def capture(target, unit):
            if target is nodes[0]:
                captured.append(unit)
            return original(target, unit)

        # Nodes have no instance dict, so the wrapper goes on the class.
        monkeypatch.setattr(Node, "submit", capture)
        tree = serial(SimpleTask(1.0, node_index=0), SimpleTask(1.0, node_index=1))
        manager.submit(tree, deadline=50.0)
        env.run()
        assert captured[0].priority_class == PriorityClass.ELEVATED


class TestExtendedStrategiesEndToEnd:
    SHORT = dict(sim_time=2_500.0, warmup_time=250.0)

    def test_eqfas_runs_in_full_simulation(self):
        result = simulate(baseline_config(strategy="EQFAS1", seed=8, **self.SHORT))
        assert result.global_.completed > 50
        assert 0.0 <= result.md_global <= 1.0

    def test_eqfas_combination_with_div(self):
        from repro.system.config import serial_parallel_config

        result = simulate(
            serial_parallel_config(strategy="EQFAS1-DIV1", seed=8, **self.SHORT)
        )
        assert result.global_.completed > 50

    def test_custom_div_x_value(self):
        from repro.system.config import parallel_baseline_config

        result = simulate(
            parallel_baseline_config(strategy="DIV-3", seed=8, **self.SHORT)
        )
        assert result.global_.completed > 50

    def test_trace_and_preemption_together(self):
        result_config = baseline_config(
            trace=True, preemptive=True, sim_time=500.0, warmup_time=0.0, seed=8
        )
        from repro.system.simulation import Simulation

        sim = Simulation(result_config)
        sim.run()
        kinds = {event.kind for event in sim.trace_log.events}
        assert "dispatch" in kinds and "complete" in kinds


class TestParallelJoinSemantics:
    def test_group_outcome_decided_by_last_finisher(self, env):
        """The group misses iff the *last* branch finishes after dl(T),
        even when other branches met their virtual deadlines."""
        manager, metrics, nodes = build_system(env)
        tree = parallel(
            SimpleTask(1.0, node_index=0),
            SimpleTask(9.0, node_index=1),
        )
        manager.submit(tree, deadline=5.0)
        env.run()
        assert [leaf.timing.missed for leaf in tree.leaves()] == [False, True]
        stats = metrics.snapshot(env.now, nodes).global_
        assert stats.mean_response == 9.0
        assert stats.missed == 1
