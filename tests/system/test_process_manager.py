"""Unit/integration tests for the process manager
(repro.system.process_manager).

These are deterministic scenarios: hand-built trees on dedicated idle
nodes, so completion times and assigned virtual deadlines can be computed
exactly.
"""

from __future__ import annotations

import pytest

from repro.core.strategies import parse_assigner
from repro.core.task import SimpleTask, parallel, serial
from repro.sim.core import Environment
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.overload import AbortTardyAtDispatch
from repro.system.process_manager import ProcessManager
from repro.system.schedulers import EarliestDeadlineFirst


def build_system(env, node_count=3, strategy="UD", overload=None):
    metrics = MetricsCollector(node_count)
    nodes = [
        Node(env=env, index=i, policy=EarliestDeadlineFirst(),
             metrics=metrics, overload_policy=overload)
        for i in range(node_count)
    ]
    manager = ProcessManager(
        env=env, nodes=nodes, assigner=parse_assigner(strategy), metrics=metrics
    )
    return manager, metrics, nodes


class TestSerialExecution:
    def test_stages_run_in_order_on_idle_nodes(self, env):
        manager, metrics, nodes = build_system(env)
        tree = serial(
            SimpleTask(1.0, node_index=0, name="s0"),
            SimpleTask(2.0, node_index=1, name="s1"),
            SimpleTask(3.0, node_index=2, name="s2"),
        )
        manager.submit(tree, deadline=20.0)
        env.run()
        stats = metrics.snapshot(env.now, nodes).global_
        assert stats.mean_response == 6.0  # arrived at t=0
        assert (stats.completed, stats.missed) == (1, 0)
        leaves = list(tree.leaves())
        assert leaves[0].timing.completed_at == 1.0
        assert leaves[2].timing.completed_at == 6.0
        assert leaves[1].timing.ar == 1.0      # submitted when stage 0 ended
        assert leaves[2].timing.ar == 3.0

    def test_end_to_end_miss_recorded(self, env):
        manager, metrics, nodes = build_system(env)
        tree = serial(
            SimpleTask(2.0, node_index=0),
            SimpleTask(2.0, node_index=1),
        )
        manager.submit(tree, deadline=3.0)  # needs 4 time units
        env.run()
        stats = metrics.snapshot(env.now, nodes).global_
        assert stats.completed == 1
        assert stats.missed == 1

    def test_ud_assigns_global_deadline_to_every_stage(self, env):
        manager, _, _ = build_system(env, strategy="UD")
        tree = serial(
            SimpleTask(1.0, node_index=0),
            SimpleTask(1.0, node_index=1),
        )
        manager.submit(tree, deadline=9.0)
        env.run()
        assert [leaf.timing.dl for leaf in tree.leaves()] == [9.0, 9.0]

    def test_eqf_assigns_proportional_deadlines(self, env):
        manager, _, _ = build_system(env, strategy="EQF")
        tree = serial(
            SimpleTask(2.0, node_index=0),
            SimpleTask(2.0, node_index=1),
        )
        manager.submit(tree, deadline=8.0)
        env.run()
        leaves = list(tree.leaves())
        # Stage 0 at t=0: slack 8-0-4=4, share 4*2/4=2 -> dl 0+2+2=4.
        assert leaves[0].timing.dl == pytest.approx(4.0)
        # Stage 1 submitted at t=2 (idle node, no queueing): last stage -> 8.
        assert leaves[1].timing.dl == pytest.approx(8.0)

    def test_ed_uses_downstream_estimates(self, env):
        manager, _, _ = build_system(env, strategy="ED")
        tree = serial(
            SimpleTask(1.0, node_index=0),
            SimpleTask(2.0, node_index=1),
            SimpleTask(3.0, node_index=2),
        )
        manager.submit(tree, deadline=10.0)
        env.run()
        dls = [leaf.timing.dl for leaf in tree.leaves()]
        assert dls == [pytest.approx(5.0), pytest.approx(7.0), pytest.approx(10.0)]

    def test_single_leaf_global_task(self, env):
        manager, metrics, nodes = build_system(env)
        leaf = SimpleTask(1.5, node_index=0)
        manager.submit(leaf, deadline=10.0)
        env.run()
        assert leaf.timing.completed_at == 1.5
        stats = metrics.snapshot(env.now, nodes).global_
        assert stats.completed == 1
        assert stats.mean_response == 1.5

    def test_unrouted_leaf_rejected(self, env):
        manager, _, _ = build_system(env)
        tree = serial(SimpleTask(1.0))  # node_index is None
        manager.submit(tree, deadline=5.0)
        with pytest.raises(ValueError, match="no node assignment"):
            env.run()


class TestParallelExecution:
    def test_group_finishes_with_last_branch(self, env):
        manager, metrics, nodes = build_system(env)
        tree = parallel(
            SimpleTask(1.0, node_index=0),
            SimpleTask(5.0, node_index=1),
            SimpleTask(2.0, node_index=2),
        )
        manager.submit(tree, deadline=20.0)
        env.run()
        assert metrics.snapshot(env.now, nodes).global_.mean_response == 5.0

    def test_branches_fork_simultaneously(self, env):
        manager, _, _ = build_system(env)
        tree = parallel(
            SimpleTask(1.0, node_index=0),
            SimpleTask(1.0, node_index=1),
        )
        manager.submit(tree, deadline=20.0)
        env.run()
        assert [leaf.timing.ar for leaf in tree.leaves()] == [0.0, 0.0]

    def test_div1_virtual_deadlines(self, env):
        manager, _, _ = build_system(env, strategy="UD-DIV1")
        tree = parallel(
            SimpleTask(1.0, node_index=0),
            SimpleTask(1.0, node_index=1),
        )
        manager.submit(tree, deadline=10.0)
        env.run()
        # dl = ar + (10 - 0) / (2 * 1) = 5 for both branches.
        assert [leaf.timing.dl for leaf in tree.leaves()] == [5.0, 5.0]

    def test_gf_stamps_elevated_class(self, env):
        manager, _, nodes = build_system(env, strategy="GF")
        tree = parallel(
            SimpleTask(1.0, node_index=0),
            SimpleTask(1.0, node_index=1),
        )
        manager.submit(tree, deadline=10.0)
        env.run()
        # The deadline stays the group deadline (GF promotes via class).
        assert [leaf.timing.dl for leaf in tree.leaves()] == [10.0, 10.0]


class TestSerialParallelTrees:
    def test_nested_execution_times(self, env):
        manager, metrics, nodes = build_system(env)
        tree = serial(
            parallel(SimpleTask(2.0, node_index=0), SimpleTask(3.0, node_index=1)),
            parallel(SimpleTask(1.0, node_index=0), SimpleTask(4.0, node_index=2)),
        )
        manager.submit(tree, deadline=20.0)
        env.run()
        # Stage 1 finishes at max(2,3)=3; stage 2 at 3+max(1,4)=7.
        assert [leaf.timing.ar for leaf in tree.leaves()] == [0.0, 0.0, 3.0, 3.0]
        assert metrics.snapshot(env.now, nodes).global_.mean_response == 7.0

    def test_eqf_div1_recursive_windows(self, env):
        manager, _, _ = build_system(env, strategy="EQF-DIV1")
        stage1 = parallel(SimpleTask(2.0, node_index=0), SimpleTask(2.0, node_index=1))
        stage2 = parallel(SimpleTask(2.0, node_index=0), SimpleTask(2.0, node_index=2))
        tree = serial(stage1, stage2)
        manager.submit(tree, deadline=12.0)
        env.run()
        # EQF at t=0: remaining pex = (2, 2) [group envelopes], slack = 12-4=8,
        # stage-1 window deadline = 0 + 2 + 8*2/4 = 6.
        # DIV-1 inside stage 1: dl = 0 + (6 - 0)/(2*1) = 3.
        for leaf in stage1.leaves():
            assert leaf.timing.dl == pytest.approx(3.0)
        # Stage 1 really ends at t=2 (idle nodes); stage-2 window = 12 (last),
        # DIV-1: dl = 2 + (12 - 2)/2 = 7.
        for leaf in stage2.leaves():
            assert leaf.timing.dl == pytest.approx(7.0)

    def test_metrics_count_one_global_task(self, env):
        manager, metrics, nodes = build_system(env)
        tree = serial(
            parallel(SimpleTask(1.0, node_index=0), SimpleTask(1.0, node_index=1)),
            SimpleTask(1.0, node_index=2),
        )
        manager.submit(tree, deadline=20.0)
        env.run()
        assert metrics.snapshot(env.now, nodes).global_.completed == 1


class TestAbortPropagation:
    def test_aborted_serial_stage_aborts_task(self, env):
        manager, metrics, nodes = build_system(
            env, strategy="ED", overload=AbortTardyAtDispatch()
        )
        # Occupy node 0 so the first stage cannot start before its
        # (already past) virtual deadline.
        from tests.system.test_node import submit as node_submit  # reuse helper

        node_submit(env, nodes[0], ex=10.0, dl=100.0, name="blocker")
        tree = serial(
            SimpleTask(1.0, node_index=0),
            SimpleTask(1.0, node_index=1),
        )
        manager.submit(tree, deadline=2.0)  # hopeless
        env.run()
        # The second stage never ran.
        assert list(tree.leaves())[0].timing.aborted
        assert list(tree.leaves())[1].timing is None
        stats = metrics.snapshot(env.now, nodes).global_
        assert stats.aborted == 1
        assert stats.missed == 1
        assert stats.completed == 0

    def test_aborted_parallel_branch_aborts_group(self, env):
        manager, metrics, nodes = build_system(
            env, overload=AbortTardyAtDispatch()
        )
        from tests.system.test_node import submit as node_submit

        node_submit(env, nodes[0], ex=10.0, dl=100.0, name="blocker")
        tree = parallel(
            SimpleTask(1.0, node_index=0),   # blocked past its deadline
            SimpleTask(1.0, node_index=1),   # completes fine
        )
        manager.submit(tree, deadline=2.0)
        env.run()
        assert metrics.snapshot(env.now, nodes).global_.aborted == 1
        # The healthy branch still ran to completion before the join.
        healthy = list(tree.leaves())[1]
        assert healthy.timing.completed_at == 1.0


class TestAbortedOutcomeValues:
    """Regression: aborted tasks must not report fabricated timings.

    An aborted task never completed, so it has no response time or
    lateness; computing them from a missing completion once yielded
    large negative garbage.
    """

    def _aborted_outcome(self, env):
        manager, metrics, nodes = build_system(
            env, overload=AbortTardyAtDispatch()
        )
        from tests.system.test_node import submit as node_submit

        node_submit(env, nodes[0], ex=10.0, dl=100.0, name="blocker")
        leaf = SimpleTask(1.0, node_index=0)
        manager.submit(leaf, deadline=2.0)
        env.run()
        return leaf, metrics, nodes

    def test_aborted_response_time_and_lateness_are_none(self, env):
        import math

        leaf, metrics, nodes = self._aborted_outcome(env)
        assert leaf.timing.aborted
        assert leaf.timing.completed_at is None
        stats = metrics.snapshot(env.now, nodes).global_
        assert math.isnan(stats.p99_response)
        assert math.isnan(stats.p99_lateness)

    def test_aborted_task_leaves_response_stats_untouched(self, env):
        """The miss counters move, but no phantom response/lateness sample
        is folded into the means."""
        _, metrics, nodes = self._aborted_outcome(env)
        stats = metrics.snapshot(env.now, nodes).global_
        assert stats.aborted == 1
        assert stats.missed == 1
        # No samples observed: the MeanTally means stay at their empty value.
        import math

        assert math.isnan(stats.mean_response)
        assert math.isnan(stats.mean_lateness)

    def test_completed_outcome_still_reports_timings(self, env):
        manager, metrics, nodes = build_system(env)
        manager.submit(SimpleTask(1.5, node_index=0), deadline=10.0)
        env.run()
        stats = metrics.snapshot(env.now, nodes).global_
        assert stats.mean_response == pytest.approx(1.5)
        assert stats.mean_lateness == pytest.approx(-8.5)


class TestSubmissionBookkeeping:
    def test_submitted_counter(self, env):
        manager, _, _ = build_system(env)
        for _ in range(3):
            manager.submit(SimpleTask(0.5, node_index=0), deadline=50.0)
        env.run()
        assert manager.submitted == 3

    def test_submit_returns_none_and_records_metrics(self, env):
        """Nothing waits on a global task: ``submit`` returns nothing, and
        the end-to-end outcome lands in the metrics."""
        manager, metrics, nodes = build_system(env)
        assert manager.submit(
            SimpleTask(0.5, node_index=0), deadline=50.0
        ) is None
        env.run()
        assert manager.submitted == 1
        assert metrics.snapshot(env.now, nodes).global_.completed == 1

    def test_past_deadline_accepted(self, env):
        """A soft real-time system accepts already-hopeless tasks."""
        manager, metrics, nodes = build_system(env)
        manager.submit(SimpleTask(1.0, node_index=0), deadline=-5.0)
        env.run()
        stats = metrics.snapshot(env.now, nodes).global_
        assert stats.completed == 1
        assert stats.missed == 1

    def test_invalid_tree_rejected_by_validate(self):
        """``submit`` trusts the composite constructors; a hand-edited
        tree is checked by calling ``validate`` before submitting it."""
        tree = serial(SimpleTask(1.0, node_index=0), SimpleTask(1.0, node_index=1))
        tree.validate()
        tree.children[0].owned = False  # corrupt the tree
        with pytest.raises(ValueError):
            tree.validate()
