"""Unit tests for the preemptive-resume node (repro.system.preemptive)."""

from __future__ import annotations

import pytest

from repro.core.strategies.base import PriorityClass
from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.system.config import baseline_config
from repro.system.metrics import MetricsCollector
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.simulation import simulate
from repro.system.work import WorkUnit


@pytest.fixture
def metrics():
    return MetricsCollector(node_count=1)


@pytest.fixture
def node(env, metrics):
    return PreemptiveNode(
        env=env, index=0, policy=EarliestDeadlineFirst(), metrics=metrics
    )


def submit(env, node, ex, dl, name="u", priority=PriorityClass.NORMAL):
    timing = TimingRecord(ar=env.now, ex=ex, dl=dl)
    unit = WorkUnit(name=name, task_class=TaskClass.LOCAL,
                    node_index=0, timing=timing, priority_class=priority)
    node.submit(unit)
    return unit


class TestPreemption:
    def test_urgent_arrival_preempts(self, env, node, script):
        long_unit = submit(env, node, ex=10.0, dl=100.0, name="long")

        arrivals = []
        script(2.0, lambda: arrivals.append(
            submit(env, node, ex=1.0, dl=4.0, name="urgent")))
        env.run()
        urgent = arrivals[0]
        # The urgent unit ran immediately: [2, 3].
        assert urgent.timing.completed_at == 3.0
        assert not urgent.timing.missed
        # The long unit resumed and finished with its full 10 units served:
        # [0, 2] + [3, 11].
        assert long_unit.timing.completed_at == 11.0
        assert node.preemptions == 1

    def test_equal_priority_does_not_preempt(self, env, node, script):
        running = submit(env, node, ex=5.0, dl=50.0, name="running")

        script(1.0, lambda: submit(env, node, ex=1.0, dl=50.0, name="tie"))
        env.run()
        assert running.timing.completed_at == 5.0
        assert node.preemptions == 0

    def test_lower_priority_does_not_preempt(self, env, node, script):
        running = submit(env, node, ex=5.0, dl=10.0, name="running")

        script(1.0, lambda: submit(env, node, ex=1.0, dl=99.0, name="later-dl"))
        env.run()
        assert running.timing.completed_at == 5.0
        assert node.preemptions == 0

    def test_nested_preemption(self, env, node, script):
        """A preempting unit can itself be preempted."""
        first = submit(env, node, ex=10.0, dl=100.0, name="first")

        created = []
        script(
            2.0,
            lambda: created.append(
                submit(env, node, ex=4.0, dl=20.0, name="second")),
            1.0,
            lambda: created.append(
                submit(env, node, ex=1.0, dl=5.0, name="third")),
        )
        env.run()
        second, third = created
        assert third.timing.completed_at == 4.0      # [3, 4]: 1 unit
        assert second.timing.completed_at == 7.0     # [2, 3] + [4, 7]: 4 units
        assert first.timing.completed_at == 15.0     # [0, 2] + [7, 15]: 10 units
        assert node.preemptions == 2

    def test_started_at_is_first_service(self, env, node, script):
        long_unit = submit(env, node, ex=10.0, dl=100.0, name="long")

        script(2.0, lambda: submit(env, node, ex=1.0, dl=4.0, name="urgent"))
        env.run()
        assert long_unit.timing.started_at == 0.0

    def test_elevated_class_preempts_normal(self, env, node, script):
        """Globals-First semantics carry over: an elevated unit preempts a
        normal one regardless of deadlines."""
        running = submit(env, node, ex=5.0, dl=6.0, name="local")

        created = []
        script(1.0, lambda: created.append(
            submit(env, node, ex=1.0, dl=99.0, name="global",
                   priority=PriorityClass.ELEVATED)))
        env.run()
        assert created[0].timing.completed_at == 2.0
        assert running.timing.completed_at == 6.0

    def test_utilization_accounting_across_preemption(
        self, env, node, metrics, script
    ):
        submit(env, node, ex=4.0, dl=100.0, name="long")

        script(1.0, lambda: submit(env, node, ex=2.0, dl=5.0, name="urgent"))
        env.run(until=10.0)
        # Total service = 6 units over [0, 10]: no double counting.
        row = metrics.snapshot(10.0, [node]).per_node[0]
        assert row.utilization == pytest.approx(0.6)


class TestSameInstantArrivals:
    """Regression tests for the double-interrupt bug: every same-instant
    higher-priority arrival used to interrupt the server on its own, and
    the queued second interrupt fired at the *next* service interval,
    charging a spurious preemption to the wrong unit."""

    def test_two_simultaneous_urgent_arrivals_preempt_once(
        self, env, node, script
    ):
        long_unit = submit(env, node, ex=10.0, dl=100.0, name="long")

        arrivals = []

        def storm():
            # Two arrivals at the same instant, both beating the unit in
            # service, submitted within one event callback.
            arrivals.append(submit(env, node, ex=1.0, dl=4.0, name="urgent-a"))
            arrivals.append(submit(env, node, ex=1.0, dl=5.0, name="urgent-b"))

        script(2.0, storm)
        env.run()
        a, b = arrivals
        # One preemption: the server re-picks the best queued unit once.
        assert node.preemptions == 1
        # EDF order among the newcomers: a then b, then the long unit.
        assert a.timing.completed_at == 3.0
        assert b.timing.completed_at == 4.0
        # The long unit got 2 units in [0, 2] and its remaining 8 after
        # the storm -- no spurious second preemption at the re-dispatch.
        assert long_unit.timing.completed_at == 12.0
        assert node._remaining == {}

    def test_storm_preemption_counter_exact(self, env, node, script):
        """An N-arrival same-instant storm is exactly one preemption."""
        submit(env, node, ex=20.0, dl=200.0, name="long")

        def storm():
            for i in range(5):
                submit(env, node, ex=0.5, dl=2.0 + 0.1 * i, name=f"s{i}")

        script(1.0, storm)
        env.run()
        assert node.preemptions == 1
        assert node._remaining == {}

    def test_sequential_preemptions_still_count_individually(
        self, env, node, script
    ):
        """The pending-interrupt guard must not swallow preemptions that
        happen at distinct instants."""
        submit(env, node, ex=20.0, dl=200.0, name="long")

        script(
            1.0, lambda: submit(env, node, ex=1.0, dl=5.0, name="first"),
            2.0, lambda: submit(env, node, ex=1.0, dl=6.0, name="second"),
        )
        env.run()
        assert node.preemptions == 2
        assert node._remaining == {}


class TestCompletionInstantInterrupt:
    """Regression tests for the negative-remaining-demand bug: an
    interrupt landing at the completion instant produced
    ``remaining = demand - consumed < 0`` by a float ulp, and later a
    negative sleep delay."""

    def test_interrupt_at_completion_instant_clamps_remaining(
        self, env, node, script
    ):
        # "first" is served over [0.1, 0.4], and in float arithmetic
        # (0.1 + 0.3) - 0.1 = 0.30000000000000004 > 0.3: an interrupt at
        # the completion instant computes consumed > demand by an ulp.
        # The background unit makes the target's service *sleep* get a
        # larger event sequence number than the preempter's arrival
        # timeout (scheduled at t=0), so the arrival wins the same-time
        # tie and the interrupt really lands before the completion event.
        # Unclamped, the negative remainder became a negative sleep delay
        # (ValueError) at the re-dispatch.
        submit(env, node, ex=0.1, dl=1.0, name="background")
        first = submit(env, node, ex=0.3, dl=100.0, name="first")

        arrivals = []
        script(0.4, lambda: arrivals.append(
            submit(env, node, ex=0.1, dl=0.6, name="urgent")))
        env.run()
        urgent = arrivals[0]
        assert node.preemptions == 1
        assert urgent.timing.completed_at == 0.5
        # The fully-served first unit was re-queued with exactly zero
        # remaining demand (never negative) and completed right after.
        assert first.timing.completed_at == 0.5
        assert node._remaining == {}

    def test_remaining_demand_never_negative(self, env, node, script):
        """Drive many preemptions at awkward float instants and assert the
        remaining-demand table never goes negative."""
        for i in range(10):
            submit(env, node, ex=0.1 * (i + 1), dl=100.0 + i, name=f"bg{i}")

        seen = []

        def arrive(i):
            submit(env, node, ex=0.05, dl=env.now + 0.2, name=f"hi{i}")
            seen.append(min(node._remaining.values(), default=0.0))

        steps = []
        for i in range(30):
            steps += [0.07 * ((i % 5) + 1), lambda i=i: arrive(i)]
        script(*steps)
        env.run()
        assert all(value >= 0.0 for value in seen)
        assert min(node._remaining.values(), default=0.0) >= 0.0
        assert node._remaining == {}


class TestEdgeCases:
    def test_zero_demand_unit_completes_instantly(self, env, node):
        zero = submit(env, node, ex=0.0, dl=10.0, name="zero")
        env.run()
        assert zero.timing.completed_at == 0.0
        assert not zero.timing.missed
        assert node.preemptions == 0
        assert node._remaining == {}

    def test_zero_demand_unit_under_storm(self, env, node, script):
        """Zero-demand units interleaved with preemption churn neither
        preempt wrongly nor leak remaining-demand entries."""
        long_unit = submit(env, node, ex=10.0, dl=100.0, name="long")

        created = []
        script(
            1.0,
            lambda: created.append(
                submit(env, node, ex=0.0, dl=2.0, name="zero")),
            1.0,
            lambda: created.append(
                submit(env, node, ex=1.0, dl=4.0, name="urgent")),
        )
        env.run()
        zero, urgent = created
        assert zero.timing.completed_at == 1.0
        assert urgent.timing.completed_at == 3.0
        # long: [0, 1] + [1, 2] + [3, 11] = its full 10 units.
        assert long_unit.timing.completed_at == 11.0
        assert node.preemptions == 2
        assert node._remaining == {}

    def test_preempted_then_aborted_leaves_no_remaining_leak(
        self, env, metrics, script
    ):
        """A unit preempted once and later aborted at re-dispatch must be
        scrubbed from the remaining-demand table."""
        from repro.system.overload import AbortTardyAtDispatch

        node = PreemptiveNode(
            env=env, index=0, policy=EarliestDeadlineFirst(),
            metrics=metrics, overload_policy=AbortTardyAtDispatch(),
        )
        doomed = submit(env, node, ex=10.0, dl=5.0, name="doomed")

        # "urgent" preempts "doomed" and serves past its deadline, so the
        # re-dispatch of "doomed" aborts it.
        script(2.0, lambda: submit(env, node, ex=4.0, dl=4.5, name="urgent"))
        env.run()
        assert doomed.timing.aborted
        assert doomed.timing.completed_at is None
        assert node.preemptions == 1
        assert node._remaining == {}

    def test_remaining_cleared_on_completion(self, env, node, script):
        preempted = submit(env, node, ex=5.0, dl=50.0, name="victim")

        script(1.0, lambda: submit(env, node, ex=1.0, dl=3.0, name="urgent"))
        env.run()
        # victim: [0, 1] + [2, 6] = its full 5 units.
        assert preempted.timing.completed_at == 6.0
        assert node._remaining == {}


class TestSpeedFactors:
    """Per-node speed factors on the preemptive server: service time is
    remaining demand / speed, recomputed at every (re-)dispatch."""

    def make_node(self, env, metrics, speed):
        return PreemptiveNode(
            env=env, index=0, policy=EarliestDeadlineFirst(),
            metrics=metrics, speed=speed,
        )

    def test_fast_node_halves_service_time(self, env, metrics):
        node = self.make_node(env, metrics, speed=2.0)
        unit = submit(env, node, ex=10.0, dl=100.0, name="u")
        env.run()
        assert unit.timing.completed_at == 5.0

    def test_remaining_demand_scales_across_preemption(
        self, env, metrics, script
    ):
        """On a speed-2 node: 10 demand = 5 time units.  Preempt after 2
        time units (4 demand consumed); the resume needs (10-4)/2 = 3."""
        node = self.make_node(env, metrics, speed=2.0)
        long_unit = submit(env, node, ex=10.0, dl=100.0, name="long")

        script(2.0, lambda: submit(env, node, ex=2.0, dl=5.0, name="urgent"))
        env.run()
        # urgent: [2, 3] (2 demand at speed 2); long: [0, 2] + [3, 6].
        assert long_unit.timing.completed_at == 6.0
        assert node.preemptions == 1
        assert node._remaining == {}

    def test_slow_node_stretches_service(self, env, metrics):
        node = self.make_node(env, metrics, speed=0.5)
        unit = submit(env, node, ex=3.0, dl=100.0, name="u")
        env.run()
        assert unit.timing.completed_at == 6.0

    def test_invalid_speed_rejected(self, env, metrics):
        with pytest.raises(ValueError, match="speed"):
            self.make_node(env, metrics, speed=0.0)


class TestIntegration:
    def test_preemptive_baseline_runs(self):
        result = simulate(
            baseline_config(preemptive=True, sim_time=2_000.0, warmup_time=200.0)
        )
        assert 0.0 <= result.md_local <= 1.0
        assert result.global_.completed > 50

    def test_preemption_helps_short_local_tasks(self):
        """Short local tasks no longer wait behind long subtasks."""
        config = dict(sim_time=4_000.0, warmup_time=400.0, seed=9)
        blocking = simulate(baseline_config(preemptive=False, **config))
        preemptive = simulate(baseline_config(preemptive=True, **config))
        assert preemptive.md_local < blocking.md_local

    def test_same_seed_deterministic(self):
        config = baseline_config(preemptive=True, sim_time=1_500.0,
                                 warmup_time=150.0, seed=4)
        a, b = simulate(config), simulate(config)
        assert a.md_local == b.md_local
        assert a.md_global == b.md_global


class TestPreemptionsInRunResult:
    """The per-node preemption counter surfaced through RunResult
    (ROADMAP open item: sweeps could not rank by preemption rate when
    only the node object exposed it)."""

    def test_preemptive_run_reports_per_node_preemptions(self):
        result = simulate(
            baseline_config(preemptive=True, sim_time=2_000.0,
                            warmup_time=200.0, seed=5)
        )
        assert result.total_preemptions > 0
        assert result.total_preemptions == sum(
            n.preemptions for n in result.per_node
        )
        assert all(n.preemptions >= 0 for n in result.per_node)

    def test_non_preemptive_run_reports_zero(self):
        result = simulate(
            baseline_config(preemptive=False, sim_time=1_000.0,
                            warmup_time=100.0, seed=5)
        )
        assert result.total_preemptions == 0
        assert all(n.preemptions == 0 for n in result.per_node)

    def test_counter_resets_at_warmup(self):
        """RunResult counts the measured window only; the node object's
        lifetime diagnostic keeps counting from t=0."""
        config = baseline_config(preemptive=True, sim_time=2_000.0,
                                 warmup_time=500.0, seed=5)
        from repro.system.simulation import Simulation

        sim = Simulation(config)
        result = sim.run()
        lifetime = sum(node.preemptions for node in sim.nodes)
        assert lifetime > result.total_preemptions > 0

    def test_point_estimate_aggregates_preemptions(self):
        from repro.experiments.runner import replicate

        config = baseline_config(preemptive=True, sim_time=1_000.0,
                                 warmup_time=100.0, seed=5)
        estimate = replicate(config, replications=2)
        assert estimate.preemptions > 0
