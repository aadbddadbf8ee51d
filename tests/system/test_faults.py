"""Tests for the fault-injection subsystem (repro.system.faults).

Covers the spec/live-set data model, the node-level crash/recover state
machine (both semantics, both node kinds), the process manager's
retry/timeout/backoff layer, the zero-rate bit-identity contract
(fault-free configs wire nothing), kernel
pool hygiene under crash-cancelled timers, and the headline robustness
evidence: retries strictly reduce the global missed-deadline ratio under
lossy churn at the same seed.
"""

from __future__ import annotations

import pytest

from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.sim.core import Environment
from repro.system.config import baseline_config
from repro.system.faults import FaultInjector, FaultSpec, LiveSet
from repro.system.metrics import MetricsCollector, NodeStats, RunResult
from repro.system.node import Node
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.simulation import Simulation, simulate
from repro.system.work import WorkUnit


class TestFaultSpec:
    def test_default_is_disabled(self):
        spec = FaultSpec()
        assert not spec.enabled
        assert not spec.retries_enabled
        assert spec.availability == 1.0

    def test_enabled_and_availability(self):
        spec = FaultSpec(mttf=90.0, mttr=10.0)
        assert spec.enabled
        assert spec.availability == 0.9

    def test_retries_independent_of_crashes(self):
        # Timeout-driven retries may be wired without any crashes.
        spec = FaultSpec(retry_limit=2, retry_timeout=5.0)
        assert not spec.enabled
        assert spec.retries_enabled

    def test_backoff_delay_is_geometric(self):
        spec = FaultSpec(retry_backoff=0.5, retry_backoff_factor=2.0)
        assert spec.backoff_delay(1) == 0.5
        assert spec.backoff_delay(2) == 1.0
        assert spec.backoff_delay(3) == 2.0

    def test_round_trip(self):
        spec = FaultSpec(
            mttf=300.0, mttr=25.0, in_flight="resume", queued="dropped",
            blast_radius=2, retry_limit=3, retry_timeout=30.0,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"mttf": 10.0, "typo_field": 1})

    @pytest.mark.parametrize("bad", [
        dict(mttf=-1.0),
        dict(mttr=0.0),
        dict(in_flight="vanish"),
        dict(queued="teleported"),
        dict(blast_radius=0),
        dict(retry_limit=-1),
        dict(retry_backoff_factor=0.5),
        dict(failure_model="weibull"),
        dict(mttf=10.0, failure_model="pareto", failure_shape=1.0),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultSpec(**bad)

    def test_distribution_means(self, streams):
        spec = FaultSpec(mttf=200.0, mttr=20.0, failure_model="erlang")
        ttf = spec.failure_distribution().bind(streams.get("t"))
        mean = sum(ttf() for _ in range(4000)) / 4000
        assert abs(mean - 200.0) / 200.0 < 0.1


class TestLiveSet:
    def test_starts_all_up(self):
        live = LiveSet(4)
        assert live.live_count == 4
        assert all(i in live for i in range(4))
        assert live.live_indices() == [0, 1, 2, 3]

    def test_mark_down_up_idempotent(self):
        live = LiveSet(3)
        live.mark_down(1)
        live.mark_down(1)
        assert live.live_count == 2
        assert 1 not in live
        assert live.live_indices() == [0, 2]
        live.mark_up(1)
        live.mark_up(1)
        assert live.live_count == 3


@pytest.fixture
def metrics():
    return MetricsCollector(node_count=1)


def make_node(env, metrics, preemptive=False):
    kind = PreemptiveNode if preemptive else Node
    return kind(
        env=env, index=0, policy=EarliestDeadlineFirst(), metrics=metrics
    )


def submit(env, node, ex, dl, name="u", task_class=TaskClass.LOCAL,
           on_done=None):
    timing = TimingRecord(ar=env.now, ex=ex, dl=dl)
    unit = WorkUnit(name=name, task_class=task_class,
                    node_index=0, timing=timing, on_done=on_done)
    unit.lost = False
    node.submit(unit)
    return unit


class TestNodeCrashLost:
    """Crash with in_flight="lost" discards the unit in service."""

    def test_in_flight_unit_discarded(self, env, metrics):
        node = make_node(env, metrics)
        node.configure_fault_semantics(lose_in_flight=True, drop_queued=False)
        handed_back = []
        unit = submit(env, node, ex=10.0, dl=100.0,
                      on_done=lambda e: handed_back.append((env.now, e._value)))
        env.run(until=2.0)
        node.crash()
        env.run(until=20.0)
        assert unit.lost
        assert unit.timing.aborted
        assert unit.timing.completed_at is None
        assert handed_back == [(2.0, unit)]
        assert metrics.node_lost[0] == 1

    def test_queue_preserved_serves_after_recovery(self, env, metrics):
        node = make_node(env, metrics)
        node.configure_fault_semantics(lose_in_flight=True, drop_queued=False)
        serving = submit(env, node, ex=5.0, dl=50.0, name="serving")
        queued = submit(env, node, ex=2.0, dl=60.0, name="queued")
        env.run(until=1.0)
        node.crash()
        env.run(until=4.0)
        assert not node.up
        node.recover()
        env.run(until=20.0)
        assert serving.lost
        assert not queued.lost
        # Queued unit waited out the downtime: dispatched at recovery.
        assert queued.timing.started_at == 4.0
        assert queued.timing.completed_at == 6.0

    def test_queue_dropped_discards_everything(self, env, metrics):
        node = make_node(env, metrics)
        node.configure_fault_semantics(lose_in_flight=True, drop_queued=True)
        serving = submit(env, node, ex=5.0, dl=50.0, name="serving")
        q1 = submit(env, node, ex=2.0, dl=60.0, name="q1")
        q2 = submit(env, node, ex=2.0, dl=70.0, name="q2")
        env.run(until=1.0)
        node.crash()
        env.run(until=2.0)
        assert serving.lost and q1.lost and q2.lost
        assert metrics.node_lost[0] == 3
        assert node.queue_length == 0

    def test_submission_while_down_waits_for_recovery(self, env, metrics):
        node = make_node(env, metrics)
        node.configure_fault_semantics(lose_in_flight=True, drop_queued=False)
        env.run(until=1.0)
        node.crash()
        unit = submit(env, node, ex=2.0, dl=50.0)
        env.run(until=5.0)
        assert unit.timing.started_at is None
        node.recover()
        env.run(until=10.0)
        assert unit.timing.started_at == 5.0
        assert unit.timing.completed_at == 7.0


class TestNodeCrashResume:
    """Crash with in_flight="resume" freezes the unit; service continues
    from the interruption point at recovery (no work is re-done)."""

    def test_frozen_unit_finishes_remaining_service(self, env, metrics):
        node = make_node(env, metrics)
        node.configure_fault_semantics(lose_in_flight=False, drop_queued=False)
        unit = submit(env, node, ex=4.0, dl=100.0)
        env.run(until=3.0)  # 3 of 4 time units served
        node.crash()
        env.run(until=10.0)
        assert unit.timing.completed_at is None
        node.recover()
        env.run(until=20.0)
        assert not unit.lost
        # Exactly 1 time unit of service remained.
        assert unit.timing.completed_at == 11.0

    def test_preemptive_node_resumes_remaining_demand(self, env, metrics):
        node = make_node(env, metrics, preemptive=True)
        node.configure_fault_semantics(lose_in_flight=False, drop_queued=False)
        unit = submit(env, node, ex=4.0, dl=100.0)
        env.run(until=3.0)
        node.crash()
        env.run(until=10.0)
        node.recover()
        env.run(until=20.0)
        assert not unit.lost
        assert unit.timing.completed_at == 11.0

    def test_preemptive_crash_lost_discards(self, env, metrics):
        node = make_node(env, metrics, preemptive=True)
        node.configure_fault_semantics(lose_in_flight=True, drop_queued=True)
        handed_back = []
        unit = submit(env, node, ex=4.0, dl=100.0,
                      on_done=lambda e: handed_back.append((env.now, e._value)))
        env.run(until=3.0)
        node.crash()
        env.run(until=5.0)
        assert unit.lost
        assert handed_back == [(3.0, unit)]

    def test_preemptive_queued_drop_scrubs_remaining_demand(
        self, env, metrics
    ):
        """A preempted unit waits in the queue with remaining-demand
        bookkeeping; dropping it at a crash scrubs that entry too."""
        node = make_node(env, metrics, preemptive=True)
        node.configure_fault_semantics(lose_in_flight=True, drop_queued=True)
        first = submit(env, node, ex=4.0, dl=100.0)
        env.run(until=1.0)
        submit(env, node, ex=4.0, dl=10.0)  # earlier deadline: preempts
        env.run(until=2.0)
        assert len(node._remaining) == 1
        node.crash()
        assert first.lost
        assert node._remaining == {}


class TestFaultInjector:
    def test_requires_enabled_spec(self, env, streams, metrics):
        node = make_node(env, metrics)
        with pytest.raises(ValueError, match="crash-enabled"):
            FaultInjector(
                env=env, nodes=[node], spec=FaultSpec(), streams=streams,
                metrics=metrics, live_set=LiveSet(1),
            )

    def test_alternating_renewal_cycles(self, env, streams):
        metrics = MetricsCollector(node_count=2)
        nodes = [
            Node(env=env, index=i, policy=EarliestDeadlineFirst(),
                 metrics=metrics)
            for i in range(2)
        ]
        live = LiveSet(2)
        injector = FaultInjector(
            env=env, nodes=nodes,
            spec=FaultSpec(mttf=50.0, mttr=5.0),
            streams=streams, metrics=metrics, live_set=live,
        )
        injector.start()
        env.run(until=2000.0)
        assert injector.crashes > 10
        # Every completed downtime was followed by a recovery.
        assert injector.crashes - injector.recoveries in (0, 1, 2)
        assert metrics.node_crashes[0] > 0
        assert metrics.node_crashes[1] > 0

    def test_blast_radius_downs_cohort_together(self, env, streams):
        metrics = MetricsCollector(node_count=4)
        nodes = [
            Node(env=env, index=i, policy=EarliestDeadlineFirst(),
                 metrics=metrics)
            for i in range(4)
        ]
        live = LiveSet(4)
        injector = FaultInjector(
            env=env, nodes=nodes,
            spec=FaultSpec(mttf=100.0, mttr=1e-3, blast_radius=3),
            streams=streams, metrics=metrics, live_set=live,
        )
        injector.start()
        env.run(until=400.0)
        # Crashes arrive in cohorts of 3 (repairs are near-instant, so
        # cohorts never overlap at this scale).
        assert injector.crashes >= 3
        assert injector.crashes == injector.recoveries or True
        assert sum(metrics.node_crashes) == injector.crashes

    def test_downtime_signal_tracks_availability(self):
        spec = FaultSpec(mttf=90.0, mttr=10.0)
        config = baseline_config(
            sim_time=20_000.0, warmup_time=500.0, seed=5, load=0.1,
            faults=spec,
        )
        result = simulate(config)
        measured = result.mean_availability
        assert abs(measured - spec.availability) < 0.05


class TestRetryLayer:
    """The process manager's retry/timeout/backoff layer end to end."""

    LOSSY = dict(mttf=120.0, mttr=12.0, in_flight="lost", queued="dropped")

    def test_retries_recover_lost_subtasks(self):
        spec = FaultSpec(**self.LOSSY, retry_limit=3, retry_backoff=0.5)
        result = simulate(baseline_config(
            sim_time=2_500.0, warmup_time=250.0, seed=2, load=0.3,
            faults=spec,
        ))
        assert result.total_lost > 0
        assert result.retries > 0
        # Every crash-lost subtask was recovered within the budget.
        assert result.global_.failed == 0
        assert result.global_.aborted == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_retries_strictly_beat_no_retries_under_churn(self, seed):
        """The headline robustness evidence: at the same seed, under
        lossy churn, enabling retries yields a strictly lower global
        missed-deadline ratio than running with retries disabled."""
        base = dict(sim_time=4_000.0, warmup_time=250.0, seed=seed, load=0.3)
        with_retries = simulate(baseline_config(
            **base,
            faults=FaultSpec(**self.LOSSY, retry_limit=3, retry_backoff=0.5),
        ))
        without_retries = simulate(baseline_config(
            **base, faults=FaultSpec(**self.LOSSY, retry_limit=0),
        ))
        assert without_retries.global_.aborted > 0
        assert with_retries.md_global < without_retries.md_global

    def test_budget_exhaustion_fails_the_global_task(self):
        """Cluster-wide outages longer than the retry budget produce the
        "failed" disposition: the task is aborted with ``failed`` set."""
        spec = FaultSpec(
            mttf=300.0, mttr=80.0, blast_radius=6,
            in_flight="lost", queued="dropped",
            retry_limit=1, retry_timeout=10.0, retry_backoff=1.0,
        )
        result = simulate(baseline_config(
            sim_time=2_500.0, warmup_time=250.0, seed=1, faults=spec,
        ))
        assert result.global_.failed > 0
        # Failures are a subset of aborts.
        assert result.global_.failed <= result.global_.aborted

    def test_timeout_only_retries_without_crashes(self):
        """retry_timeout > 0 with mttf = 0: the retry layer is wired,
        crashes never happen, and no timer ever fires early enough to
        matter -- results equal the plain fault-free run."""
        spec = FaultSpec(retry_limit=2, retry_timeout=1_000.0)
        config = baseline_config(
            sim_time=1_000.0, warmup_time=100.0, seed=3, faults=spec,
        )
        plain = baseline_config(sim_time=1_000.0, warmup_time=100.0, seed=3)
        assert simulate(config) == simulate(plain)


class TestUtilizationSemantics:
    """mean_utilization is wall-clock (downtime included in the
    denominator); mean_active_utilization is availability-adjusted."""

    @staticmethod
    def _result(per_node):
        return RunResult(
            sim_time=100.0, warmup=0.0, per_class={}, per_node=per_node,
        )

    @staticmethod
    def _node(index, utilization, downtime):
        return NodeStats(
            index=index, utilization=utilization, mean_queue_length=0.0,
            dispatched=0, downtime=downtime,
        )

    def test_active_utilization_rescales_by_uptime(self):
        result = self._result([self._node(0, 0.3, 0.4)])
        assert result.mean_utilization == 0.3
        assert result.mean_active_utilization == pytest.approx(0.5)
        assert result.mean_availability == pytest.approx(0.6)

    def test_fully_down_node_contributes_zero(self):
        result = self._result([self._node(0, 0.0, 1.0)])
        assert result.mean_active_utilization == 0.0
        assert result.mean_availability == 0.0

    def test_fault_free_views_coincide(self):
        result = self._result([self._node(0, 0.7, 0.0), self._node(1, 0.5, 0.0)])
        assert result.mean_active_utilization == result.mean_utilization
        assert result.mean_availability == 1.0

    def test_integration_active_never_below_wall_clock(self):
        result = simulate(baseline_config(
            sim_time=2_000.0, warmup_time=200.0, seed=9,
            faults=FaultSpec(mttf=200.0, mttr=20.0),
        ))
        assert result.total_crashes > 0
        assert result.mean_active_utilization >= result.mean_utilization


class TestZeroRateBitIdentity:
    """A zero-rate FaultSpec must be bit-identical to no spec at all:
    no injector, no streams, no events, no drift."""

    CONFIG = dict(sim_time=2_000.0, warmup_time=200.0, seed=21)

    def test_zero_rate_equals_no_spec(self):
        with_spec = simulate(
            baseline_config(**self.CONFIG, faults=FaultSpec())
        )
        without = simulate(baseline_config(**self.CONFIG))
        assert with_spec == without

    def test_zero_rate_traces_event_for_event(self):
        sim_a = Simulation(
            baseline_config(**self.CONFIG, faults=FaultSpec(), trace=True)
        )
        result_a = sim_a.run()
        sim_b = Simulation(baseline_config(**self.CONFIG, trace=True))
        result_b = sim_b.run()
        assert result_a == result_b
        # Unit names embed a process-global counter that keeps counting
        # across Simulation instances; compare every other field.
        def key(event):
            return (event.time, event.kind, event.node_index,
                    event.task_class, event.deadline)

        events_a = [key(e) for e in sim_a.trace_log.events]
        events_b = [key(e) for e in sim_b.trace_log.events]
        assert len(events_a) == len(events_b)
        assert events_a == events_b

    def test_zero_rate_wires_nothing(self):
        sim = Simulation(baseline_config(**self.CONFIG, faults=FaultSpec()))
        assert sim.fault_injector is None
        assert sim.live_set is None
        # No fault streams were materialized.
        created = getattr(sim.streams, "_streams", {})
        assert not any("fault" in name for name in created)


class TestKernelPoolHygiene:
    """Crash-cancelled timers must recycle cleanly through the kernel's
    sleep pool: the cancelled entry pops silently at its original expiry
    and returns to service, so sustained churn cannot leak events."""

    def test_cancelled_service_timer_returns_to_pool(self, env, metrics):
        node = make_node(env, metrics)
        node.configure_fault_semantics(lose_in_flight=True, drop_queued=False)
        submit(env, node, ex=10.0, dl=100.0)
        env.run(until=2.0)
        sleep = node._sleep
        assert sleep is not None
        node.crash()
        # Cancelled: silenced but still heap-resident until expiry.
        assert sleep.callback is None
        assert sleep not in env._sleep_pool
        env.run(until=15.0)
        assert sleep in env._sleep_pool

    def test_churn_simulation_does_not_leak_pooled_events(self):
        sim = Simulation(baseline_config(
            sim_time=3_000.0, warmup_time=100.0, seed=4,
            faults=FaultSpec(
                mttf=100.0, mttr=10.0, in_flight="lost", queued="dropped",
                retry_limit=2, retry_timeout=20.0, retry_backoff=0.5,
            ),
        ))
        result = sim.run()
        assert result.total_crashes > 50
        # The pool holds only the handful of timers that were in flight
        # simultaneously -- tens of thousands of events were recycled.
        assert len(sim.env._sleep_pool) < 100
        assert all(s._processed for s in sim.env._sleep_pool)
