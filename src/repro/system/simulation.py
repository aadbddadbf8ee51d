"""Simulation façade: build a whole system from a config and run it.

This is the main entry point for users::

    from repro import Simulation, baseline_config

    result = Simulation(baseline_config(strategy="EQF")).run()
    print(result.md_local, result.md_global)

A :class:`Simulation` wires together the environment, the named random
streams, the nodes with their schedulers, the process manager with the
chosen SDA strategy, and the workload sources, then runs for
``config.sim_time`` with the first ``config.warmup_time`` discarded.
"""

from __future__ import annotations

from itertools import count
from typing import List, Optional

from ..core.strategies import DeadlineAssigner, parse_assigner
from ..sim.core import Environment
from ..sim.errors import SimulationError
from ..sim.rng import StreamFactory
from .config import SystemConfig
from .detector import FailureDetector
from .emission import EmissionPolicy, MetricsEmitter, _Trigger
from .faults import FaultInjector, LiveSet
from .metrics import MetricsCollector, RunResult
from .node import Node, NodeShared, drop_continuations
from .placement import (
    LeastOutstandingPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    UniformPlacement,
    ZipfPlacement,
)
from .preemptive import PreemptiveNode
from .overload import get_overload_policy
from .process_manager import ProcessManager
from .schedulers import get_policy
from .tracing import TraceLog
from .workload import (
    GlobalTaskSource,
    LocalTaskSource,
    PiecewiseProfile,
    StageFactory,
)


class Simulation:
    """One fully wired simulation instance (single run, single seed)."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.env = Environment()
        self._ran = False
        self.streams = StreamFactory(config.seed)
        self.metrics = MetricsCollector(config.node_count)
        self.trace_log: Optional[TraceLog] = None
        if config.trace:
            self.trace_log = TraceLog()
            self.metrics.tracer = self.trace_log
        self.assigner: DeadlineAssigner = parse_assigner(config.strategy)

        policy = get_policy(config.scheduler)
        overload = get_overload_policy(config.overload_policy)
        speeds = config.node_speed_factors
        node_type = PreemptiveNode if config.preemptive else Node
        # One work-unit id counter per run: the local sources and the
        # process manager draw trace labels from it.
        unit_ids = count(1)
        # The per-run values every node reads, built once.  This list is
        # the run's one node list: the process manager, the placement
        # policy, the fault injector and the detector are handed it, and
        # the collector reads it when the run resets and snapshots.
        shared = NodeShared(self.env, self.metrics, policy, overload)
        self.nodes: List[Node] = [
            node_type(
                self.env, i, policy, self.metrics,
                speed=1.0 if speeds is None else speeds[i],
                shared=shared,
            )
            for i in range(config.node_count)
        ]
        # Fault model: a crash-enabled spec builds the live set and the
        # injector, and a retry-enabled spec (even at ``mttf = 0``) arms
        # the manager's retry layer; anything else wires NOTHING -- no
        # streams, no timers, no live set -- so fault-free runs stay
        # bit-identical to the pre-fault engine.
        faults = config.faults
        fault_spec = (
            faults if faults is not None and faults.enabled else None
        )
        self.live_set: Optional[LiveSet] = (
            LiveSet(config.node_count) if fault_spec is not None else None
        )
        self.fault_injector: Optional[FaultInjector] = None
        # Failure detection: an enabled spec gives the detector a live set
        # of its own (membership means *trusted*), which replaces the
        # oracle set as the manager-side view -- placement, retry routing
        # and misroute recovery all consult beliefs instead of ground
        # truth.  Anything else wires NOTHING (no streams, no timers, no
        # view), so oracle-mode runs stay bit-identical to the
        # pre-detector engine.
        detector_cfg = config.detector
        detector_spec = (
            detector_cfg
            if detector_cfg is not None and detector_cfg.enabled
            else None
        )
        self.suspicion_view: Optional[LiveSet] = (
            LiveSet(config.node_count)
            if detector_spec is not None else None
        )
        view = (
            self.suspicion_view if detector_spec is not None
            else self.live_set
        )
        self.failure_detector: Optional[FailureDetector] = None
        self.process_manager = ProcessManager(
            env=self.env,
            nodes=self.nodes,
            assigner=self.assigner,
            metrics=self.metrics,
            fault_spec=faults,
            live_set=view,
            retry_stream=(
                self.streams.get("retry-route")
                if faults is not None and faults.retries_enabled
                and view is not None else None
            ),
            detector_spec=detector_spec,
            detector_stream=(
                self.streams.get("detector-route")
                if detector_spec is not None else None
            ),
            unit_ids=unit_ids,
        )

        estimator = config.make_estimator()
        profile = (
            PiecewiseProfile(config.load_profile, config.sim_time)
            if config.load_profile is not None
            else None
        )
        self.local_sources: List[LocalTaskSource] = []
        for node, rate in zip(self.nodes, config.node_local_rates()):
            if rate <= 0:
                continue
            self.local_sources.append(
                LocalTaskSource(
                    env=self.env,
                    node=node,
                    interarrival=config.interarrival_distribution(rate),
                    execution=config.local_execution_distribution(),
                    slack=config.local_slack_distribution(),
                    streams=self.streams,
                    estimator=estimator,
                    profile=profile,
                    unit_ids=unit_ids,
                )
            )

        self.global_source: Optional[GlobalTaskSource] = None
        self.placement_policy: Optional[PlacementPolicy] = None
        global_rate = config.global_arrival_rate
        if global_rate > 0:
            factory = self._make_factory(estimator)
            self.global_source = GlobalTaskSource(
                env=self.env,
                process_manager=self.process_manager,
                interarrival=config.interarrival_distribution(global_rate),
                factory=factory,
                streams=self.streams,
                profile=profile,
            )

        if view is not None and self.placement_policy is not None:
            self.placement_policy.attach_live_set(view)
        if fault_spec is not None:
            self.fault_injector = FaultInjector(
                env=self.env,
                nodes=self.nodes,
                spec=fault_spec,
                streams=self.streams,
                metrics=self.metrics,
                live_set=self.live_set,
            )
        if detector_spec is not None:
            self.failure_detector = FailureDetector(
                env=self.env,
                nodes=self.nodes,
                spec=detector_spec,
                streams=self.streams,
                metrics=self.metrics,
                view=self.suspicion_view,
            )
            if self.fault_injector is not None:
                self.fault_injector.detector = self.failure_detector
        if self.fault_injector is not None:
            self.fault_injector.start()
        if self.failure_detector is not None:
            self.failure_detector.start()

    def _make_placement(self) -> PlacementPolicy:
        """Build the configured subtask placement policy.

        The baseline ``"uniform"`` policy reproduces the historical draws
        from the ``"global-route"`` stream exactly; the other policies use
        their own named streams (or none), so switching a scenario's
        placement never perturbs the rest of the workload's randomness.
        """
        config = self.config
        if config.placement == "uniform":
            return UniformPlacement(config.node_count, self.streams)
        if config.placement == "round-robin":
            return RoundRobinPlacement(config.node_count)
        if config.placement == "zipf":
            return ZipfPlacement(
                config.node_count, config.placement_zipf_s, self.streams
            )
        if config.placement == "least-outstanding":
            return LeastOutstandingPlacement(self.nodes, self.streams)
        # Config validation shares placement.PLACEMENT_POLICIES with this
        # dispatch; a name validated but not built here is a wiring bug,
        # not a user error -- never fall back to uniform silently.
        raise ValueError(
            f"placement {config.placement!r} validated but not wired"
        )

    def _make_factory(self, estimator) -> StageFactory:
        """The global-task factory: a chain is stages of one leaf each
        (``width=None``), a fan is one stage, a tree is ``stages`` fans."""
        config = self.config
        placement = self._make_placement()
        # Retained so the fault injector can attach its live set.
        self.placement_policy = placement
        stages, width = config.task_shape()
        return StageFactory(
            node_count=config.node_count,
            stages=stages,
            width=width,
            execution=config.subtask_execution_distribution(),
            slack=config.global_slack_distribution(),
            streams=self.streams,
            estimator=estimator,
            placement=placement,
        )

    def run(self, emit: Optional[EmissionPolicy] = None) -> RunResult:
        """Execute the configured run and return its measurements.

        A simulation runs once.  After the final snapshot the run
        releases the environment's event list (pending events, pooled
        sleeps and the callbacks of pending sleeps their owners still
        hold) and the continuations of the work the nodes still hold:
        both reach back into the model, and keeping them would tie it
        into reference cycles.  The run's objects then point only
        outward from the simulation, so a dropped finished simulation
        is freed by reference counting, without the garbage collector.

        With an :class:`~repro.system.emission.EmissionPolicy`, the run
        additionally writes a JSONL metric time series to the policy's
        path: interval records during the measured phase, and a final
        record whose cumulative payload equals the returned result.
        Emission is observation-only and determinism-invisible.
        """
        if self._ran:
            raise SimulationError("a Simulation runs once; build a new one")
        self._ran = True
        if emit is not None:
            result = self._run_sliced(emit)
        else:
            config = self.config
            if config.warmup_time > 0:
                self.env.run(until=config.warmup_time)
                self.metrics.reset(self.env.now, self.nodes)
            self.env.run(until=config.sim_time)
            result = self.metrics.snapshot(self.env.now, self.nodes)
        self.env.release()
        drop_continuations(self.nodes)
        return result

    def _run_sliced(self, emit: EmissionPolicy) -> RunResult:
        """The sliced run loop behind ``run(emit=...)``.

        Each phase's time horizon is cut into slices and the emission
        trigger is checked between slices.  Slicing is free in terms of
        determinism: the run-horizon sentinel consumes no sequence
        number, so ``run(until=a); run(until=b)`` is bit-identical to
        ``run(until=b)`` (pinned by the engine kernel tests), and the
        emitted records only read state.

        Interval records are only cut during the measured phase --
        warm-up statistics are discarded at the reset, so emitting them
        would just be noise.
        """
        env = self.env
        config = self.config
        emitter = MetricsEmitter(emit, self)
        trigger = _Trigger(emit, env)

        def advance(target: float, measured: bool) -> None:
            remaining = target - env.now
            if remaining <= 0:
                return
            step = remaining / 128.0
            while env.now < target:
                env.run(until=min(env.now + step, target))
                if measured and trigger.due():
                    emitter.emit_interval()
                    trigger.reset()

        if config.warmup_time > 0:
            advance(config.warmup_time, measured=False)
            self.metrics.reset(env.now, self.nodes)
        advance(config.sim_time, measured=True)
        result = self.metrics.snapshot(env.now, self.nodes)
        emitter.emit_final(result)
        return result


def simulate(
    config: SystemConfig, emit: Optional[EmissionPolicy] = None
) -> RunResult:
    """One-shot convenience: build and run a :class:`Simulation`."""
    return Simulation(config).run(emit=emit)
