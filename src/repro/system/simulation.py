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

from typing import List, Optional

from ..checkpoint import CheckpointPolicy, _Trigger, save_checkpoint
from ..core.strategies import DeadlineAssigner, parse_assigner
from ..sim.core import Environment
from ..sim.rng import StreamFactory
from .config import PARALLEL, SERIAL, SERIAL_PARALLEL, SystemConfig
from .detector import FailureDetector, SuspicionView
from .emission import EmissionPolicy, MetricsEmitter
from .faults import FaultInjector, LiveSet
from .metrics import MetricsCollector, RunResult
from .node import Node
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
from .schedulers import FifoCounter, get_policy
from .tracing import TraceLog
from .workload import (
    GlobalTaskFactory,
    GlobalTaskSource,
    LocalTaskSource,
    ParallelFanFactory,
    PiecewiseProfile,
    SerialChainFactory,
    SerialParallelFactory,
)


class Simulation:
    """One fully wired simulation instance (single run, single seed)."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        #: True once the warmup phase has run and metrics were reset;
        #: lets a restored checkpoint resume without re-warming.
        self._warmup_done = False
        self.env = Environment()
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
        fifo = FifoCounter()
        # One work-unit id counter per run: the local sources and the
        # process manager draw trace labels from it.
        unit_ids = FifoCounter(1)
        self.nodes: List[Node] = [
            node_type(
                env=self.env,
                index=i,
                policy=policy,
                metrics=self.metrics,
                overload_policy=overload,
                speed=1.0 if speeds is None else speeds[i],
                fifo=fifo,
            )
            for i in range(config.node_count)
        ]
        # Fault model: a crash-enabled spec builds the live set and the
        # injector; anything else (None, or a zero-rate spec) wires
        # NOTHING -- no streams, no timers, no live set -- so fault-free
        # runs stay bit-identical to the pre-fault engine.
        faults = config.faults
        fault_spec = (
            faults if faults is not None and faults.enabled else None
        )
        self.live_set: Optional[LiveSet] = (
            LiveSet(config.node_count) if fault_spec is not None else None
        )
        self.fault_injector: Optional[FaultInjector] = None
        retry_stream = (
            self.streams.get("retry-route")
            if fault_spec is not None and fault_spec.retries_enabled
            else None
        )
        # Failure detection: an enabled spec replaces the manager-side
        # *oracle* view with the detector's observed SuspicionView --
        # placement, retry routing, and misroute recovery all consult
        # beliefs instead of ground truth.  Anything else wires NOTHING
        # (no streams, no timers, no view), so oracle-mode runs stay
        # bit-identical to the pre-detector engine.
        detector_cfg = config.detector
        detector_spec = (
            detector_cfg
            if detector_cfg is not None and detector_cfg.enabled
            else None
        )
        self.suspicion_view: Optional[SuspicionView] = (
            SuspicionView(config.node_count)
            if detector_spec is not None else None
        )
        self.failure_detector: Optional[FailureDetector] = None
        self.process_manager = ProcessManager(
            env=self.env,
            nodes=self.nodes,
            assigner=self.assigner,
            metrics=self.metrics,
            fault_spec=fault_spec,
            live_set=(
                self.suspicion_view
                if detector_spec is not None else self.live_set
            ),
            retry_stream=retry_stream,
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

        if fault_spec is not None or detector_spec is not None:
            if self.placement_policy is not None:
                # Observed view when a detector runs, oracle otherwise.
                self.placement_policy.attach_live_set(
                    self.suspicion_view
                    if detector_spec is not None else self.live_set
                )
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

    def _make_factory(self, estimator) -> GlobalTaskFactory:
        config = self.config
        placement = self._make_placement()
        # Retained so the fault injector can attach its live set.
        self.placement_policy = placement
        if config.task_structure == SERIAL:
            return SerialChainFactory(
                node_count=config.node_count,
                count=config.subtask_count_distribution(),
                execution=config.subtask_execution_distribution(),
                slack=config.global_slack_distribution(),
                streams=self.streams,
                estimator=estimator,
                placement=placement,
            )
        if config.task_structure == PARALLEL:
            return ParallelFanFactory(
                node_count=config.node_count,
                fan_out=config.subtask_count,
                execution=config.subtask_execution_distribution(),
                slack=config.global_slack_distribution(),
                streams=self.streams,
                estimator=estimator,
                placement=placement,
            )
        if config.task_structure == SERIAL_PARALLEL:
            return SerialParallelFactory(
                node_count=config.node_count,
                stages=config.stages,
                width=config.stage_width,
                execution=config.subtask_execution_distribution(),
                slack=config.global_slack_distribution(),
                streams=self.streams,
                estimator=estimator,
                placement=placement,
            )
        raise ValueError(f"unknown task structure {config.task_structure!r}")

    def run(
        self,
        checkpoint: Optional[CheckpointPolicy] = None,
        emit: Optional[EmissionPolicy] = None,
    ) -> RunResult:
        """Execute the configured run and return its measurements.

        With a :class:`~repro.checkpoint.CheckpointPolicy`, the run is
        periodically snapshotted to the policy's path; a snapshot
        restored with :func:`~repro.checkpoint.load_checkpoint` finishes
        the run bit-identically to the uninterrupted one.  Works both on
        fresh simulations and on restored ones (which skip the already
        completed warmup).

        With an :class:`~repro.system.emission.EmissionPolicy`, the run
        additionally writes a JSONL metric time series to the policy's
        path: interval records during the measured phase, and a final
        record whose cumulative payload equals the returned result.
        Emission is observation-only and determinism-invisible.
        """
        if checkpoint is not None or emit is not None:
            return self._run_sliced(checkpoint, emit)
        config = self.config
        if config.warmup_time > 0 and not self._warmup_done:
            self.env.run(until=config.warmup_time)
            self.metrics.reset(self.env.now)
        self._warmup_done = True
        self.env.run(until=config.sim_time)
        return self.metrics.snapshot(self.env.now)

    def _run_sliced(
        self,
        checkpoint: Optional[CheckpointPolicy],
        emit: Optional[EmissionPolicy],
    ) -> RunResult:
        """The sliced run loop behind ``run(checkpoint=..., emit=...)``.

        Each phase's time horizon is cut into slices and the policies'
        triggers are checked between slices.  Slicing is free in terms
        of determinism: the run-horizon sentinel consumes no sequence
        number, so ``run(until=a); run(until=b)`` is bit-identical to
        ``run(until=b)`` (pinned by the engine kernel tests), and both
        the checkpoint snapshot and the emitted records only read state.

        Interval records are only cut during the measured phase --
        warm-up statistics are discarded at the reset, so emitting them
        would just be noise; the emitter's windowed signals still warm
        up through the transient (and restart at the reset with
        everything else).
        """
        env = self.env
        config = self.config
        checkpoint_trigger = (
            _Trigger(checkpoint, env) if checkpoint is not None else None
        )
        emitter = None
        emit_trigger = None
        if emit is not None:
            emitter = MetricsEmitter(emit, self)
            emit_trigger = _Trigger(emit, env)

        def advance(target: float, measured: bool) -> None:
            remaining = target - env.now
            if remaining <= 0:
                return
            step = remaining / 128.0
            while env.now < target:
                env.run(until=min(env.now + step, target))
                if checkpoint_trigger is not None and checkpoint_trigger.due():
                    save_checkpoint(self, checkpoint.path)
                    checkpoint_trigger.saved()
                if measured and emit_trigger is not None and emit_trigger.due():
                    emitter.emit_interval()
                    emit_trigger.saved()

        if config.warmup_time > 0 and not self._warmup_done:
            advance(config.warmup_time, measured=False)
            self.metrics.reset(env.now)
        self._warmup_done = True
        advance(config.sim_time, measured=True)
        result = self.metrics.snapshot(env.now)
        if emitter is not None:
            emitter.emit_final(result)
        return result


def simulate(
    config: SystemConfig,
    checkpoint: Optional[CheckpointPolicy] = None,
    emit: Optional[EmissionPolicy] = None,
) -> RunResult:
    """One-shot convenience: build and run a :class:`Simulation`."""
    return Simulation(config).run(checkpoint=checkpoint, emit=emit)
