"""Workload generation (Sec. 4.1 / 5.2 simulation models).

Two task populations:

* **Local tasks** arrive at each node as a Poisson process with rate
  ``lambda_local``; execution times are exponential with mean
  ``1/mu_local``; slack is uniform on ``[Smin, Smax]``; the deadline is
  ``ar + ex + slack``.
* **Global tasks** arrive as a single Poisson stream with rate
  ``lambda_global``.  Their shape depends on the experiment: a serial chain
  (Sec. 4), a parallel fan (Sec. 5), or a serial-of-parallel tree (Sec. 6).
  Subtask execution times are exponential with mean ``1/mu_subtask``;
  execution nodes are picked uniformly at random (distinct nodes within a
  parallel fan, per Sec. 5.2).

Deadlines of global tasks:

* serial chain: ``dl = ar + sum_i ex(Ti) + slack`` where the slack
  distribution is the local one scaled so that ``rel_flex`` holds (see
  :class:`~repro.system.config.SystemConfig`);
* parallel fan: ``dl = ar + max_i ex(Ti) + slack`` (paper eq. (2)) with the
  paper's explicit ``[1.25, 5.0]`` baseline range;
* serial-parallel tree: ``dl = ar + critical_path_ex + slack`` -- the
  natural generalization (the critical path is what a perfectly idle
  system would need).

Note the deadline uses *real* execution times: the definition
``dl = ar + ex + sl`` fixes slack exactly, independent of prediction error.
The SDA strategies, in contrast, only ever see ``pex``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from heapq import heappush
from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.estimators import Estimator, PerfectEstimator
from ..core.strategies.base import PriorityClass
from ..core.task import (
    ParallelTask,
    SerialTask,
    SimpleTask,
    TaskClass,
    TaskNode,
)
from ..core.timing import TimingRecord
from ..sim.core import Environment
from ..sim.distributions import Deterministic, Distribution
from ..sim.rng import StreamFactory
from .node import Node
from .placement import PlacementPolicy, UniformPlacement
from .process_manager import ProcessManager
from .work import WorkUnit

_LOCAL = TaskClass.LOCAL
_PRIORITY_NORMAL = PriorityClass.NORMAL


class PiecewiseProfile:
    """Piecewise-constant load multiplier over a run (scenario subsystem).

    Built from ``((duration_fraction, multiplier), ...)`` segments spanning
    ``sim_time`` in order; calling the profile at time ``t`` returns the
    active segment's multiplier (the last segment persists past the end).
    Arrival sources divide each interarrival gap by the multiplier at the
    moment the gap is scheduled, approximating a piecewise-constant-rate
    arrival process while consuming exactly one base draw per arrival --
    the base streams stay aligned with the stationary model's.
    """

    def __init__(
        self, segments: Sequence[Tuple[float, float]], sim_time: float
    ) -> None:
        if not segments:
            raise ValueError("profile needs at least one segment")
        if sim_time <= 0:
            raise ValueError(f"sim_time must be positive, got {sim_time}")
        bounds: List[float] = []
        multipliers: List[float] = []
        elapsed = 0.0
        for fraction, multiplier in segments:
            if fraction <= 0 or multiplier <= 0:
                raise ValueError(
                    f"segments need positive fraction and multiplier, got "
                    f"({fraction}, {multiplier})"
                )
            elapsed += fraction * sim_time
            bounds.append(elapsed)
            multipliers.append(multiplier)
        self._bounds = bounds
        self._multipliers = multipliers

    def __call__(self, t: float) -> float:
        """Multiplier in effect at time ``t``."""
        index = bisect_right(self._bounds, t)
        multipliers = self._multipliers
        if index >= len(multipliers):
            return multipliers[-1]
        return multipliers[index]


def _estimation(estimator: Estimator, streams: StreamFactory, name: str):
    """The ``(predict, stream)`` pair of an estimating source or factory:
    ``(None, None)`` for a perfect estimator, which draws nothing, so its
    stream is never made (a stream's seed derives from its name, not from
    the order streams are made in)."""
    if estimator.is_perfect:
        return None, None
    return estimator.predict, streams.get(name)


def _queue_arrival(source, env: Environment, gap: float) -> None:
    """Queue ``source`` as its own heap event, ``gap`` time units out.

    The same entry, validation and sequence-number consumption as
    ``env._sleep(gap, ...)``, without a timer object: a source is queued
    exactly once at a time, so it can be the event itself, and its
    class-level ``callback`` is the arrival step.
    """
    # ``not >=`` rather than ``<``: a NaN gap must not pass.
    if not gap >= 0.0:
        raise ValueError(f"negative or NaN interarrival gap: {gap!r}")
    heappush(env._queue, (env._now + gap, env._next_seq(), source))


class LocalTaskSource:
    """Poisson source of local tasks at one node.

    Implemented as a self-rescheduling event rather than a generator
    process: the source is its own heap entry, and its class-level
    ``callback`` generates one arrival and re-queues the source.  One
    arrival costs one event-list entry and one callback, with no
    coroutine machinery and no timer object; the source holds no bound
    method of itself, so nothing ties it into a reference cycle.  Random
    draws happen in the same per-stream order as the process version,
    so fixed seeds keep producing identical workloads.
    """


    __slots__ = (
        "env",
        "node",
        "interarrival",
        "execution",
        "slack",
        "estimator",
        "_arrival_stream",
        "_execution_stream",
        "_slack_stream",
        "_estimate_stream",
        "generated",
        "_next_interarrival",
        "_next_execution",
        "_next_slack",
        "_predict",
        "_submit",
        "_node_index",
        "_profile",
        "_unit_ids",
    )

    def __init__(
        self,
        env: Environment,
        node: Node,
        interarrival: Distribution,
        execution: Distribution,
        slack: Distribution,
        streams: StreamFactory,
        estimator: Optional[Estimator] = None,
        profile: Optional[PiecewiseProfile] = None,
        unit_ids: Optional[Iterator[int]] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.interarrival = interarrival
        self.execution = execution
        self.slack = slack
        self.estimator = estimator or PerfectEstimator()
        tag = f"node-{node.index}"
        self._arrival_stream = streams.get(f"local-arrival/{tag}")
        self._execution_stream = streams.get(f"local-execution/{tag}")
        self._slack_stream = streams.get(f"local-slack/{tag}")
        self.generated = 0
        # Hot-path bindings (one arrival per callback for the whole run).
        self._next_interarrival = interarrival.bind(self._arrival_stream)
        self._next_execution = execution.bind(self._execution_stream)
        self._next_slack = slack.bind(self._slack_stream)
        self._predict, self._estimate_stream = _estimation(
            self.estimator, streams, f"local-estimate/{tag}"
        )
        self._submit = node.submit
        self._node_index = node.index
        self._profile = profile
        # Work-unit ids (display labels), shared with the simulation's
        # other sources and its process manager; a source built alone
        # numbers its own.
        self._unit_ids = itertools.count(1) if unit_ids is None else unit_ids
        gap = self._next_interarrival()
        if profile is not None:
            gap /= profile(env._now)
        _queue_arrival(self, env, gap)

    def callback(self, _event) -> None:
        """Generate one local task, then re-queue for the next arrival
        (its gap scaled by the load profile's multiplier at the current
        instant when the load varies over time)."""
        env = self.env
        self.generated += 1
        ex = self._next_execution()
        slack = self._next_slack()
        predict = self._predict
        ar = env._now
        # Inlined timing-record and work-unit construction (cf.
        # core.timing.fast_timing and WorkUnit.__init__, same stores):
        # one of each per local task for the whole run, and even the
        # constructor call frames are measurable at that rate.
        timing = TimingRecord.__new__(TimingRecord)
        timing.ar = ar
        timing.ex = ex
        timing.pex = ex if predict is None else predict(ex, self._estimate_stream)
        dl = ar + ex + slack
        timing.dl = dl
        timing.completed_at = None
        timing.started_at = None
        timing.aborted = False
        unit = WorkUnit.__new__(WorkUnit)
        unit.id = next(self._unit_ids)
        unit._name = None
        unit.task_class = _LOCAL
        unit.node_index = self._node_index
        unit.timing = timing
        unit.priority_class = _PRIORITY_NORMAL
        unit.on_done = None
        unit.natural_deadline = dl
        unit.lost = False
        self._submit(unit)
        gap = self._next_interarrival()
        profile = self._profile
        if profile is not None:
            gap /= profile(ar)
        # Inlined _queue_arrival: one re-queue per task for the whole run.
        if not gap >= 0.0:
            raise ValueError(f"negative or NaN interarrival gap: {gap!r}")
        heappush(env._queue, (env._now + gap, env._next_seq(), self))


class GlobalTaskFactory:
    """Builds one global task instance (tree + end-to-end deadline)."""

    #: Expected number of simple subtasks per task (load arithmetic).
    mean_subtask_count: float

    def build(self, now: float) -> Tuple[TaskNode, float]:
        """Return ``(tree, deadline)`` for a task arriving at ``now``."""
        raise NotImplementedError


class SerialChainFactory(GlobalTaskFactory):
    """Serial global tasks ``T = [T1 T2 ... Tm]`` (Sec. 4.1).

    ``count`` may be deterministic (the baseline's fixed ``m``) or any
    integer distribution (the Sec. 4.3 "different number of subtasks"
    variation).  Execution nodes are picked uniformly at random with
    replacement -- consecutive stages may land on the same node, as in the
    paper.
    """


    def __init__(
        self,
        node_count: int,
        count: Distribution,
        execution: Distribution,
        slack: Distribution,
        streams: StreamFactory,
        estimator: Optional[Estimator] = None,
        placement: Optional[PlacementPolicy] = None,
    ) -> None:
        if node_count < 1:
            raise ValueError(f"need at least one node, got {node_count}")
        self.node_count = node_count
        self.count = count
        self.execution = execution
        self.slack = slack
        self.estimator = estimator or PerfectEstimator()
        self.placement = placement or UniformPlacement(node_count, streams)
        self.mean_subtask_count = float(count.mean)
        # A fixed count draws nothing, so its stream is never made.
        self._count_stream = (
            None if isinstance(count, Deterministic)
            else streams.get("global-count")
        )
        self._execution_stream = streams.get("global-execution")
        self._slack_stream = streams.get("global-slack")
        self._pick_one = self.placement.pick_one
        self._next_count = count.bind(self._count_stream)
        self._next_execution = execution.bind(self._execution_stream)
        self._next_slack = slack.bind(self._slack_stream)
        self._predict, self._estimate_stream = _estimation(
            self.estimator, streams, "global-estimate"
        )

    def build(self, now: float) -> Tuple[TaskNode, float]:
        m = int(self._next_count())
        if m < 1:
            raise ValueError(f"subtask count must be >= 1, got {m}")
        leaves = [self._make_leaf() for _ in range(m)]
        tree: TaskNode = SerialTask(leaves) if m > 1 else leaves[0]
        total_ex = sum(leaf.ex for leaf in leaves)
        deadline = now + total_ex + self._next_slack()
        return tree, deadline

    def _make_leaf(self) -> SimpleTask:
        ex = self._next_execution()
        predict = self._predict
        return SimpleTask(
            ex=ex,
            pex=ex if predict is None else predict(ex, self._estimate_stream),
            node_index=self._pick_one(),
        )


class ParallelFanFactory(GlobalTaskFactory):
    """Parallel global tasks ``T = [T1 || ... || Tm]`` (Sec. 5.2).

    The ``m`` subtasks run at ``m`` *distinct* nodes (sampled without
    replacement), so ``m <= k`` is required.  The deadline follows the
    paper's eq. (2): ``dl = max_i ex(Ti) + slack + ar``.
    """


    def __init__(
        self,
        node_count: int,
        fan_out: int,
        execution: Distribution,
        slack: Distribution,
        streams: StreamFactory,
        estimator: Optional[Estimator] = None,
        placement: Optional[PlacementPolicy] = None,
    ) -> None:
        if fan_out < 1:
            raise ValueError(f"fan-out must be >= 1, got {fan_out}")
        if fan_out > node_count:
            raise ValueError(
                f"fan-out {fan_out} exceeds node count {node_count}; the "
                "paper places parallel subtasks at distinct nodes"
            )
        self.node_count = node_count
        self.fan_out = fan_out
        self.execution = execution
        self.slack = slack
        self.estimator = estimator or PerfectEstimator()
        self.placement = placement or UniformPlacement(node_count, streams)
        self.mean_subtask_count = float(fan_out)
        self._execution_stream = streams.get("global-execution")
        self._slack_stream = streams.get("global-slack")
        self._pick_distinct = self.placement.pick_distinct
        self._next_execution = execution.bind(self._execution_stream)
        self._next_slack = slack.bind(self._slack_stream)
        self._predict, self._estimate_stream = _estimation(
            self.estimator, streams, "global-estimate"
        )

    def build(self, now: float) -> Tuple[TaskNode, float]:
        nodes = self._pick_distinct(self.fan_out)
        predict = self._predict
        leaves = []
        for node_index in nodes:
            ex = self._next_execution()
            leaves.append(
                SimpleTask(
                    ex=ex,
                    pex=(
                        ex if predict is None
                        else predict(ex, self._estimate_stream)
                    ),
                    node_index=node_index,
                )
            )
        tree: TaskNode = ParallelTask(leaves) if self.fan_out > 1 else leaves[0]
        longest = max(leaf.ex for leaf in leaves)
        deadline = now + longest + self._next_slack()
        return tree, deadline


class SerialParallelFactory(GlobalTaskFactory):
    """Serial-parallel trees for the Sec. 6 experiment.

    The tree is a serial chain of ``stages`` stages, each a parallel fan of
    ``width`` subtasks at distinct nodes (width 1 degenerates to a simple
    stage).  The deadline allows the critical path (the tree's execution
    envelope) plus slack.
    """


    def __init__(
        self,
        node_count: int,
        stages: int,
        width: int,
        execution: Distribution,
        slack: Distribution,
        streams: StreamFactory,
        estimator: Optional[Estimator] = None,
        placement: Optional[PlacementPolicy] = None,
    ) -> None:
        if stages < 1:
            raise ValueError(f"need at least one stage, got {stages}")
        if width < 1:
            raise ValueError(f"stage width must be >= 1, got {width}")
        if width > node_count:
            raise ValueError(
                f"stage width {width} exceeds node count {node_count}"
            )
        self.node_count = node_count
        self.stages = stages
        self.width = width
        self.execution = execution
        self.slack = slack
        self.estimator = estimator or PerfectEstimator()
        self.placement = placement or UniformPlacement(node_count, streams)
        self.mean_subtask_count = float(stages * width)
        self._execution_stream = streams.get("global-execution")
        self._slack_stream = streams.get("global-slack")
        self._pick_distinct = self.placement.pick_distinct
        self._next_execution = execution.bind(self._execution_stream)
        self._next_slack = slack.bind(self._slack_stream)
        self._predict, self._estimate_stream = _estimation(
            self.estimator, streams, "global-estimate"
        )

    def build(self, now: float) -> Tuple[TaskNode, float]:
        predict = self._predict
        stage_nodes: List[TaskNode] = []
        for _ in range(self.stages):
            leaves = []
            node_indices = self._pick_distinct(self.width)
            for node_index in node_indices:
                ex = self._next_execution()
                leaves.append(
                    SimpleTask(
                        ex=ex,
                        pex=(
                            ex if predict is None
                            else predict(ex, self._estimate_stream)
                        ),
                        node_index=node_index,
                    )
                )
            stage_nodes.append(
                ParallelTask(leaves) if self.width > 1 else leaves[0]
            )
        tree: TaskNode = (
            SerialTask(stage_nodes) if self.stages > 1 else stage_nodes[0]
        )
        deadline = now + tree.total_ex() + self._next_slack()
        return tree, deadline


class GlobalTaskSource:
    """Single Poisson stream of global tasks feeding the process manager.

    Like :class:`LocalTaskSource`, a self-rescheduling event (the source
    is its own heap entry); each arrival is handed to
    :meth:`~repro.system.process_manager.ProcessManager.submit`, which
    records the task's outcome in the metrics.
    """


    __slots__ = (
        "env",
        "process_manager",
        "interarrival",
        "factory",
        "_arrival_stream",
        "generated",
        "_next_interarrival",
        "_build",
        "_submit",
        "_profile",
    )

    def __init__(
        self,
        env: Environment,
        process_manager: ProcessManager,
        interarrival: Distribution,
        factory: GlobalTaskFactory,
        streams: StreamFactory,
        profile: Optional[PiecewiseProfile] = None,
    ) -> None:
        self.env = env
        self.process_manager = process_manager
        self.interarrival = interarrival
        self.factory = factory
        self._arrival_stream = streams.get("global-arrival")
        self.generated = 0
        self._next_interarrival = interarrival.bind(self._arrival_stream)
        self._build = factory.build
        self._submit = process_manager.submit
        self._profile = profile
        gap = self._next_interarrival()
        if profile is not None:
            gap /= profile(env._now)
        _queue_arrival(self, env, gap)

    def callback(self, _event) -> None:
        """Launch one global task, then re-queue for the next arrival
        (its gap scaled by the load profile, as for local sources)."""
        env = self.env
        self.generated += 1
        now = env._now
        tree, deadline = self._build(now)
        self._submit(tree, deadline)
        gap = self._next_interarrival()
        profile = self._profile
        if profile is not None:
            gap /= profile(now)
        _queue_arrival(self, env, gap)
