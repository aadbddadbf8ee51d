"""Workload generation (Sec. 4.1 / 5.2 simulation models).

Two task populations:

* **Local tasks** arrive at each node as a Poisson process with rate
  ``lambda_local``; execution times are exponential with mean
  ``1/mu_local``; slack is uniform on ``[Smin, Smax]``; the deadline is
  ``ar + ex + slack``.
* **Global tasks** arrive as a single Poisson stream with rate
  ``lambda_global``.  One factory, :class:`StageFactory`, builds every
  shape the experiments use as serial stages of parallel leaves: a
  serial chain (Sec. 4) is stages of one leaf, a parallel fan (Sec. 5)
  is one stage, and a serial-parallel tree (Sec. 6) is several fans.
  Subtask execution times are exponential with mean ``1/mu_subtask``;
  the placement policy picks execution nodes (uniformly at random in
  the paper: with replacement along a chain, distinct nodes within a
  fan, per Sec. 5.2).

The deadline of a global task is ``dl = ar + sum over stages of the
stage's longest ex + slack``.  For a serial chain that is ``ar + sum_i
ex(Ti) + slack``, with the local slack distribution scaled so that
``rel_flex`` holds (see :class:`~repro.system.config.SystemConfig`); for a
parallel fan it is the paper's eq. (2), ``ar + max_i ex(Ti) + slack``,
with the paper's explicit ``[1.25, 5.0]`` baseline range; for a tree it
is the critical path plus slack -- the natural generalization (the
critical path is what a perfectly idle system would need).

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
_NEG_INF = float("-inf")
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

    def build(self, now: float) -> Tuple[TaskNode, float]:
        """Return ``(tree, deadline)`` for a task arriving at ``now``."""
        raise NotImplementedError


class StageFactory(GlobalTaskFactory):
    """Global tasks of ``stages`` serial stages, ``width`` leaves each.

    The paper's three shapes are one stage loop:

    * serial chain ``[T1 T2 ... Tm]`` (Sec. 4.1): ``stages`` is the
      count distribution (the baseline's fixed ``m``, or the Sec. 4.3
      random count) and ``width=None``: each stage is one leaf, its node
      picked with replacement (``pick_one``), so consecutive stages may
      share a node, as in the paper;
    * parallel fan ``[T1 || ... || Tm]`` (Sec. 5.2): one stage of
      ``width = m`` leaves at distinct nodes (``pick_distinct``);
    * serial-parallel tree (Sec. 6): ``stages`` fans of ``width``.

    A fan stage picks with ``pick_distinct`` even at width 1: under a
    live set it draws differently from ``pick_one``.  A stage of one
    leaf is the leaf itself, and a one-stage task is its stage.  The
    deadline is ``now + sum over stages of the stage's longest ex +
    slack``: the chain's sum, the fan's maximum (paper eq. (2)) and the
    tree's critical path.
    """

    def __init__(
        self,
        node_count: int,
        stages: Distribution,
        width: Optional[int],
        execution: Distribution,
        slack: Distribution,
        streams: StreamFactory,
        estimator: Optional[Estimator] = None,
        placement: Optional[PlacementPolicy] = None,
    ) -> None:
        if node_count < 1:
            raise ValueError(f"need at least one node, got {node_count}")
        if width is not None and not 1 <= width <= node_count:
            raise ValueError(
                f"stage width {width} must lie in [1, {node_count}]: the "
                "paper places parallel subtasks at distinct nodes"
            )
        self._width = width
        # A fixed count draws nothing, so its stream is never made.
        self._next_stages = stages.bind(
            None if isinstance(stages, Deterministic)
            else streams.get("global-count")
        )
        self._next_execution = execution.bind(streams.get("global-execution"))
        self._next_slack = slack.bind(streams.get("global-slack"))
        placement = placement or UniformPlacement(node_count, streams)
        self._pick_one = placement.pick_one
        self._pick_distinct = placement.pick_distinct
        self._predict, self._estimate_stream = _estimation(
            estimator or PerfectEstimator(), streams, "global-estimate"
        )

    def build(self, now: float) -> Tuple[TaskNode, float]:
        count = int(self._next_stages())
        if count < 1:
            raise ValueError(f"stage count must be >= 1, got {count}")
        width = self._width
        next_execution = self._next_execution
        predict = self._predict
        leaves: List[TaskNode] = []
        longest: List[float] = []
        for _ in range(count):
            top = _NEG_INF
            for node_index in (
                (self._pick_one(),) if width is None
                else self._pick_distinct(width)
            ):
                ex = next_execution()
                if ex > top:
                    top = ex
                leaves.append(SimpleTask(
                    ex=ex,
                    pex=(
                        ex if predict is None
                        else predict(ex, self._estimate_stream)
                    ),
                    node_index=node_index,
                ))
            longest.append(top)
        # Group the leaves, built stage by stage, into their stages; a
        # stage of one leaf is the leaf itself.
        stages = leaves if width is None or width == 1 else [
            ParallelTask(leaves[i:i + width])
            for i in range(0, len(leaves), width)
        ]
        tree: TaskNode = SerialTask(stages) if count > 1 else stages[0]
        return tree, now + sum(longest) + self._next_slack()


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
