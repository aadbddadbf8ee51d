"""Missed-deadline and queueing metrics (the paper's measurements).

The paper's primary performance measure is the *percentage of missed
deadlines* ("miss ratio"), conditioned on task class: ``MD_local`` and
``MD_global``.  This module collects those plus the supporting statistics a
practitioner wants when debugging a run: response times, lateness, waiting
times, per-node utilization and queue lengths.

Warm-up: experiments call :meth:`MetricsCollector.reset` at the end of the
transient phase; only completions recorded after the reset count.  (Tasks
that *arrived* before the reset but finish after it still count -- standard
practice for steady-state miss-ratio estimation, and the bias vanishes as
the window grows.)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from ..core.task import TaskClass
from ..sim.monitor import DecayedMean, DecayedRate, MeanTally
from ..sim.sketch import QuantileSketch
from .fleet import FleetState, SignalViews
from .work import WorkUnit

#: The singleton ``nan`` used for "no observations" fields.  One shared
#: object matters: dataclass equality compares fields element-wise with
#: the identity shortcut, so two empty snapshots compare equal exactly
#: when both carry *this* object (as :class:`MeanTally`/``QuantileSketch``
#: guarantee by returning ``math.nan`` itself).
_NAN = math.nan

#: Above this node count, per-node detail is dropped from emitted
#: reports (``RunResult.to_dict(aggregate_nodes=True)``) and from the
#: windowed per-node signals: a 100k-node interval record would
#: otherwise serialize 100k dicts per emission.  In-process snapshots
#: always keep full per-node stats; only serialized/streamed forms and
#: the windowed per-node detail are bounded.
PER_NODE_DETAIL_THRESHOLD = 256


@dataclass(frozen=True)
class ClassStats:
    """Immutable snapshot of one task class's outcome statistics."""

    completed: int
    missed: int
    aborted: int
    mean_response: float
    mean_lateness: float
    mean_waiting: float
    #: Tasks whose retry budget was exhausted after crash losses (the
    #: ``"failed"`` :class:`GlobalTaskOutcome` disposition).  A subset of
    #: ``aborted`` -- failed tasks are counted in both.
    failed: int = 0
    #: Streaming percentile estimates of response time and lateness,
    #: from O(1)-memory P² sketches (:mod:`repro.sim.sketch`): exact for
    #: up to five completions, Jain/Chlamtac marker estimates beyond.
    #: ``nan`` when nothing completed.
    p50_response: float = _NAN
    p95_response: float = _NAN
    p99_response: float = _NAN
    p50_lateness: float = _NAN
    p95_lateness: float = _NAN
    p99_lateness: float = _NAN

    @property
    def miss_ratio(self) -> float:
        """Fraction of finished tasks that missed their deadline.

        Aborted tasks count as missed (they certainly did not finish in
        time).  Returns ``nan`` when nothing finished.
        """
        total = self.completed + self.aborted
        if total == 0:
            return float("nan")
        return self.missed / total

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClassStats":
        """Inverse of :meth:`to_dict`, tolerant of older records.

        Fields added after a journal was written default (counters to 0,
        percentiles to ``nan``), and unknown keys are ignored -- so sweep
        journals from any prior release stay loadable.
        """
        return cls(
            completed=data["completed"],
            missed=data["missed"],
            aborted=data["aborted"],
            mean_response=data["mean_response"],
            mean_lateness=data["mean_lateness"],
            mean_waiting=data["mean_waiting"],
            failed=data.get("failed", 0),
            p50_response=data.get("p50_response", _NAN),
            p95_response=data.get("p95_response", _NAN),
            p99_response=data.get("p99_response", _NAN),
            p50_lateness=data.get("p50_lateness", _NAN),
            p95_lateness=data.get("p95_lateness", _NAN),
            p99_lateness=data.get("p99_lateness", _NAN),
        )


@dataclass(frozen=True, slots=True)
class NodeStats:
    """Immutable snapshot of one node's load statistics."""

    index: int
    utilization: float
    mean_queue_length: float
    dispatched: int
    #: Preemption events at this node within the measured window (always
    #: 0 for non-preemptive nodes).  Unlike the node object's lifetime
    #: ``preemptions`` diagnostic, this counter restarts at the warm-up
    #: reset, so sweeps can rank scenarios/strategies by preemption rate.
    preemptions: int = 0
    #: Crash events at this node within the measured window.
    crashes: int = 0
    #: Work units discarded by crashes at this node (in-flight units under
    #: ``in_flight="lost"`` plus queued units under ``queued="dropped"``).
    lost: int = 0
    #: Fraction of the measured window this node spent down (time-weighted
    #: mean of the 0/1 down signal; 0.0 in fault-free runs).
    downtime: float = 0.0
    #: Times the failure detector marked this node suspected within the
    #: measured window (0 unless a :class:`DetectorSpec` is enabled).
    suspicions: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NodeStats":
        """Inverse of :meth:`to_dict`, tolerant of older records (fields
        added later default; unknown keys are ignored)."""
        return cls(
            index=data["index"],
            utilization=data["utilization"],
            mean_queue_length=data["mean_queue_length"],
            dispatched=data["dispatched"],
            preemptions=data.get("preemptions", 0),
            crashes=data.get("crashes", 0),
            lost=data.get("lost", 0),
            downtime=data.get("downtime", 0.0),
            suspicions=data.get("suspicions", 0),
        )


@dataclass(frozen=True)
class RunResult:
    """Everything measured in one simulation run."""

    sim_time: float
    warmup: float
    per_class: Dict[str, ClassStats]
    per_node: List[NodeStats]
    #: Leaf resubmissions by the process manager's retry layer within the
    #: measured window (0 unless a retry-enabled :class:`FaultSpec` is set).
    retries: int = 0
    #: Submits that reached a truly-crashed node and bounced through the
    #: process manager's misroute path (0 unless a detector is enabled).
    misroutes: int = 0
    #: Detector suspicions of nodes that were actually up (false
    #: positives of the failure detector).
    false_suspicions: int = 0
    #: True down intervals that ended without ever being suspected
    #: (false negatives of the failure detector, counted at recovery).
    missed_detections: int = 0
    #: True crashes the detector suspected while the node was down.
    detections: int = 0
    #: Mean time from a true crash to its suspicion (``nan`` when no
    #: detection carried a latency sample).
    detection_latency: float = _NAN
    #: Aggregated node statistics, present on results loaded from records
    #: written with ``to_dict(aggregate_nodes=True)`` (fleet-size runs
    #: drop per-node detail from serialized forms).  ``None`` on results
    #: snapshotted in-process, which keep full :attr:`per_node` detail.
    node_summary: Optional[Dict[str, Any]] = None

    @property
    def local(self) -> ClassStats:
        return self.per_class[TaskClass.LOCAL.value]

    @property
    def global_(self) -> ClassStats:
        return self.per_class[TaskClass.GLOBAL.value]

    @property
    def md_local(self) -> float:
        """``MD_local``: miss ratio of local tasks."""
        return self.local.miss_ratio

    @property
    def md_global(self) -> float:
        """``MD_global``: miss ratio of global tasks (end-to-end)."""
        return self.global_.miss_ratio

    @property
    def mean_utilization(self) -> float:
        """Average *wall-clock* utilization across nodes.

        The denominator is the full measured window, downtime included:
        a node that is down delivers no service, so its lost capacity
        *should* depress this number -- that keeps the classic sanity
        check against the offered ``load`` meaningful (a fault-free run
        at load 0.8 and a faulty run at load 0.8 with 10% downtime
        genuinely differ in delivered work).  For the complementary
        availability-adjusted view (busy time over *uptime*), see
        :attr:`mean_active_utilization`.
        """
        if not self.per_node:
            if self.node_summary:
                return self.node_summary.get("utilization_mean", float("nan"))
            return float("nan")
        return sum(n.utilization for n in self.per_node) / len(self.per_node)

    @property
    def mean_active_utilization(self) -> float:
        """Average utilization over each node's *uptime* (availability-
        adjusted): how hard the node worked while it was alive.  A node
        down for the whole window contributes 0.0.  Equals
        :attr:`mean_utilization` in fault-free runs.
        """
        if not self.per_node:
            if self.node_summary:
                return self.node_summary.get(
                    "active_utilization_mean", float("nan")
                )
            return float("nan")
        total = 0.0
        for n in self.per_node:
            uptime = 1.0 - n.downtime
            total += n.utilization / uptime if uptime > 0.0 else 0.0
        return total / len(self.per_node)

    @property
    def mean_availability(self) -> float:
        """Average fraction of the window nodes were up (1.0 fault-free)."""
        if not self.per_node:
            if self.node_summary:
                return 1.0 - self.node_summary.get("downtime_mean", 0.0)
            return float("nan")
        return 1.0 - sum(n.downtime for n in self.per_node) / len(self.per_node)

    @property
    def total_preemptions(self) -> int:
        """Preemption events across all nodes in the measured window."""
        if not self.per_node and self.node_summary:
            return self.node_summary.get("preemptions", 0)
        return sum(n.preemptions for n in self.per_node)

    @property
    def total_crashes(self) -> int:
        """Crash events across all nodes in the measured window."""
        if not self.per_node and self.node_summary:
            return self.node_summary.get("crashes", 0)
        return sum(n.crashes for n in self.per_node)

    @property
    def total_lost(self) -> int:
        """Crash-discarded work units across all nodes in the window."""
        if not self.per_node and self.node_summary:
            return self.node_summary.get("lost", 0)
        return sum(n.lost for n in self.per_node)

    @property
    def total_suspicions(self) -> int:
        """Detector suspicion events across all nodes in the window."""
        if not self.per_node and self.node_summary:
            return self.node_summary.get("suspicions", 0)
        return sum(n.suspicions for n in self.per_node)

    @staticmethod
    def _summarize_nodes(per_node: List[NodeStats]) -> Dict[str, Any]:
        """Fold per-node detail into the bounded aggregate record."""
        count = len(per_node)
        if count == 0:
            return {"count": 0}
        util_sum = 0.0
        util_min = math.inf
        util_max = -math.inf
        active_sum = 0.0
        queue_sum = 0.0
        downtime_sum = 0.0
        dispatched = preemptions = crashes = lost = suspicions = 0
        for n in per_node:
            util = n.utilization
            util_sum += util
            if util < util_min:
                util_min = util
            if util > util_max:
                util_max = util
            uptime = 1.0 - n.downtime
            active_sum += util / uptime if uptime > 0.0 else 0.0
            queue_sum += n.mean_queue_length
            downtime_sum += n.downtime
            dispatched += n.dispatched
            preemptions += n.preemptions
            crashes += n.crashes
            lost += n.lost
            suspicions += n.suspicions
        return {
            "count": count,
            "utilization_mean": util_sum / count,
            "utilization_min": util_min,
            "utilization_max": util_max,
            "active_utilization_mean": active_sum / count,
            "queue_length_mean": queue_sum / count,
            "downtime_mean": downtime_sum / count,
            "dispatched": dispatched,
            "preemptions": preemptions,
            "crashes": crashes,
            "lost": lost,
            "suspicions": suspicions,
        }

    def to_dict(self, aggregate_nodes: bool = False) -> Dict[str, Any]:
        """JSON-serializable form; exact inverse of :meth:`from_dict`.

        Floats survive a ``json.dumps``/``loads`` round-trip bit for bit
        (``repr`` round-trips doubles, and ``nan`` is emitted as the
        ``NaN`` literal), so a journaled result equals the original.

        ``aggregate_nodes=True`` is the fleet-size form: per-node detail
        is replaced by one bounded ``node_summary`` dict (means/extrema
        of utilization, total dispatch/crash/loss counts), so a 100k-node
        record serializes in O(1) instead of O(n).  The default emits the
        exact historical record, byte for byte.
        """
        per_node: List[Dict[str, Any]] = (
            [] if aggregate_nodes
            else [stats.to_dict() for stats in self.per_node]
        )
        data = {
            "sim_time": self.sim_time,
            "warmup": self.warmup,
            "per_class": {
                name: stats.to_dict()
                for name, stats in self.per_class.items()
            },
            "per_node": per_node,
            "retries": self.retries,
            "misroutes": self.misroutes,
            "false_suspicions": self.false_suspicions,
            "missed_detections": self.missed_detections,
            "detections": self.detections,
            "detection_latency": self.detection_latency,
        }
        summary = self.node_summary
        if aggregate_nodes and summary is None:
            summary = self._summarize_nodes(self.per_node)
        if summary is not None:
            data["node_summary"] = summary
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`, tolerant of records written before
        a field existed (``retries`` landed after the first journals)."""
        return cls(
            sim_time=data["sim_time"],
            warmup=data["warmup"],
            per_class={
                name: ClassStats.from_dict(stats)
                for name, stats in data["per_class"].items()
            },
            per_node=[
                NodeStats.from_dict(stats) for stats in data["per_node"]
            ],
            retries=data.get("retries", 0),
            misroutes=data.get("misroutes", 0),
            false_suspicions=data.get("false_suspicions", 0),
            missed_detections=data.get("missed_detections", 0),
            detections=data.get("detections", 0),
            detection_latency=data.get("detection_latency", _NAN),
            node_summary=data.get("node_summary"),
        )


class _ClassAccumulator:
    """Mutable per-class counters behind :class:`ClassStats`."""

    __slots__ = (
        "completed",
        "missed",
        "aborted",
        "failed",
        "response",
        "lateness",
        "waiting",
        "response_sketch",
        "lateness_sketch",
    )

    def __init__(self, label: str) -> None:
        self.completed = 0
        self.missed = 0
        self.aborted = 0
        self.failed = 0
        self.response = MeanTally(f"{label}/response")
        self.lateness = MeanTally(f"{label}/lateness")
        self.waiting = MeanTally(f"{label}/waiting")
        # O(1)-memory streaming percentiles (p50/p95/p99), updated inline
        # on the completion hot path next to the mean tallies.
        self.response_sketch = QuantileSketch(name=f"{label}/response")
        self.lateness_sketch = QuantileSketch(name=f"{label}/lateness")

    def reset(self) -> None:
        self.completed = 0
        self.missed = 0
        self.aborted = 0
        self.failed = 0
        self.response.reset()
        self.lateness.reset()
        self.waiting.reset()
        self.response_sketch.reset()
        self.lateness_sketch.reset()

    def snapshot(self) -> ClassStats:
        response_sketch = self.response_sketch
        lateness_sketch = self.lateness_sketch
        return ClassStats(
            completed=self.completed,
            missed=self.missed,
            aborted=self.aborted,
            mean_response=self.response.mean,
            mean_lateness=self.lateness.mean,
            mean_waiting=self.waiting.mean,
            failed=self.failed,
            p50_response=response_sketch.quantile(0.5),
            p95_response=response_sketch.quantile(0.95),
            p99_response=response_sketch.quantile(0.99),
            p50_lateness=lateness_sketch.quantile(0.5),
            p95_lateness=lateness_sketch.quantile(0.95),
            p99_lateness=lateness_sketch.quantile(0.99),
        )


#: Default window for the time-decayed "current" signals, in sim-time
#: units: long enough to smooth over individual completions at baseline
#: load, short enough that a load-profile phase change shows within a
#: few hundred time units.
DEFAULT_WINDOW_TAU = 500.0


class _ClassWindow:
    """Time-decayed "current" signals for one task class."""

    __slots__ = ("miss", "throughput", "response")

    def __init__(self, tau: float, label: str, start_time: float) -> None:
        #: Decayed mean of the 0/1 miss indicator: the *current* miss rate.
        self.miss = DecayedMean(tau, f"{label}/miss-rate", start_time)
        #: Decayed completion rate (tasks per unit sim-time).
        self.throughput = DecayedRate(tau, f"{label}/throughput", start_time)
        #: Decayed mean response time of recent completions.
        self.response = DecayedMean(tau, f"{label}/response", start_time)

    def record(self, missed: float, response: Optional[float], now: float) -> None:
        self.miss.observe(missed, now)
        self.throughput.tick(now)
        if response is not None:
            self.response.observe(response, now)

    def reset(self, now: float) -> None:
        self.miss.reset(now)
        self.throughput.reset(now)
        self.response.reset(now)

    def snapshot(self, now: float) -> Dict[str, float]:
        return {
            "miss_rate": self.miss.value,
            "throughput": self.throughput.rate_at(now),
            "mean_response": self.response.value,
        }


class _NodeWindow:
    """Time-decayed "current" load signals for one node."""

    __slots__ = ("throughput", "queue")

    def __init__(self, tau: float, index: int, start_time: float) -> None:
        #: Decayed unit-completion rate at this node (its current load).
        self.throughput = DecayedRate(tau, f"node-{index}/throughput", start_time)
        #: Decayed mean queue depth, sampled at completion instants.
        self.queue = DecayedMean(tau, f"node-{index}/queue", start_time)

    def reset(self, now: float) -> None:
        self.throughput.reset(now)
        self.queue.reset(now)

    def snapshot(self, now: float) -> Dict[str, float]:
        return {
            "throughput": self.throughput.rate_at(now),
            "queue_depth": self.queue.value,
        }


class WindowedSignals:
    """Exponentially time-decayed *current* load signals, per node and class.

    End-of-run means answer "how did the run go"; these answer "what is
    the system doing *now*" -- the view an in-run strategy switcher
    (ROADMAP item 4) and the incremental metric emitter consume.  Off by
    default (one ``is None`` check per completion, same discipline as the
    tracer); enable with :meth:`MetricsCollector.enable_windows`.

    Updates are pure float arithmetic on already-observed completion
    events: no random draws, no event scheduling -- enabling windows is
    invisible to the golden determinism gate.
    """

    __slots__ = ("tau", "local", "global_", "nodes", "_queue_values")

    def __init__(
        self,
        node_count: int,
        tau: float = DEFAULT_WINDOW_TAU,
        start_time: float = 0.0,
        queue_values: Optional[List[float]] = None,
    ) -> None:
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = tau
        self.local = _ClassWindow(tau, "local", start_time)
        self.global_ = _ClassWindow(tau, "global", start_time)
        #: Per-node decayed signals -- dropped entirely past the fleet
        #: threshold, where 100k ``_NodeWindow`` objects would dominate
        #: collector memory and every interval snapshot.
        self.nodes = (
            [] if node_count > PER_NODE_DETAIL_THRESHOLD
            else [_NodeWindow(tau, i, start_time) for i in range(node_count)]
        )
        #: The collector's live queue-length array (``FleetState.queue_value``),
        #: sampled for the decayed queue-depth estimate (may be None
        #: standalone).
        self._queue_values = queue_values

    def record_unit(self, unit: WorkUnit, now: Optional[float]) -> None:
        """Fold one finished work unit (any class) into the signals."""
        timing = unit.timing
        if timing.aborted:
            # An abort is a certain miss; it has no response time and
            # does not count as node throughput.  Callers on the hot
            # path pass the abort instant; without it there is no
            # timestamp to decay against, so skip.
            if now is not None and unit.task_class is _LOCAL:
                self.local.record(1.0, None, now)
            return
        completed_at = timing.completed_at
        nodes = self.nodes
        if nodes:
            node = nodes[unit.node_index]
            node.throughput.tick(completed_at)
            values = self._queue_values
            if values is not None:
                node.queue.observe(values[unit.node_index], completed_at)
        if unit.task_class is _LOCAL:
            self.local.record(
                1.0 if completed_at > timing.dl else 0.0,
                completed_at - timing.ar,
                completed_at,
            )

    def record_global(
        self, missed: float, response: Optional[float], now: float
    ) -> None:
        """Fold one end-to-end global-task outcome into the signals."""
        self.global_.record(missed, response, now)

    def reset(self, now: float) -> None:
        """Restart every window at ``now`` (warm-up truncation)."""
        self.local.reset(now)
        self.global_.reset(now)
        for node in self.nodes:
            node.reset(now)

    def snapshot(self, now: float) -> Dict[str, Any]:
        """JSON-ready view of every current signal at sim-time ``now``."""
        return {
            "tau": self.tau,
            "per_class": {
                "local": self.local.snapshot(now),
                "global": self.global_.snapshot(now),
            },
            "per_node": [node.snapshot(now) for node in self.nodes],
        }


_LOCAL = TaskClass.LOCAL


class MetricsCollector:
    """Central sink for task outcomes and node load signals."""

    def __init__(self, node_count: int) -> None:
        self._classes: Dict[TaskClass, _ClassAccumulator] = {
            cls: _ClassAccumulator(cls.value) for cls in TaskClass
        }
        # Bound once: accumulators are reset in place, never replaced.
        self._local_acc = self._classes[TaskClass.LOCAL]
        self._global_acc = self._classes[TaskClass.GLOBAL]
        #: Flat array-backed per-node state: one owner for every hot
        #: counter, so a 100k-node collector is 23 list allocations
        #: instead of 300k ``TimeWeighted`` objects.  Node server loops
        #: bind and mutate the raw lists; the ``node_busy`` /
        #: ``node_queue`` / ``node_down`` attributes below are
        #: ``TimeWeighted``-compatible views for the cold paths.
        self.fleet = FleetState(node_count)
        self.node_busy = SignalViews(self.fleet, "busy")
        self.node_queue = SignalViews(self.fleet, "queue")
        #: Per-node event counters -- aliases of the ``FleetState`` lists
        #: (reset happens in place; node server loops hold references).
        self.node_dispatched: List[int] = self.fleet.dispatched
        #: Per-node preemption counts (preemptive nodes increment their
        #: slot inline; reset at warm-up like ``node_dispatched``).
        self.node_preemptions: List[int] = self.fleet.preemptions
        #: Per-node crash counts (incremented by the fault injector).
        self.node_crashes: List[int] = self.fleet.crashes
        #: Per-node crash-discarded unit counts (incremented by the nodes'
        #: ``_discard_lost``).
        self.node_lost: List[int] = self.fleet.lost
        #: Per-node suspicion counts (incremented by the failure detector).
        self.node_suspicions: List[int] = self.fleet.suspicions
        #: Per-node 0/1 down signal (1.0 while crashed); ``reset`` keeps
        #: the current value, so a node down across the warm-up boundary
        #: keeps accruing downtime in the measured window.
        self.node_down = SignalViews(self.fleet, "down")
        #: Leaf resubmissions by the process manager's retry layer.
        self.retries = 0
        #: Misroute bounces by the process manager's detector path.
        self.misroutes = 0
        #: Failure-detector accounting (see :class:`RunResult`): false
        #: positives, false negatives, detections, and the latency sum
        #: behind the mean reported in snapshots.
        self.false_suspicions = 0
        self.missed_detections = 0
        self.detections = 0
        self.detection_latency_sum = 0.0
        self._warmup_end = 0.0
        self._tracer = None
        #: Optional :class:`WindowedSignals` (see :meth:`enable_windows`);
        #: ``None`` keeps the hot path at one pointer comparison, the
        #: same discipline as ``_tracer``.
        self._window: Optional[WindowedSignals] = None

    @property
    def tracer(self):
        """Optional execution tracer (see :mod:`repro.system.tracing`).

        ``None`` (the default) keeps the hot path free of tracing
        overhead: the node loops read the backing ``_tracer`` field and
        guard every trace point with an ``is None`` check, so tracing off
        costs one pointer comparison per trace point.
        """
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer

    def trace(self, time: float, kind: str, unit, node_index: int) -> None:
        """Forward one scheduling event to the tracer, if attached."""
        if self._tracer is not None:
            self._tracer.record(time, kind, unit, node_index)

    @property
    def window(self) -> Optional[WindowedSignals]:
        """The attached :class:`WindowedSignals`, or ``None`` (default)."""
        return self._window

    def enable_windows(
        self, tau: float = DEFAULT_WINDOW_TAU, now: float = 0.0
    ) -> WindowedSignals:
        """Attach (and return) time-decayed load signals starting at ``now``.

        Idempotent for a matching ``tau``; a different ``tau`` replaces
        the window wholesale (fresh state).
        """
        window = self._window
        if window is None or window.tau != tau:
            window = WindowedSignals(
                node_count=self.fleet.node_count,
                tau=tau,
                start_time=now,
                queue_values=self.fleet.queue_value,
            )
            self._window = window
        return window

    # -- recording ---------------------------------------------------------

    def record_unit_completion(
        self, unit: WorkUnit, now: Optional[float] = None
    ) -> None:
        """Record the outcome of a finished *local* work unit.

        Global subtasks are not recorded here: the paper's ``MD_global`` is
        an end-to-end measure, recorded once per global task by
        :meth:`record_global_completion`.  ``now`` (the recording instant)
        only feeds the optional windowed signals; node loops pass it so
        aborted units -- which carry no ``completed_at`` -- still have a
        timestamp to decay against.

        The body inlines the equivalents of ``timing.missed`` /
        ``.response_time`` / ``.lateness`` / ``.waiting_time`` plus the
        three ``MeanTally.observe`` calls (Welford's mean update, same
        arithmetic; ``response``/``lateness`` hoisted left-associatively,
        so the floats are bit-identical).  This runs once per completed
        unit, and the property chain plus the call frames cost more than
        the whole update.  A node only records after stamping
        ``completed_at``, so the property guards cannot fire here.
        """
        window = self._window
        if window is not None:
            window.record_unit(unit, now)
        if unit.task_class is not _LOCAL:
            return
        acc = self._local_acc
        timing = unit.timing
        if timing.aborted:
            acc.aborted += 1
            acc.missed += 1
            return
        acc.completed += 1
        completed_at = timing.completed_at
        deadline = timing.dl
        if completed_at > deadline:
            acc.missed += 1
        arrival = timing.ar
        response = completed_at - arrival
        lateness = completed_at - deadline

        tally = acc.response
        count = tally.count + 1
        tally.count = count
        tally._mean += (response - tally._mean) / count

        tally = acc.lateness
        count = tally.count + 1
        tally.count = count
        tally._mean += (lateness - tally._mean) / count

        acc.response_sketch.observe(response)
        acc.lateness_sketch.observe(lateness)

        started_at = timing.started_at
        if started_at is not None:
            tally = acc.waiting
            count = tally.count + 1
            tally.count = count
            tally._mean += (started_at - arrival - tally._mean) / count

    def record_global_completion(
        self,
        timing_missed: bool,
        aborted: bool,
        response_time: Optional[float] = None,
        lateness: Optional[float] = None,
        failed: bool = False,
        now: Optional[float] = None,
    ) -> None:
        """Record the end-to-end outcome of one global task.

        An aborted task never completed, so it has no response time or
        lateness; callers pass ``None`` (the default) and only the
        aborted/missed counters move.  ``failed`` marks the retry-budget-
        exhausted disposition (a subset of aborted).  ``now`` feeds the
        optional windowed signals only.
        """
        acc = self._global_acc
        window = self._window
        if aborted:
            acc.aborted += 1
            acc.missed += 1
            if failed:
                acc.failed += 1
            if window is not None and now is not None:
                window.record_global(1.0, None, now)
            return
        acc.completed += 1
        if timing_missed:
            acc.missed += 1
        acc.response.observe(response_time)
        acc.lateness.observe(lateness)
        acc.response_sketch.observe(response_time)
        acc.lateness_sketch.observe(lateness)
        if window is not None and now is not None:
            window.record_global(
                1.0 if timing_missed else 0.0, response_time, now
            )

    def count_dispatch(self, node_index: int) -> None:
        """Count one dispatch decision at a node."""
        self.node_dispatched[node_index] += 1

    # -- warm-up and snapshots ----------------------------------------------

    def reset(self, now: float) -> None:
        """Discard the transient phase; statistics restart at ``now``."""
        for acc in self._classes.values():
            acc.reset()
        # Signal resets keep the current value: a node busy -- or down --
        # across the warm-up boundary stays so in the measured window.
        self.fleet.reset_signals(now)
        # In place: node server loops hold references to these lists.
        self.fleet.reset_counters()
        self.retries = 0
        self.misroutes = 0
        self.false_suspicions = 0
        self.missed_detections = 0
        self.detections = 0
        self.detection_latency_sum = 0.0
        self._warmup_end = now
        if self._window is not None:
            self._window.reset(now)

    def snapshot(self, now: float) -> RunResult:
        """Freeze current statistics into a :class:`RunResult`."""
        fleet = self.fleet
        b_value, b_area, b_last, b_start = (
            fleet.busy_value, fleet.busy_area, fleet.busy_last,
            fleet.busy_start,
        )
        q_value, q_area, q_last, q_start = (
            fleet.queue_value, fleet.queue_area, fleet.queue_last,
            fleet.queue_start,
        )
        d_value, d_area, d_last, d_start = (
            fleet.down_value, fleet.down_area, fleet.down_last,
            fleet.down_start,
        )
        per_node = []
        for i in range(fleet.node_count):
            # Inlined ``TimeWeighted.mean_at`` per signal (identical
            # arithmetic; ``_NAN`` is the shared empty-window singleton).
            elapsed = now - b_start[i]
            if elapsed <= 0:
                utilization = _NAN
            else:
                utilization = (
                    b_area[i] + b_value[i] * (now - b_last[i])
                ) / elapsed
            elapsed = now - q_start[i]
            if elapsed <= 0:
                mean_queue = _NAN
            else:
                mean_queue = (
                    q_area[i] + q_value[i] * (now - q_last[i])
                ) / elapsed
            elapsed = now - d_start[i]
            if elapsed <= 0:
                downtime = _NAN
            else:
                downtime = (
                    d_area[i] + d_value[i] * (now - d_last[i])
                ) / elapsed
            per_node.append(NodeStats(
                index=i,
                utilization=utilization,
                mean_queue_length=mean_queue,
                dispatched=fleet.dispatched[i],
                preemptions=fleet.preemptions[i],
                crashes=fleet.crashes[i],
                lost=fleet.lost[i],
                downtime=downtime,
                suspicions=fleet.suspicions[i],
            ))
        per_class = {
            cls.value: acc.snapshot() for cls, acc in self._classes.items()
        }
        detections = self.detections
        return RunResult(
            sim_time=now,
            warmup=self._warmup_end,
            per_class=per_class,
            per_node=per_node,
            retries=self.retries,
            misroutes=self.misroutes,
            false_suspicions=self.false_suspicions,
            missed_detections=self.missed_detections,
            detections=detections,
            detection_latency=(
                self.detection_latency_sum / detections if detections
                else _NAN
            ),
        )
