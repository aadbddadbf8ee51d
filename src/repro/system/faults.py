"""Fault injection: node crashes, recoveries, and the live-node set.

The paper assumes perfectly reliable nodes; in a deployed distributed
soft real-time system the dominant source of missed deadlines is partial
failure.  This module adds a declarative fault dimension:

* :class:`FaultSpec` -- a frozen, JSON-round-trippable description of a
  per-node crash/repair process (MTTF/MTTR drawn from a configurable
  distribution family) plus the crash semantics (is the in-flight unit
  *lost* or *frozen-and-resumed*?  is the ready queue *dropped* or
  *preserved*?) and the process manager's retry/timeout/backoff knobs;
* :class:`LiveSet` -- the O(1) membership structure that failure-aware
  placement policies and the retry layer consult (the injector marks
  the oracle one, a failure detector its observed one);
* :class:`FaultInjector` -- the callback-based driver that crashes and
  recovers nodes on their per-node fault streams.

RNG-stream isolation: each node's time-to-failure and time-to-repair
draws come from dedicated streams (``"fault-ttf/node-i"`` /
``"fault-ttr/node-i"``), and retry routing uses ``"retry-route"`` --
all fresh names, per the README isolation rule.  A config without a
(crash-enabled) ``FaultSpec`` builds no injector, schedules no events,
and creates no streams, so every fault-free run stays bit-identical to
the pre-fault engine; the golden gate pins this.

Correlated outages: ``blast_radius = r`` makes every failure event take
down the failing node together with its ``r - 1`` cyclic successors
(rack/switch-style shared fate).  Each victim repairs on its *own*
repair stream, so the blast changes which nodes go down, never how any
other component draws randomness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Dict, List, Mapping, Sequence

from ..sim.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    Lognormal,
    Pareto,
    Uniform,
)
from .node import shared_states

#: Crash semantics for the unit in service at the crash instant.
IN_FLIGHT_LOST = "lost"
IN_FLIGHT_RESUME = "resume"
_IN_FLIGHT_MODES = (IN_FLIGHT_LOST, IN_FLIGHT_RESUME)

#: Crash semantics for the ready queue at the crash instant.
QUEUED_PRESERVED = "preserved"
QUEUED_DROPPED = "dropped"
_QUEUED_MODES = (QUEUED_PRESERVED, QUEUED_DROPPED)

#: Distribution families for time-to-failure / time-to-repair draws.
#: Every family is parameterized by its *mean* (so availability
#: arithmetic stays straightforward) plus one optional shape knob.
_TIME_MODELS = (
    "exponential", "erlang", "uniform", "deterministic", "pareto",
    "lognormal",
)


def _time_distribution(model: str, mean: float, shape: float) -> Distribution:
    """Build a mean-``mean`` distribution of the given family.

    ``shape`` is the Erlang stage count, the Pareto tail index, or the
    lognormal log-space sigma; the other families ignore it.  "uniform"
    spreads over ``[0, 2 * mean]`` so the mean is preserved.
    """
    if model == "exponential":
        return Exponential(mean)
    if model == "erlang":
        k = int(shape)
        return Erlang(k, mean / k)
    if model == "uniform":
        return Uniform(0.0, 2.0 * mean)
    if model == "deterministic":
        return Deterministic(mean)
    if model == "pareto":
        return Pareto(mean, shape)
    if model == "lognormal":
        return Lognormal(mean, shape)
    raise ValueError(f"unknown time-distribution model {model!r}")


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of the fault dimension of one scenario.

    ``mttf = 0`` (the default) disables crashes entirely: no injector is
    built, no fault streams are created, no events are scheduled -- a
    zero-rate spec is bit-identical to no spec at all (pinned by the
    property tests).  Retries are independent of crashes: a spec with
    ``retry_limit > 0`` wires the process manager's retry layer even at
    ``mttf = 0`` (useful for timeout-driven retries alone).
    """

    #: Mean time to failure per node (simulated time); ``0`` = never.
    mttf: float = 0.0
    #: Mean time to repair.
    mttr: float = 10.0
    #: Distribution family of time-to-failure draws.
    failure_model: str = "exponential"
    #: Distribution family of time-to-repair draws.
    repair_model: str = "exponential"
    #: Shape knob of the failure family (Erlang k / Pareto tail index /
    #: lognormal sigma; ignored by the other families).
    failure_shape: float = 2.0
    #: Shape knob of the repair family.
    repair_shape: float = 2.0
    #: Fate of the unit in service at the crash instant: "lost" (the
    #: unit is discarded, its work wasted) or "resume" (frozen, service
    #: continues from the interruption point at recovery).
    in_flight: str = IN_FLIGHT_LOST
    #: Fate of the ready queue at the crash instant: "preserved" (queued
    #: units wait out the downtime) or "dropped" (discarded).
    queued: str = QUEUED_PRESERVED
    #: Every failure event crashes this many cyclically-consecutive
    #: nodes together (correlated outages); ``1`` = independent crashes.
    blast_radius: int = 1
    #: Maximum resubmissions per global subtask; ``0`` disables the
    #: process manager's retry layer.
    retry_limit: int = 0
    #: Per-attempt completion timeout (simulated time); ``0`` = none --
    #: only crash-lost units trigger retries.
    retry_timeout: float = 0.0
    #: Base backoff delay before the first retry.
    retry_backoff: float = 0.5
    #: Multiplier applied to the backoff per successive retry.
    retry_backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mttf) and self.mttf >= 0):
            raise ValueError(f"mttf must be finite and >= 0, got {self.mttf}")
        if not (math.isfinite(self.mttr) and self.mttr > 0):
            raise ValueError(f"mttr must be finite and positive, got {self.mttr}")
        for label, model, shape in (
            ("failure", self.failure_model, self.failure_shape),
            ("repair", self.repair_model, self.repair_shape),
        ):
            if model not in _TIME_MODELS:
                raise ValueError(
                    f"unknown {label}_model {model!r}; expected one of "
                    f"{_TIME_MODELS}"
                )
            if model == "erlang" and (shape != int(shape) or shape < 1):
                raise ValueError(
                    f"{label}_shape must be a positive integer stage count "
                    f"for erlang, got {shape}"
                )
            if model == "pareto" and shape <= 1.0:
                raise ValueError(
                    f"{label}_shape (Pareto tail index) must exceed 1, got "
                    f"{shape}"
                )
            if model == "lognormal" and shape <= 0.0:
                raise ValueError(
                    f"{label}_shape (lognormal sigma) must be positive, got "
                    f"{shape}"
                )
        if self.in_flight not in _IN_FLIGHT_MODES:
            raise ValueError(
                f"in_flight must be one of {_IN_FLIGHT_MODES}, got "
                f"{self.in_flight!r}"
            )
        if self.queued not in _QUEUED_MODES:
            raise ValueError(
                f"queued must be one of {_QUEUED_MODES}, got {self.queued!r}"
            )
        if self.blast_radius < 1:
            raise ValueError(
                f"blast_radius must be >= 1, got {self.blast_radius}"
            )
        if self.retry_limit < 0:
            raise ValueError(
                f"retry_limit must be >= 0, got {self.retry_limit}"
            )
        if not (math.isfinite(self.retry_timeout) and self.retry_timeout >= 0):
            raise ValueError(
                f"retry_timeout must be finite and >= 0, got "
                f"{self.retry_timeout}"
            )
        if not (math.isfinite(self.retry_backoff) and self.retry_backoff >= 0):
            raise ValueError(
                f"retry_backoff must be finite and >= 0, got "
                f"{self.retry_backoff}"
            )
        if not (
            math.isfinite(self.retry_backoff_factor)
            and self.retry_backoff_factor >= 1.0
        ):
            raise ValueError(
                f"retry_backoff_factor must be finite and >= 1, got "
                f"{self.retry_backoff_factor}"
            )
        if self.mttf > 0:
            # Probe both distributions so a bad (model, mean, shape)
            # combination fails at spec definition time.
            _time_distribution(self.failure_model, self.mttf, self.failure_shape)
            _time_distribution(self.repair_model, self.mttr, self.repair_shape)

    # -- derived -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when crashes actually happen (``mttf > 0``)."""
        return self.mttf > 0

    @property
    def retries_enabled(self) -> bool:
        """True when the process manager's retry layer should be wired."""
        return self.retry_limit > 0

    @property
    def availability(self) -> float:
        """Stationary per-node availability ``mttf / (mttf + mttr)``.

        ``1.0`` when crashes are disabled.  With ``blast_radius > 1``
        this is a lower-bound approximation (blast victims restart their
        failure clock at recovery).
        """
        if not self.enabled:
            return 1.0
        return self.mttf / (self.mttf + self.mttr)

    def failure_distribution(self) -> Distribution:
        return _time_distribution(self.failure_model, self.mttf, self.failure_shape)

    def repair_distribution(self) -> Distribution:
        return _time_distribution(self.repair_model, self.mttr, self.repair_shape)

    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.retry_backoff * self.retry_backoff_factor ** (attempt - 1)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serializable; all fields are scalars)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown FaultSpec fields: {sorted(unknown)}"
            )
        return cls(**data)

    def describe(self) -> str:
        """Compact summary for scenario listings."""
        parts = [f"mttf={self.mttf:g}", f"mttr={self.mttr:g}"]
        if self.in_flight != IN_FLIGHT_LOST:
            parts.append(self.in_flight)
        if self.queued != QUEUED_PRESERVED:
            parts.append(f"queue-{self.queued}")
        if self.blast_radius > 1:
            parts.append(f"blast={self.blast_radius}")
        if self.retries_enabled:
            parts.append(f"retry={self.retry_limit}")
        return "faults(" + ", ".join(parts) + ")"


class LiveSet:
    """O(1) membership view of which nodes are currently up.

    The :class:`FaultInjector` marks the *oracle* set on true crashes and
    recoveries; a :class:`~repro.system.detector.FailureDetector` marks
    its own *observed* set on heartbeat evidence, where membership means
    *trusted* and can lag or contradict ground truth.  Either is
    consulted by the failure-aware placement policies (``index in
    live_set``) and the retry layer (``live_count`` / ``live_indices``).
    All-up at construction.
    """

    __slots__ = ("_up", "live_count", "node_count", "version")

    def __init__(self, node_count: int) -> None:
        self._up: List[bool] = [True] * node_count
        self.live_count = node_count
        self.node_count = node_count
        #: Bumped on every actual up/down flip; cheap change detection
        #: for caches built over the live membership (e.g. the Zipf
        #: alias table rebuilds only when this moves).
        self.version = 0

    def __contains__(self, index: int) -> bool:
        return self._up[index]

    def mark_down(self, index: int) -> None:
        if self._up[index]:
            self._up[index] = False
            self.live_count -= 1
            self.version += 1

    def mark_up(self, index: int) -> None:
        if not self._up[index]:
            self._up[index] = True
            self.live_count += 1
            self.version += 1

    def live_indices(self) -> List[int]:
        """Indices of the nodes currently up, ascending."""
        return [i for i, up in enumerate(self._up) if up]

    def __repr__(self) -> str:
        return f"<LiveSet {self.live_count}/{self.node_count} up>"


class FaultInjector:
    """Crashes and recovers nodes per a :class:`FaultSpec`.

    Pure callback machine on the kernel's pooled timers: each node runs
    an independent alternating renewal process (up for a time-to-failure
    draw, down for a time-to-repair draw), with one pending timer at a
    time -- a failure timer while the node is up, a repair timer while
    it is down.  The injector owns the :class:`LiveSet` transitions and
    the crash/recovery counters; the nodes own their local consequences
    (:meth:`~repro.system.node.Node.crash` /
    :meth:`~repro.system.node.Node.recover`).

    The injector keeps no timer: a timer's callback names the injector
    and the node, and a blast victim's pending failure timer is made moot
    by bumping the node's failure token, so it pops at its expiry as a
    no-op (the victim re-enters the cycle through its own repair draw).
    Once the run releases its event list, nothing points back at it.
    """

    def __init__(
        self,
        env,
        nodes: Sequence,
        spec: FaultSpec,
        streams,
        metrics,
        live_set: LiveSet,
    ) -> None:
        if not spec.enabled:
            raise ValueError(
                "FaultInjector requires a crash-enabled spec (mttf > 0)"
            )
        self.env = env
        self.nodes = nodes
        self.spec = spec
        self.metrics = metrics
        self.live = live_set
        #: Optional :class:`~repro.system.detector.FailureDetector`
        #: notified of true crash/recovery instants (accounting only:
        #: detection latency and false-positive/negative attribution).
        #: The simulation wires it when a detector is configured.
        self.detector = None
        #: Lifetime crash/recovery event counts (diagnostics; the
        #: measured-window counters live in the metrics collector).
        self.crashes = 0
        self.recoveries = 0
        failure = spec.failure_distribution()
        repair = spec.repair_distribution()
        #: Each node's bound time-to-failure / time-to-repair draws.
        self._next_ttf = [
            failure.bind(streams.get(f"fault-ttf/node-{i}"))
            for i in range(len(nodes))
        ]
        self._next_ttr = [
            repair.bind(streams.get(f"fault-ttr/node-{i}"))
            for i in range(len(nodes))
        ]
        #: Per-node failure token: a failure timer armed with an older
        #: token is moot and fires as a no-op.
        self._fail_token = [0] * len(nodes)
        lose = spec.in_flight == IN_FLIGHT_LOST
        drop = spec.queued == QUEUED_DROPPED
        for shared in shared_states(nodes):
            shared.lose_in_flight = lose
            shared.drop_queued = drop

    def start(self) -> None:
        """Arm every node's first failure timer."""
        for index in range(len(self.nodes)):
            self._arm_failure(index)

    def _arm_failure(self, index: int) -> None:
        self.env._sleep(
            self._next_ttf[index](),
            partial(_on_failure, self, index, self._fail_token[index]),
        )

    def _fail(self, origin: int) -> None:
        """Failure event at ``origin``: crash it plus its blast cohort."""
        live = self.live
        metrics = self.metrics
        env = self.env
        now = env._now
        count = len(self.nodes)
        radius = min(self.spec.blast_radius, count)
        detector = self.detector
        for offset in range(radius):
            index = (origin + offset) % count
            if index not in live:
                continue  # already down; its repair timer is pending
            if index != origin:
                # A blast victim's own failure timer is moot now.
                self._fail_token[index] += 1
            live.mark_down(index)
            self.crashes += 1
            metrics.node_crashes[index] += 1
            node = self.nodes[index]
            node.set_down_signal(1.0, now)
            node.crash()
            if detector is not None:
                detector.on_node_crash(index, now)
            env._sleep(
                self._next_ttr[index](), partial(_on_repair, self, index)
            )

    def _recover(self, index: int) -> None:
        live = self.live
        now = self.env._now
        live.mark_up(index)
        self.recoveries += 1
        node = self.nodes[index]
        node.set_down_signal(0.0, now)
        node.recover()
        if self.detector is not None:
            self.detector.on_node_recover(index, now)
        self._arm_failure(index)

    def __repr__(self) -> str:
        return (
            f"<FaultInjector {self.live.live_count}/{self.live.node_count} up "
            f"crashes={self.crashes}>"
        )


def _on_failure(
    injector: FaultInjector, index: int, token: int, _event
) -> None:
    """A node's failure timer fired: crash it unless the timer is moot."""
    if token == injector._fail_token[index]:
        injector._fail(index)


def _on_repair(injector: FaultInjector, index: int, _event) -> None:
    """A node's repair timer fired: bring it back up."""
    injector._recover(index)
