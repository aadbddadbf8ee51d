"""Failure detection: heartbeats, suspicion, and the observed live view.

The fault layer (:mod:`repro.system.faults`) gives placement and retry an
*oracle* :class:`~repro.system.faults.LiveSet` -- crashes are known
everywhere, instantly and perfectly.  Real distributed soft real-time
systems operate on heartbeats that are delayed, lost, and occasionally
wrong.  This module models that regime:

* :class:`DetectorSpec` -- a frozen, JSON-round-trippable description of
  the heartbeat channel (period, per-link delay distribution, loss
  probability) plus the detector algorithm ("timeout" or "phi") and the
  misroute-recovery knobs;
* :class:`FailureDetector` -- the callback machine that emits each
  node's heartbeats over its modeled channel and turns missing
  heartbeats into suspicion (and resumed heartbeats back into trust).
  It marks its own :class:`~repro.system.faults.LiveSet`, the
  manager's *observed* liveness view: there membership means
  *trusted*, not *up*, and failure-aware placement and the retry
  router consume it as they would the oracle set.

Detector algorithms
-------------------

Both detectors keep a suspicion *deadline* per node: a delivered
heartbeat marks the node trusted and moves its deadline; reaching the
deadline marks it suspected.

* ``"timeout"`` suspects a node ``timeout`` after its last heartbeat.
* ``"phi"`` is the phi-accrual detector: with an exponential tail over
  the recent inter-arrival window, ``phi(t) = t / (mean * ln 10)``,
  so the suspicion threshold ``phi >= phi_threshold`` inverts to an
  expiry delay of ``phi_threshold * ln(10) * mean`` -- event-driven,
  no polling.  Until ``window`` samples accumulate the prior mean
  ``heartbeat_interval + delay_mean`` is used.

Kernel events
-------------

Heartbeats cost about one kernel event per period, not three per node:

* **One emission tick.**  A single timer fires every
  ``heartbeat_interval`` (re-armed from the tick, so it lands on the
  same instants the per-node emitters did); in it every truly-up node
  emits, in index order.  Each node's loss and delay draws keep their
  order, since nothing else draws from those streams.
* **One lazily re-armed timer per trusted node.**  A delivery moves the
  deadline and leaves the pending timer alone; a timer that fires
  before the deadline re-arms itself at it
  (:meth:`~repro.sim._engine.Environment._sleep_at`).  The deadline
  carries the kernel sequence number drawn when it was set, so the
  re-armed timer takes the FIFO place among same-instant events that a
  timer armed at the delivery would have had.  That place matters with
  instant links: there every deadline lies on the emission grid and
  nodes heard in one tick share a deadline, so same-instant expiries
  and emissions keep their order.  Only a shrinking phi window can pull
  the deadline before the pending timer; that timer then goes stale
  and a new one is armed.
* **In-flight heartbeats as data.**  Under ``"timeout"``, a heartbeat
  on its way to a trusted node is kept as its arrival time and folded
  in when the timer fires: such a delivery can only push the deadline
  later, so the timer fires at the same instant either way.  A
  delivery stays a kernel event when it can change what the run
  observes before the next check: the node is suspected (the delivery
  rehabilitates it; heartbeats still in flight at a suspicion become
  events then), or the phi expiry depends on it.  A deterministic
  channel delay also keeps its deliveries as events: it puts several
  nodes' deadlines on one instant, where only the delivery event's
  sequence number orders them.

The one place the heartbeats-as-data path could order things
differently from one event per message is an exact tie between a
continuously distributed arrival or deadline and another event, which
has probability zero; every run suspects and rehabilitates the same
nodes at the same instants as with one timer per node and message.
The golden gate pins detector runs, tie-prone channels included.  The
channels hold neither the detector nor their pending timers, so a
dropped detector is freed by reference counting.

Observed vs. true state: suspicion is a *belief*.  A suspected node that
is actually up keeps executing whatever it already holds (it is merely
drained of new placements until a heartbeat rehabilitates it), and a
crashed node that is not yet suspected still attracts submits -- the
process manager's misroute path bounces those after ``misroute_delay``
with at most ``max_redirects`` re-routes.

RNG-stream isolation: heartbeat delay and loss draws come from dedicated
per-node streams (``"hb-delay/node-i"`` / ``"hb-loss/node-i"``) and
misroute re-routing from ``"detector-route"`` -- all fresh names, per
the README isolation rule.  A config without an (enabled)
``DetectorSpec`` builds no detector, schedules no events, and creates no
streams, so oracle-mode runs stay bit-identical to the pre-detector
engine; the golden gate pins this.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence

from ..sim.distributions import Distribution
from .faults import _TIME_MODELS, LiveSet, _time_distribution

#: Detector algorithm selectors.
DETECTOR_KINDS = ("timeout", "phi")

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class DetectorSpec:
    """Declarative description of the failure-detection dimension.

    ``heartbeat_interval = 0`` (the default) disables detection
    entirely: no detector is built, no heartbeat streams are created, no
    events are scheduled -- a disabled spec is bit-identical to no spec
    at all (pinned by the golden gate).  When enabled, the manager-side
    components (placement, retry routing, misroute recovery) consult the
    detector's observed live set instead of the oracle one.
    """

    #: Detector algorithm: "timeout" (fixed) or "phi" (phi-accrual).
    kind: str = "timeout"
    #: Heartbeat period per node (simulated time); ``0`` = disabled.
    heartbeat_interval: float = 0.0
    #: Fixed-timeout detector: suspect after this long without a
    #: heartbeat (measured from the last delivery).
    timeout: float = 15.0
    #: Phi-accrual detector: suspect when ``phi`` crosses this value.
    phi_threshold: float = 8.0
    #: Phi-accrual detector: inter-arrival sample window per node.
    window: int = 32
    #: Distribution family of per-heartbeat channel delays (same
    #: families as the fault-model time draws).
    delay_model: str = "exponential"
    #: Mean channel delay per heartbeat; ``0`` = instantaneous links
    #: (no delay stream is created or drawn from).
    delay_mean: float = 0.0
    #: Shape knob of the delay family (Erlang k / Pareto tail index /
    #: lognormal sigma; ignored by the other families).
    delay_shape: float = 2.0
    #: Probability an emitted heartbeat is dropped by its link.
    loss_probability: float = 0.0
    #: How long a submit sits at a crashed node before the manager
    #: notices the bounce and re-routes (detection/timeout delay of the
    #: misroute path).
    misroute_delay: float = 1.0
    #: Maximum bounce re-routes per leaf; once exhausted the submit
    #: stays queued at its (dead) target until recovery.
    max_redirects: int = 3

    def __post_init__(self) -> None:
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(
                f"unknown detector kind {self.kind!r}; expected one of "
                f"{DETECTOR_KINDS}"
            )
        if not (
            math.isfinite(self.heartbeat_interval)
            and self.heartbeat_interval >= 0
        ):
            raise ValueError(
                f"heartbeat_interval must be finite and >= 0, got "
                f"{self.heartbeat_interval}"
            )
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(
                f"timeout must be finite and positive, got {self.timeout}"
            )
        if not (math.isfinite(self.phi_threshold) and self.phi_threshold > 0):
            raise ValueError(
                f"phi_threshold must be finite and positive, got "
                f"{self.phi_threshold}"
            )
        if not isinstance(self.window, int) or self.window < 1:
            raise ValueError(
                f"window must be an int >= 1, got {self.window!r}"
            )
        if self.delay_model not in _TIME_MODELS:
            raise ValueError(
                f"unknown delay_model {self.delay_model!r}; expected one "
                f"of {_TIME_MODELS}"
            )
        if not (math.isfinite(self.delay_mean) and self.delay_mean >= 0):
            raise ValueError(
                f"delay_mean must be finite and >= 0, got {self.delay_mean}"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must lie in [0, 1), got "
                f"{self.loss_probability}"
            )
        if not (math.isfinite(self.misroute_delay) and self.misroute_delay >= 0):
            raise ValueError(
                f"misroute_delay must be finite and >= 0, got "
                f"{self.misroute_delay}"
            )
        if not isinstance(self.max_redirects, int) or self.max_redirects < 0:
            raise ValueError(
                f"max_redirects must be an int >= 0, got "
                f"{self.max_redirects!r}"
            )
        if self.delay_mean > 0:
            # Probe the distribution so a bad (model, mean, shape)
            # combination fails at spec definition time.
            _time_distribution(self.delay_model, self.delay_mean, self.delay_shape)

    # -- derived -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when detection actually runs (``heartbeat_interval > 0``)."""
        return self.heartbeat_interval > 0

    @property
    def prior_mean(self) -> float:
        """Expected heartbeat inter-arrival before any samples exist."""
        return self.heartbeat_interval + self.delay_mean

    def delay_distribution(self) -> Optional[Distribution]:
        """The channel-delay distribution, or ``None`` for instant links."""
        if self.delay_mean <= 0:
            return None
        return _time_distribution(
            self.delay_model, self.delay_mean, self.delay_shape
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serializable; all fields are scalars)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "DetectorSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown DetectorSpec fields: {sorted(unknown)}"
            )
        return cls(**data)

    def describe(self) -> str:
        """Compact summary for scenario listings."""
        parts = [self.kind, f"hb={self.heartbeat_interval:g}"]
        if self.kind == "timeout":
            parts.append(f"to={self.timeout:g}")
        else:
            parts.append(f"phi={self.phi_threshold:g}")
        if self.delay_mean > 0:
            parts.append(f"delay={self.delay_mean:g}")
        if self.loss_probability > 0:
            parts.append(f"loss={self.loss_probability:g}")
        return "detector(" + ", ".join(parts) + ")"


class _Verdicts:
    """What every channel of one detector reads and writes alike.

    The clock, the true node states, the observed view and the
    suspicion accounting.  It holds no channel and no detector, so the
    channels pointing at it tie nothing into a reference cycle: a
    dropped detector is freed by reference counting.
    """

    __slots__ = (
        "env", "nodes", "view", "metrics", "timeout", "phi_scale",
        "prior_mean", "crash_time", "down_detected", "suspicions",
    )

    def __init__(self, env, nodes, spec: DetectorSpec, metrics, view) -> None:
        self.env = env
        self.nodes = nodes
        self.view = view
        self.metrics = metrics
        #: Expiry delay of the "timeout" detector (None for "phi").
        self.timeout = spec.timeout if spec.kind == "timeout" else None
        #: phi-accrual expiry delay per unit of mean inter-arrival.
        self.phi_scale = spec.phi_threshold * _LN10
        self.prior_mean = spec.prior_mean
        count = len(nodes)
        #: True crash instant per node (None while up); accounting only.
        self.crash_time: List[Optional[float]] = [None] * count
        #: Whether the current true down interval has been suspected
        #: (drives the false-negative count at recovery).
        self.down_detected: List[bool] = [False] * count
        self.suspicions = 0

    def suspect(self, index: int) -> None:
        """Node ``index``'s suspicion deadline passed: suspect it."""
        self.view.mark_down(index)
        self.suspicions += 1
        metrics = self.metrics
        metrics.node_suspicions[index] += 1
        if self.nodes[index]._up:
            metrics.false_suspicions += 1
        elif not self.down_detected[index]:
            self.down_detected[index] = True
            metrics.detections += 1
            crashed_at = self.crash_time[index]
            if crashed_at is not None:
                metrics.detection_latency_sum += self.env._now - crashed_at


class _NodeChannel:
    """One node's heartbeat link plus its detector-side monitor state.

    Emitter side: the detector's emission tick draws this node's loss
    (``"hb-loss/node-i"``) and delay (``"hb-delay/node-i"``) while the
    node is truly up; a crashed node emits nothing, so stream
    consumption tracks true uptime deterministically.

    Monitor side: ``deadline`` is when the node will be suspected
    unless a heartbeat lands first, and ``deadline_seq`` the kernel
    sequence number drawn when that deadline was set.  While the node
    is trusted, one suspicion timer is pending at the key ``(armed_at,
    armed_seq)``, at or before the deadline; ``armed_seq`` is None
    while the node is suspected.  ``in_flight`` holds the arrival times
    of heartbeats on their way to a trusted node, kept as data (see the
    module docstring).  ``last`` / ``samples`` feed the phi-accrual
    expiry delay.

    The channel holds neither its detector nor its pending timer: the
    timer's callback names the channel and the key it was armed at, and
    a timer whose key is no longer ``armed_seq`` fires as a no-op.  So
    no reference cycle runs through a channel.
    """

    __slots__ = (
        "shared", "index", "_delay", "_loss", "deadline", "deadline_seq",
        "armed_at", "armed_seq", "in_flight", "last", "samples",
        "sample_sum",
    )

    def __init__(
        self, shared: _Verdicts, spec: DetectorSpec, streams, index: int
    ) -> None:
        self.shared = shared
        self.index = index
        dist = spec.delay_distribution()
        self._delay = (
            dist.bind(streams.get(f"hb-delay/node-{index}"))
            if dist is not None else None
        )
        self._loss = (
            streams.get(f"hb-loss/node-{index}")
            if spec.loss_probability > 0 else None
        )
        self.deadline = 0.0
        self.deadline_seq = 0
        self.armed_at = 0.0
        self.armed_seq: Optional[int] = None
        self.in_flight: List[float] = []
        #: Delivery time of the last heartbeat (phi only; None before
        #: the first).
        self.last: Optional[float] = None
        #: Phi-accrual inter-arrival window (None for "timeout").
        self.samples = (
            deque(maxlen=spec.window) if spec.kind == "phi" else None
        )
        self.sample_sum = 0.0

    def expiry_delay(self) -> float:
        """Time after a heartbeat delivery at which suspicion fires."""
        shared = self.shared
        timeout = shared.timeout
        if timeout is not None:
            return timeout
        samples = self.samples
        mean = (
            self.sample_sum / len(samples) if samples
            else shared.prior_mean
        )
        return shared.phi_scale * mean

    def _arm(self, when: float, seq: int) -> None:
        self.armed_at = when
        self.armed_seq = seq
        self.shared.env._sleep_at(
            when, seq, partial(_NodeChannel._on_timer, self, seq)
        )

    def set_deadline(self, deadline: float) -> None:
        """Move the suspicion deadline; arm a timer if none is early enough.

        A later deadline leaves the pending timer alone: it re-arms
        itself when it fires.  Only a phi-accrual window whose mean
        shrank can pull the deadline before the pending timer, which
        then goes stale.
        """
        seq = self.shared.env._next_seq()
        self.deadline = deadline
        self.deadline_seq = seq
        if self.armed_seq is None or deadline < self.armed_at:
            self._arm(deadline, seq)

    def deliver(self, now: float) -> None:
        """A heartbeat from this node was delivered at ``now``."""
        index = self.index
        view = self.shared.view
        if index not in view:
            view.mark_up(index)  # rehabilitation
        samples = self.samples
        if samples is not None:
            last = self.last
            if last is not None:
                if len(samples) == samples.maxlen:
                    self.sample_sum -= samples[0]
                gap = now - last
                samples.append(gap)
                self.sample_sum += gap
            self.last = now
        self.set_deadline(now + self.expiry_delay())

    def _on_deliver(self, _event) -> None:
        self.deliver(self.shared.env._now)

    def _on_timer(self, armed_seq: int, _event) -> None:
        if armed_seq != self.armed_seq:
            return  # superseded by an earlier deadline
        shared = self.shared
        env = shared.env
        now = env._now
        in_flight = self.in_flight
        if in_flight:
            # Fold in the heartbeats that landed before this firing:
            # only the latest one can set the ("timeout") deadline.
            landed = None
            pending = []
            for arrival in in_flight:
                if arrival >= now:
                    pending.append(arrival)
                elif landed is None or arrival > landed:
                    landed = arrival
            if landed is not None:
                self.in_flight = in_flight = pending
                deadline = landed + shared.timeout
                # A delivery event after those landings may have set a
                # later deadline already.
                if deadline > self.deadline:
                    self.deadline = deadline
                    self.deadline_seq = env._next_seq()
        if self.deadline_seq != armed_seq:
            # The deadline moved on since this timer was armed.
            self._arm(self.deadline, self.deadline_seq)
            return
        self.armed_seq = None
        shared.suspect(self.index)
        # Heartbeats still in flight now land on a suspected node:
        # each becomes the kernel event it stood for.
        for arrival in in_flight:
            env._sleep_at(arrival, env._next_seq(), self._on_deliver)
        in_flight.clear()


class FailureDetector:
    """Runs the heartbeat protocol and maintains the observed view.

    Pure callback machine on the kernel's pooled timers; see the module
    docstring for the algorithm.  Ground-truth crash/recovery
    notifications (:meth:`on_node_crash` / :meth:`on_node_recover`) come
    from the :class:`~repro.system.faults.FaultInjector` when one is
    wired, and are used *only* for accounting (detection latency,
    false positives / negatives) -- never to update the view.
    """

    def __init__(
        self,
        env,
        nodes: Sequence,
        spec: DetectorSpec,
        streams,
        metrics,
        view: LiveSet,
    ) -> None:
        if not spec.enabled:
            raise ValueError(
                "FailureDetector requires an enabled spec "
                "(heartbeat_interval > 0)"
            )
        self.env = env
        self.nodes = nodes
        self.spec = spec
        self.view = view
        self._shared = shared = _Verdicts(env, nodes, spec, metrics, view)
        #: Last true up/down flip per node (tests use this to bound the
        #: window in which view and truth may legitimately disagree).
        self.last_transition: List[float] = [0.0] * len(nodes)
        #: Lifetime diagnostics (measured-window counters live in the
        #: metrics collector).
        self.heartbeats_sent = 0
        self.heartbeats_lost = 0
        #: Keep heartbeats to trusted nodes as data (see the module
        #: docstring): only the "timeout" deadline is monotone in the
        #: arrival time, and only a delay without atoms keeps two
        #: arrivals from sharing an instant.
        self._defer = (
            spec.kind == "timeout" and spec.delay_model != "deterministic"
        )
        self._channels = [
            _NodeChannel(shared, spec, streams, i) for i in range(len(nodes))
        ]

    @property
    def suspicions(self) -> int:
        """Suspicions over the whole run (warm-up included)."""
        return self._shared.suspicions

    def start(self) -> None:
        """Arm the emission tick and every node's initial deadline."""
        env = self.env
        interval = self.spec.heartbeat_interval
        env._sleep(interval, self._on_tick)
        now = env._now
        for channel in self._channels:
            # Initial grace: the first heartbeat cannot land before one
            # period (plus channel delay), so the deadline starts as if
            # a heartbeat had just been delivered at t0 + one period.
            channel.set_deadline(now + (interval + channel.expiry_delay()))

    def _on_tick(self, _event) -> None:
        """Every node that is truly up emits one heartbeat, in index order."""
        env = self.env
        # Re-arm first, unconditionally: the emission grid is fixed and
        # survives crashes (a recovered node resumes on the grid).
        env._sleep(self.spec.heartbeat_interval, self._on_tick)
        now = env._now
        nodes = self.nodes
        loss_probability = self.spec.loss_probability
        defer = self._defer
        sent = lost = 0
        for channel in self._channels:
            if not nodes[channel.index]._up:
                continue
            sent += 1
            loss = channel._loss
            if loss is not None and loss.random() < loss_probability:
                lost += 1
                continue
            delay = channel._delay
            if delay is None:
                channel.deliver(now)
            elif defer and channel.armed_seq is not None:
                channel.in_flight.append(now + delay())
            else:
                env._sleep(delay(), channel._on_deliver)
        self.heartbeats_sent += sent
        self.heartbeats_lost += lost

    # -- ground-truth hooks (accounting only) ----------------------------

    def on_node_crash(self, index: int, now: float) -> None:
        """Fault-injector notification: ``index`` truly crashed."""
        shared = self._shared
        shared.crash_time[index] = now
        self.last_transition[index] = now
        # A node suspected *before* its crash (a false positive that
        # came true) starts the down interval already detected -- no
        # latency sample, but no false negative at recovery either.
        shared.down_detected[index] = index not in self.view

    def on_node_recover(self, index: int, now: float) -> None:
        """Fault-injector notification: ``index`` truly recovered."""
        shared = self._shared
        if not shared.down_detected[index]:
            shared.metrics.missed_detections += 1
        shared.crash_time[index] = None
        self.last_transition[index] = now

    def __repr__(self) -> str:
        return (
            f"<FailureDetector {self.spec.kind} "
            f"{self.view.live_count}/{self.view.node_count} trusted "
            f"suspicions={self.suspicions}>"
        )
