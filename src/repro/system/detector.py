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

Both detectors reduce to one cancellable expiry timer per node: a
delivered heartbeat marks the node trusted and re-arms the timer; the
timer firing marks it suspected.

* ``"timeout"`` suspects a node ``timeout`` after its last heartbeat.
* ``"phi"`` is the phi-accrual detector: with an exponential tail over
  the recent inter-arrival window, ``phi(t) = t / (mean * ln 10)``,
  so the suspicion threshold ``phi >= phi_threshold`` inverts to an
  expiry delay of ``phi_threshold * ln(10) * mean`` -- event-driven,
  no polling.  Until ``window`` samples accumulate the prior mean
  ``heartbeat_interval + delay_mean`` is used.

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
from dataclasses import asdict, dataclass, fields
from collections import deque
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


class _NodeChannel:
    """One node's heartbeat link plus its detector-side monitor state.

    Emitter side: a self-re-arming timer fires every
    ``heartbeat_interval``; while the node is truly up, each firing
    draws loss (``"hb-loss/node-i"``) and delay (``"hb-delay/node-i"``)
    and schedules the delivery.  Crashed nodes skip the draws entirely
    (a dead node emits nothing), so stream consumption tracks true
    uptime deterministically.

    Monitor side: ``last`` / ``samples`` feed the expiry-delay
    computation, and ``expiry`` is the single cancellable suspicion
    timer (see the module docstring).
    """

    __slots__ = (
        "detector", "index", "_delay", "_loss", "expiry", "last",
        "samples", "sample_sum",
    )

    def __init__(self, detector: "FailureDetector", index: int) -> None:
        self.detector = detector
        self.index = index
        spec = detector.spec
        streams = detector.streams
        dist = spec.delay_distribution()
        self._delay = (
            dist.bind(streams.get(f"hb-delay/node-{index}"))
            if dist is not None else None
        )
        self._loss = (
            streams.get(f"hb-loss/node-{index}")
            if spec.loss_probability > 0 else None
        )
        #: Pending suspicion timer (None while suspected).
        self.expiry = None
        #: Delivery time of the last heartbeat (None before the first).
        self.last: Optional[float] = None
        #: Phi-accrual inter-arrival window (None for "timeout").
        self.samples = (
            deque(maxlen=spec.window) if spec.kind == "phi" else None
        )
        self.sample_sum = 0.0

    def start(self) -> None:
        detector = self.detector
        env = detector.env
        interval = detector.spec.heartbeat_interval
        env._sleep(interval, self._on_emit)
        # Initial grace: the first heartbeat cannot land before one
        # period (plus channel delay), so the expiry clock starts as if
        # a heartbeat had just been delivered at t0 + one period.
        self.expiry = env._sleep(
            interval + detector._expiry_delay(self), self._on_expire
        )

    def _on_emit(self, _event) -> None:
        detector = self.detector
        env = detector.env
        # Re-arm first, unconditionally: the emission grid is fixed and
        # survives crashes (a recovered node resumes on its own period).
        env._sleep(detector.spec.heartbeat_interval, self._on_emit)
        if not detector.nodes[self.index]._up:
            return
        detector.heartbeats_sent += 1
        loss = self._loss
        if loss is not None and loss.random() < detector.spec.loss_probability:
            detector.heartbeats_lost += 1
            return
        delay = self._delay
        if delay is not None:
            env._sleep(delay(), self._on_deliver)
        else:
            detector._heartbeat(self)

    def _on_deliver(self, _event) -> None:
        self.detector._heartbeat(self)

    def _on_expire(self, _event) -> None:
        self.expiry = None
        self.detector._suspect(self)


class FailureDetector:
    """Runs the heartbeat protocol and maintains the observed view.

    Pure callback machine on the kernel's cancellable timers; see the
    module docstring for the algorithm.  Ground-truth crash/recovery
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
        self.streams = streams
        self.metrics = metrics
        self.view = view
        count = len(self.nodes)
        #: True crash instant per node (None while up); accounting only.
        self.crash_time: List[Optional[float]] = [None] * count
        #: Last true up/down flip per node (tests use this to bound the
        #: window in which view and truth may legitimately disagree).
        self.last_transition: List[float] = [0.0] * count
        #: Whether the current true down interval has been suspected
        #: (drives the false-negative count at recovery).
        self._down_detected: List[bool] = [False] * count
        #: Lifetime diagnostics (measured-window counters live in the
        #: metrics collector).
        self.heartbeats_sent = 0
        self.heartbeats_lost = 0
        self.suspicions = 0
        self._channels = [_NodeChannel(self, i) for i in range(count)]

    def start(self) -> None:
        """Arm every node's heartbeat emitter and initial expiry timer."""
        for channel in self._channels:
            channel.start()

    # -- detector core ---------------------------------------------------

    def _expiry_delay(self, channel: _NodeChannel) -> float:
        """Time after a heartbeat delivery at which suspicion fires."""
        spec = self.spec
        if spec.kind == "timeout":
            return spec.timeout
        samples = channel.samples
        mean = (
            channel.sample_sum / len(samples) if samples
            else spec.prior_mean
        )
        return spec.phi_threshold * _LN10 * mean

    def _heartbeat(self, channel: _NodeChannel) -> None:
        """A heartbeat from ``channel``'s node was delivered."""
        now = self.env._now
        index = channel.index
        view = self.view
        if index not in view:
            view.mark_up(index)  # rehabilitation
        samples = channel.samples
        last = channel.last
        if samples is not None and last is not None:
            if len(samples) == samples.maxlen:
                channel.sample_sum -= samples[0]
            gap = now - last
            samples.append(gap)
            channel.sample_sum += gap
        channel.last = now
        expiry = channel.expiry
        if expiry is not None:
            expiry.cancel()
        channel.expiry = self.env._sleep(
            self._expiry_delay(channel), channel._on_expire
        )

    def _suspect(self, channel: _NodeChannel) -> None:
        """``channel``'s expiry timer fired: suspect its node."""
        index = channel.index
        now = self.env._now
        self.view.mark_down(index)
        self.suspicions += 1
        metrics = self.metrics
        metrics.node_suspicions[index] += 1
        if self.nodes[index]._up:
            metrics.false_suspicions += 1
        elif not self._down_detected[index]:
            self._down_detected[index] = True
            metrics.detections += 1
            crashed_at = self.crash_time[index]
            if crashed_at is not None:
                metrics.detection_latency_sum += now - crashed_at

    # -- ground-truth hooks (accounting only) ----------------------------

    def on_node_crash(self, index: int, now: float) -> None:
        """Fault-injector notification: ``index`` truly crashed."""
        self.crash_time[index] = now
        self.last_transition[index] = now
        # A node suspected *before* its crash (a false positive that
        # came true) starts the down interval already detected -- no
        # latency sample, but no false negative at recovery either.
        self._down_detected[index] = index not in self.view

    def on_node_recover(self, index: int, now: float) -> None:
        """Fault-injector notification: ``index`` truly recovered."""
        if not self._down_detected[index]:
            self.metrics.missed_detections += 1
        self.crash_time[index] = None
        self.last_transition[index] = now

    def __repr__(self) -> str:
        return (
            f"<FailureDetector {self.spec.kind} "
            f"{self.view.live_count}/{self.view.node_count} trusted "
            f"suspicions={self.suspicions}>"
        )
