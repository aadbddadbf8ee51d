"""The detector's kernel economy against one timer per node and message.

:class:`~repro.system.detector.FailureDetector` emits every node's
heartbeats from one tick, keeps heartbeats to trusted nodes as data and
re-arms one suspicion timer per node lazily.  The reference below is
the plain protocol instead: a self-re-arming emitter per node, a kernel
event per delivery, and an expiry timer cancelled and re-armed on every
delivery.  Both must give the same run bit for bit, on channels built
to put expiries, emissions and deliveries on shared instants (instant
links, timeouts of whole periods, deterministic delays), and the
economical one must do it with far fewer kernel events.
"""

from __future__ import annotations

import math
from collections import deque

import pytest

import repro.system.simulation as simulation_module
from repro.scenarios import get_scenario
from repro.system.detector import DetectorSpec
from repro.system.simulation import Simulation

SIM_TIME = 1_500.0
WARMUP = 150.0

_LN10 = math.log(10.0)


class _ReferenceChannel:
    def __init__(self, detector, index):
        self.detector = detector
        self.index = index
        spec = detector.spec
        dist = spec.delay_distribution()
        self.delay = (
            dist.bind(detector.streams.get(f"hb-delay/node-{index}"))
            if dist is not None else None
        )
        self.loss = (
            detector.streams.get(f"hb-loss/node-{index}")
            if spec.loss_probability > 0 else None
        )
        self.expiry = None
        self.last = None
        self.samples = (
            deque(maxlen=spec.window) if spec.kind == "phi" else None
        )
        self.sample_sum = 0.0

    def on_emit(self, _event):
        detector = self.detector
        env = detector.env
        env._sleep(detector.spec.heartbeat_interval, self.on_emit)
        if not detector.nodes[self.index]._up:
            return
        if (
            self.loss is not None
            and self.loss.random() < detector.spec.loss_probability
        ):
            return
        if self.delay is not None:
            env._sleep(self.delay(), self.on_deliver)
        else:
            detector.heartbeat(self)

    def on_deliver(self, _event):
        self.detector.heartbeat(self)

    def on_expire(self, _event):
        self.expiry = None
        self.detector.suspect(self)


class _OneTimerPerMessage:
    """The heartbeat protocol with one kernel timer per node and message."""

    def __init__(self, env, nodes, spec, streams, metrics, view):
        self.env = env
        self.nodes = nodes
        self.spec = spec
        self.streams = streams
        self.metrics = metrics
        self.view = view
        self.crash_time = [None] * len(nodes)
        self.down_detected = [False] * len(nodes)
        self.channels = [_ReferenceChannel(self, i) for i in range(len(nodes))]

    def start(self):
        interval = self.spec.heartbeat_interval
        for channel in self.channels:
            self.env._sleep(interval, channel.on_emit)
            channel.expiry = self.env._sleep(
                interval + self.expiry_delay(channel), channel.on_expire
            )

    def expiry_delay(self, channel):
        spec = self.spec
        if spec.kind == "timeout":
            return spec.timeout
        mean = (
            channel.sample_sum / len(channel.samples) if channel.samples
            else spec.prior_mean
        )
        return spec.phi_threshold * _LN10 * mean

    def heartbeat(self, channel):
        now = self.env.now
        if channel.index not in self.view:
            self.view.mark_up(channel.index)
        samples = channel.samples
        if samples is not None and channel.last is not None:
            if len(samples) == samples.maxlen:
                channel.sample_sum -= samples[0]
            gap = now - channel.last
            samples.append(gap)
            channel.sample_sum += gap
        channel.last = now
        if channel.expiry is not None:
            channel.expiry.cancel()
        channel.expiry = self.env._sleep(
            self.expiry_delay(channel), channel.on_expire
        )

    def suspect(self, channel):
        index = channel.index
        self.view.mark_down(index)
        metrics = self.metrics
        metrics.node_suspicions[index] += 1
        if self.nodes[index]._up:
            metrics.false_suspicions += 1
        elif not self.down_detected[index]:
            self.down_detected[index] = True
            metrics.detections += 1
            if self.crash_time[index] is not None:
                metrics.detection_latency_sum += (
                    self.env.now - self.crash_time[index]
                )

    def on_node_crash(self, index, now):
        self.crash_time[index] = now
        self.down_detected[index] = index not in self.view

    def on_node_recover(self, index, now):
        if not self.down_detected[index]:
            self.metrics.missed_detections += 1
        self.crash_time[index] = None


def _run(config):
    simulation = Simulation(config)
    result = simulation.run()
    return result, simulation.env._seq_peek()


def _reference_run(config, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(simulation_module, "FailureDetector", _OneTimerPerMessage)
        return _run(config)


#: Channels over ``lossy-heartbeats``' churn (interval 2).  Instant links
#: and whole-period timeouts put expiries on emission instants; a
#: deterministic delay puts every node's delivery, and deadline, on one
#: instant.
CHANNELS = {
    "instant-timeout-1-period": dict(delay_mean=0.0, timeout=2.0),
    "instant-timeout-2-periods": dict(delay_mean=0.0, timeout=4.0),
    "instant-timeout-off-grid": dict(delay_mean=0.0, timeout=4.5),
    "delayed-timeout": dict(delay_mean=0.5, timeout=6.0),
    "delayed-timeout-heavy-loss": dict(
        delay_mean=1.5, timeout=3.0, loss_probability=0.4
    ),
    "uniform-delay-timeout": dict(
        delay_model="uniform", delay_mean=1.0, timeout=4.0
    ),
    "deterministic-delay-timeout": dict(
        delay_model="deterministic", delay_mean=1.0, timeout=4.0
    ),
    "deterministic-delay-of-one-period": dict(
        delay_model="deterministic", delay_mean=2.0, timeout=2.0
    ),
    "instant-phi": dict(kind="phi", delay_mean=0.0, phi_threshold=1.5),
    "delayed-phi": dict(
        kind="phi", delay_mean=0.7, phi_threshold=1.5, window=4
    ),
}


def _config(channel, seed=3):
    config = get_scenario("lossy-heartbeats").to_config(
        sim_time=SIM_TIME, warmup_time=WARMUP, seed=seed, strategy="EQF",
    )
    return config.with_(detector=DetectorSpec(
        **{**config.detector.to_dict(), **CHANNELS[channel]}
    ))


@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_same_run_as_one_timer_per_message(channel, monkeypatch):
    config = _config(channel)
    result, _ = _run(config)
    reference, _ = _reference_run(config, monkeypatch)
    assert result.total_suspicions > 0
    assert result == reference


def test_paranoid_detector_without_faults_matches(monkeypatch):
    config = get_scenario("paranoid-detector").to_config(
        sim_time=SIM_TIME, warmup_time=WARMUP, seed=8, strategy="UD",
    )
    result, _ = _run(config)
    reference, _ = _reference_run(config, monkeypatch)
    assert result.false_suspicions > 0
    assert result == reference


def test_delayed_timeout_heartbeats_cost_few_kernel_events(monkeypatch):
    """On the benchmarked channel (delayed, lossy, timeout of three
    periods), a run draws well under two thirds of the kernel sequence
    numbers one timer per node and message needs."""
    config = _config("delayed-timeout")
    _, events = _run(config)
    _, reference_events = _reference_run(config, monkeypatch)
    assert events < 0.67 * reference_events
