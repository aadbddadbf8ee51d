"""Retry timeouts from one deadline FIFO against one timer per attempt.

The process manager keeps every attempt's retry deadline in one FIFO
and one timer at the oldest live deadline; a completion settles its
deadline without touching the kernel.  The reference below is the plain
design instead: each attempt arms its own ``retry_timeout`` sleep and
cancels it when the attempt completes.  Both must give the same run bit
for bit, and draw the same kernel sequence numbers, on the retry-heavy
configs the golden gate pins; and on the benchmark's churn config the
process manager must cancel no sleep at all.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

import repro.system.process_manager as process_manager_module
from repro.core.strategies import parse_assigner
from repro.core.task import SimpleTask, TaskClass, parallel
from repro.core.timing import fast_timing
from repro.scenarios import get_scenario
from repro.sim.core import NORMAL, Environment
from repro.sim._engine import _Sleep
from repro.sim.rng import StreamFactory
from repro.system.faults import FaultSpec
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.process_manager import ProcessManager
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.simulation import Simulation
from repro.system.work import WorkUnit
from test_golden_determinism import (
    _RETRY_MISROUTE_PINS,
    _RETRY_PINS,
    _retry_config,
    _retry_misroute_config,
)


class _OneTimerPerAttempt:
    """A leaf's retry and misroute logic with a kernel timer per attempt."""

    def __init__(self, manager, leaf, deadline, run, parent_on_done):
        self.manager = manager
        self.leaf = leaf
        self.deadline = deadline
        self.run = run
        self.parent_on_done = parent_on_done
        self.node_index = leaf.node_index
        self.current = None
        self.timer = None
        self.attempts = 0
        self.redirects = 0

    def launch(self):
        self.dispatch(self.node_index)

    def dispatch(self, node_index):
        manager = self.manager
        env = manager.env
        detector = manager._detector
        if (
            detector is not None
            and not manager.nodes[node_index]._up
            and self.redirects < detector.max_redirects
        ):
            self.redirects += 1
            manager.metrics.misroutes += 1
            self.node_index = node_index
            if detector.misroute_delay > 0.0:
                env._sleep(detector.misroute_delay, self.bounce)
            else:
                self.bounce(None)
            return
        leaf = self.leaf
        timing = fast_timing(
            ar=env._now, ex=leaf.ex, pex=leaf.pex, dl=self.deadline
        )
        leaf.timing = timing
        unit = WorkUnit(
            leaf.name, TaskClass.GLOBAL, node_index, timing,
            manager._priority_class, self.run.deadline, self.unit_done,
            next(manager._unit_ids),
        )
        self.current = unit
        retry = manager._retry
        if retry is not None and retry.retry_timeout > 0.0:
            self.timer = env._sleep(retry.retry_timeout, self.timeout)
        manager.nodes[node_index].submit(unit)

    def reroute(self, stream):
        view = self.manager._live
        node_index = self.node_index
        if view is not None:
            if 0 < view.live_count < view.node_count:
                indices = view.live_indices()
                node_index = indices[stream.randrange(len(indices))]
            elif view.live_count == view.node_count:
                node_index = stream.randrange(view.node_count)
        self.dispatch(node_index)

    def bounce(self, _event):
        self.reroute(self.manager._detector_stream)

    def unit_done(self, unit):
        if unit is not self.current:
            return
        self.current = None
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if unit.lost and self.manager._retry is not None:
            self.retry_or_fail()
            return
        self.parent_on_done(unit)

    def timeout(self, _event):
        self.timer = None
        self.current = None
        self.retry_or_fail()

    def retry_or_fail(self):
        manager = self.manager
        spec = manager._retry
        if self.attempts >= spec.retry_limit:
            self.run.failed = True
            failed = process_manager_module._FAILED
            manager.env._schedule_call(
                lambda _call: self.parent_on_done(failed), priority=NORMAL
            )
            return
        self.attempts += 1
        delay = spec.backoff_delay(self.attempts)
        if delay > 0.0:
            manager.env._sleep(delay, self.backoff)
        else:
            self.backoff(None)

    def backoff(self, _event):
        self.manager.metrics.retries += 1
        self.reroute(self.manager._retry_stream)


def _sha256(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()


def _run(config):
    simulation = Simulation(config)
    result = simulation.run()
    return result, simulation.env._seq_peek()


def _reference_run(config, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(process_manager_module, "_LeafAttempt", _OneTimerPerAttempt)
        return _run(config)


@pytest.mark.parametrize(
    "key", sorted(_RETRY_PINS), ids=lambda key: "-".join(map(str, key)),
)
def test_same_run_as_one_timer_per_attempt(key, monkeypatch):
    config = _retry_config(*key)
    reference, reference_seqs = _reference_run(config, monkeypatch)
    assert _sha256(reference) == _RETRY_PINS[key]
    result, seqs = _run(config)
    assert result == reference
    assert seqs == reference_seqs


@pytest.mark.parametrize("seed", sorted(_RETRY_MISROUTE_PINS))
def test_instant_misroutes_same_as_one_timer_per_attempt(seed, monkeypatch):
    config = _retry_misroute_config(seed)
    reference, _ = _reference_run(config, monkeypatch)
    assert _sha256(reference) == _RETRY_MISROUTE_PINS[seed]
    assert _run(config)[0] == reference


def _tied_fork():
    """Two leaves forked at t=0 under a retry timeout of 1.0: both
    deadlines fall at t=1, where the second leaf's service also ends.
    Its deadline was set before its service began, so it expires first:
    its retry is queued at node 1 before that node picks its next unit,
    and beats the local unit queued there (deadline 50)."""
    env = Environment()
    metrics = MetricsCollector(2)
    nodes = [
        Node(env=env, index=i, policy=EarliestDeadlineFirst(), metrics=metrics)
        for i in range(2)
    ]
    manager = ProcessManager(
        env=env, nodes=nodes, assigner=parse_assigner("UD"), metrics=metrics,
        fault_spec=FaultSpec(retry_limit=2, retry_timeout=1.0,
                             retry_backoff=0.0),
        retry_stream=StreamFactory(1).get("retry-route"),
    )
    manager.submit(
        parallel(SimpleTask(2.0, node_index=0), SimpleTask(1.0, node_index=1)),
        deadline=10.0,
    )
    nodes[1].submit(WorkUnit(
        "local", TaskClass.LOCAL, 1, fast_timing(ar=0.0, ex=1.0, pex=1.0, dl=50.0),
    ))
    env.run()
    return metrics.snapshot(env.now, nodes), metrics.retries


def test_same_instant_deadlines_expire_before_a_later_completion(
    monkeypatch,
):
    result, retries = _tied_fork()
    with monkeypatch.context() as patch:
        patch.setattr(process_manager_module, "_LeafAttempt", _OneTimerPerAttempt)
        assert _tied_fork() == (result, retries)
    assert (result.global_.aborted, result.global_.failed) == (1, 1)
    assert retries == 4
    # Served after the second leaf and both of its retries.
    assert result.local.mean_waiting == 3.0


def _kernel_calls_by_file(config, monkeypatch, reference=False):
    """Run ``config`` and count ``_Sleep.cancel`` calls, and ``_sleep``
    calls for one retry timeout, by the file that made them."""
    cancels = {}
    timeout_sleeps = {}
    cancel = _Sleep.cancel
    sleep = Environment._sleep
    retry_timeout = config.faults.retry_timeout

    def caller():
        return sys._getframe(2).f_code.co_filename.rsplit("/", 1)[-1]

    def counting_cancel(self):
        name = caller()
        cancels[name] = cancels.get(name, 0) + 1
        cancel(self)

    def counting_sleep(self, delay, callback):
        if delay == retry_timeout:
            name = caller()
            timeout_sleeps[name] = timeout_sleeps.get(name, 0) + 1
        return sleep(self, delay, callback)

    with monkeypatch.context() as patch:
        patch.setattr(_Sleep, "cancel", counting_cancel)
        patch.setattr(Environment, "_sleep", counting_sleep)
        if reference:
            patch.setattr(
                process_manager_module, "_LeafAttempt", _OneTimerPerAttempt
            )
        Simulation(config).run()
    return cancels, timeout_sleeps


def test_churn_run_cancels_no_retry_timer(monkeypatch):
    """The benchmark's churn config (``detector-preemptive`` under EQF,
    seed 1): the process manager arms no sleep for a retry timeout and
    cancels none, while the one-timer reference cancels thousands."""
    config = get_scenario("detector-preemptive").to_config(
        strategy="EQF", sim_time=20_000.0, warmup_time=2_000.0, seed=1,
    )
    cancels, timeout_sleeps = _kernel_calls_by_file(config, monkeypatch)
    assert cancels.get("preemptive.py", 0) > 0  # the counter sees cancels
    assert cancels.get("process_manager.py", 0) == 0
    assert timeout_sleeps == {}
    cancels, timeout_sleeps = _kernel_calls_by_file(
        config, monkeypatch, reference=True
    )
    assert cancels.get("test_retry_timeouts.py", 0) > 10_000
    assert timeout_sleeps.get("test_retry_timeouts.py", 0) > 10_000
