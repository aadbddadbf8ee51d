"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.experiments.runner import RunScale
from repro.sim.core import Environment
from repro.sim.rng import StreamFactory
from repro.system.config import baseline_config


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def script(env: Environment):
    """Start a timed script on ``env``: ``script(action, 2.0, action, ...)``.

    Numbers are waits and callables are actions, run in order.  The
    first segment runs from an urgent ``_schedule_call`` kick, and each
    wait arms ``env._sleep(delay, ...)`` from inside the previous
    segment's callback, after that segment's actions ran.  Tests with same-instant
    arrivals pin this event order in their expected values.
    """

    def start(*steps) -> None:
        pending = iter(steps)

        def resume(_event) -> None:
            for step in pending:
                if callable(step):
                    step()
                else:
                    env._sleep(step, resume)
                    return

        env._schedule_call(resume)

    return start


@pytest.fixture
def streams() -> StreamFactory:
    """A reproducible stream factory with a fixed seed."""
    return StreamFactory(seed=12345)


@pytest.fixture
def tiny_scale() -> RunScale:
    """Very short runs for structural tests of the experiment harness."""
    return RunScale(sim_time=400.0, warmup_time=50.0, replications=1, label="tiny")


@pytest.fixture
def smoke_config():
    """A short-run baseline config for integration tests."""
    return baseline_config(sim_time=2_500.0, warmup_time=250.0)
