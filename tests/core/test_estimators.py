"""Unit tests for execution-time estimators (repro.core.estimators)."""

from __future__ import annotations

import random

import pytest

from repro.core.estimators import (
    NoisyEstimator,
    PerfectEstimator,
    uniform_error_estimator,
)
from repro.sim.distributions import UniformErrorFactor


class TestPerfectEstimator:
    def test_identity(self):
        estimator = PerfectEstimator()
        stream = random.Random(0)
        for ex in (0.0, 0.5, 10.0):
            assert estimator.predict(ex, stream) == ex

    def test_is_perfect_flag(self):
        assert PerfectEstimator().is_perfect


class TestNoisyEstimator:
    def test_bounded_relative_error(self):
        estimator = NoisyEstimator(UniformErrorFactor(0.3))
        stream = random.Random(1)
        for _ in range(500):
            pex = estimator.predict(2.0, stream)
            assert 1.4 <= pex <= 2.6

    def test_mean_error_is_unbiased(self):
        estimator = NoisyEstimator(UniformErrorFactor(0.5))
        stream = random.Random(2)
        n = 20_000
        mean = sum(estimator.predict(1.0, stream) for _ in range(n)) / n
        assert mean == pytest.approx(1.0, abs=0.01)

    def test_never_negative(self):
        estimator = NoisyEstimator(UniformErrorFactor(0.9))
        stream = random.Random(3)
        assert all(estimator.predict(1.0, stream) >= 0 for _ in range(1000))

    def test_not_perfect_flag(self):
        assert not NoisyEstimator(UniformErrorFactor(0.1)).is_perfect


class TestUniformErrorFactory:
    def test_zero_error_gives_perfect(self):
        assert isinstance(uniform_error_estimator(0.0), PerfectEstimator)

    def test_nonzero_error_gives_noisy(self):
        estimator = uniform_error_estimator(0.25)
        assert isinstance(estimator, NoisyEstimator)

    def test_error_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            uniform_error_estimator(1.5)
