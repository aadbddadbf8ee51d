"""Unit tests for the distribution library (repro.sim.distributions)."""

from __future__ import annotations

import math
import random

import pytest

from repro.sim.distributions import (
    Deterministic,
    DiscreteUniform,
    Erlang,
    Exponential,
    Uniform,
    UniformErrorFactor,
    exponential_interarrival,
)


def sample_mean(dist, n=40_000, seed=0):
    stream = random.Random(seed)
    return sum(dist.sample(stream) for _ in range(n)) / n


class TestExponential:
    def test_mean_property(self):
        assert Exponential(2.5).mean == 2.5

    def test_rate_property(self):
        assert Exponential(0.5).rate == 2.0

    def test_sample_mean_converges(self):
        assert sample_mean(Exponential(2.0)) == pytest.approx(2.0, rel=0.05)

    def test_samples_positive(self):
        stream = random.Random(1)
        dist = Exponential(1.0)
        assert all(dist.sample(stream) > 0 for _ in range(1000))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_mean_rejected(self, bad):
        with pytest.raises(ValueError):
            Exponential(bad)


class TestUniform:
    def test_mean(self):
        assert Uniform(1.0, 3.0).mean == 2.0

    def test_samples_within_bounds(self):
        stream = random.Random(2)
        dist = Uniform(0.25, 2.5)
        for _ in range(1000):
            value = dist.sample(stream)
            assert 0.25 <= value <= 2.5

    def test_degenerate_range_allowed(self):
        dist = Uniform(1.0, 1.0)
        assert dist.sample(random.Random(0)) == 1.0

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)

    def test_scaled(self):
        scaled = Uniform(0.25, 2.5).scaled(4.0)
        assert scaled.low == 1.0
        assert scaled.high == 10.0

    def test_scaled_by_zero_collapses(self):
        scaled = Uniform(1.0, 2.0).scaled(0.0)
        assert scaled.low == scaled.high == 0.0

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            Uniform(0.0, 1.0).scaled(-1.0)


class TestDeterministic:
    def test_always_returns_value(self):
        dist = Deterministic(7.0)
        stream = random.Random(0)
        assert all(dist.sample(stream) == 7.0 for _ in range(10))

    def test_mean(self):
        assert Deterministic(3.5).mean == 3.5


class TestErlang:
    def test_mean_property(self):
        assert Erlang(k=4, stage_mean=1.0).mean == 4.0

    def test_sample_mean_converges(self):
        assert sample_mean(Erlang(k=4, stage_mean=0.5), n=20_000) == pytest.approx(
            2.0, rel=0.05
        )

    def test_variance_smaller_than_exponential(self):
        """An m-stage Erlang is less variable than one exponential of the
        same mean -- the whole reason global task totals differ from local
        execution times."""
        stream = random.Random(3)
        erlang = Erlang(k=4, stage_mean=1.0)
        expo = Exponential(4.0)
        n = 20_000
        erl = [erlang.sample(stream) for _ in range(n)]
        exp = [expo.sample(stream) for _ in range(n)]
        var = lambda xs: sum((x - sum(xs) / n) ** 2 for x in xs) / n
        assert var(erl) < var(exp)

    @pytest.mark.parametrize("k,mean", [(0, 1.0), (1, 0.0), (-2, 1.0)])
    def test_bad_parameters_rejected(self, k, mean):
        with pytest.raises(ValueError):
            Erlang(k=k, stage_mean=mean)


class TestDiscreteUniform:
    def test_bounds_inclusive(self):
        stream = random.Random(4)
        dist = DiscreteUniform(2, 6)
        values = {dist.sample(stream) for _ in range(2000)}
        assert values == {2, 3, 4, 5, 6}

    def test_mean(self):
        assert DiscreteUniform(2, 6).mean == 4.0

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            DiscreteUniform(5, 2)


class TestErrorFactors:
    def test_uniform_error_bounds(self):
        stream = random.Random(6)
        dist = UniformErrorFactor(0.5)
        for _ in range(1000):
            factor = dist.sample(stream)
            assert 0.5 <= factor <= 1.5

    def test_zero_error_is_exactly_one(self):
        dist = UniformErrorFactor(0.0)
        assert dist.sample(random.Random(0)) == 1.0

    def test_uniform_error_mean_is_one(self):
        assert UniformErrorFactor(0.9).mean == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 2.0])
    def test_bad_error_rejected(self, bad):
        with pytest.raises(ValueError):
            UniformErrorFactor(bad)

class TestInterarrivalHelper:
    def test_rate_to_mean(self):
        dist = exponential_interarrival(4.0)
        assert dist.mean == 0.25

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            exponential_interarrival(0.0)


# -- scenario-subsystem distributions ---------------------------------------

from repro.sim.distributions import (  # noqa: E402  (grouped with their tests)
    Hyperexponential,
    Lognormal,
    MMPP2Interarrival,
    Pareto,
)


class TestPareto:
    def test_mean_is_pinned(self):
        assert Pareto(2.0, 2.2).mean == 2.0

    def test_sample_mean_converges(self):
        # Heavy tail: slower convergence, generous tolerance.
        assert sample_mean(Pareto(1.0, 2.5), n=200_000) == pytest.approx(
            1.0, rel=0.1
        )

    def test_samples_at_least_scale(self):
        dist = Pareto(1.0, 2.2)
        stream = random.Random(3)
        assert all(dist.sample(stream) >= dist.scale for _ in range(2000))

    def test_bind_matches_sample(self):
        dist = Pareto(1.0, 2.2)
        bound = dist.bind(random.Random(11))
        reference = random.Random(11)
        assert [bound() for _ in range(100)] == [
            dist.sample(reference) for _ in range(100)
        ]

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, math.nan])
    def test_bad_shape_rejected(self, bad):
        with pytest.raises(ValueError):
            Pareto(1.0, bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_bad_mean_rejected(self, bad):
        with pytest.raises(ValueError):
            Pareto(bad, 2.2)


class TestLognormal:
    def test_mean_is_pinned(self):
        assert Lognormal(3.0, 1.2).mean == 3.0

    def test_sample_mean_converges(self):
        assert sample_mean(Lognormal(1.0, 1.0), n=200_000) == pytest.approx(
            1.0, rel=0.05
        )

    def test_samples_positive(self):
        dist = Lognormal(1.0, 1.5)
        stream = random.Random(4)
        assert all(dist.sample(stream) > 0 for _ in range(2000))

    def test_bind_matches_sample(self):
        dist = Lognormal(1.0, 1.2)
        bound = dist.bind(random.Random(12))
        reference = random.Random(12)
        assert [bound() for _ in range(100)] == [
            dist.sample(reference) for _ in range(100)
        ]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_bad_sigma_rejected(self, bad):
        with pytest.raises(ValueError):
            Lognormal(1.0, bad)


class TestHyperexponential:
    def test_mean_is_pinned(self):
        assert Hyperexponential(2.0, 4.0).mean == 2.0

    def test_sample_mean_converges(self):
        assert sample_mean(Hyperexponential(1.0, 4.0), n=200_000) == pytest.approx(
            1.0, rel=0.05
        )

    def test_cv2_shows_in_samples(self):
        dist = Hyperexponential(1.0, 9.0)
        stream = random.Random(5)
        values = [dist.sample(stream) for _ in range(100_000)]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert var / mean**2 == pytest.approx(9.0, rel=0.2)

    def test_unit_cv2_degenerates_to_exponential(self):
        dist = Hyperexponential(1.0, 1.0)
        assert dist.phase_probability == 0.5
        rate_fast, rate_slow = dist.rates
        assert rate_fast == pytest.approx(rate_slow)

    def test_bind_matches_sample(self):
        dist = Hyperexponential(1.0, 4.0)
        bound = dist.bind(random.Random(13))
        reference = random.Random(13)
        assert [bound() for _ in range(100)] == [
            dist.sample(reference) for _ in range(100)
        ]

    @pytest.mark.parametrize("bad", [0.5, 0.99, -1.0, math.nan])
    def test_cv2_below_one_rejected(self, bad):
        with pytest.raises(ValueError):
            Hyperexponential(1.0, bad)


class TestMMPP2Interarrival:
    def make(self, **overrides):
        params = dict(
            mean_value=1.0, burst_ratio=4.0, burst_fraction=0.2,
            cycle_time=50.0,
        )
        params.update(overrides)
        return MMPP2Interarrival(**params)

    def test_long_run_rate_is_pinned(self):
        draw = self.make().bind(random.Random(6))
        n = 200_000
        total = sum(draw() for _ in range(n))
        assert total / n == pytest.approx(1.0, rel=0.05)

    def test_rates_mix_to_mean(self):
        dist = self.make()
        rate_calm, rate_burst = dist.arrival_rates
        f = dist.burst_fraction
        assert f * rate_burst + (1 - f) * rate_calm == pytest.approx(1.0)
        assert rate_burst == pytest.approx(4.0 * rate_calm)

    def test_sojourns_follow_cycle(self):
        calm, burst = self.make().sojourn_means
        assert calm == pytest.approx(40.0)
        assert burst == pytest.approx(10.0)

    def test_stateful_sample_refused(self):
        with pytest.raises(TypeError, match="bind"):
            self.make().sample(random.Random(0))

    def test_bound_streams_are_independent_chains(self):
        dist = self.make()
        a = dist.bind(random.Random(1))
        b = dist.bind(random.Random(1))
        first = [a() for _ in range(50)]
        # Same seed, fresh state: the second closure replays identically,
        # proving state lives per-bind, not on the shared description.
        assert [b() for _ in range(50)] == first

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(burst_ratio=0.5),
            dict(burst_fraction=0.0),
            dict(burst_fraction=1.0),
            dict(cycle_time=0.0),
            dict(mean_value=-1.0),
        ],
    )
    def test_bad_parameters_rejected(self, overrides):
        with pytest.raises(ValueError):
            self.make(**overrides)


class TestUniformValidation:
    """Satellite fix: degenerate inputs rejected uniformly, with the
    offending value in the message."""

    def test_erlang_non_integer_k_rejected(self):
        with pytest.raises(ValueError, match="2.5"):
            Erlang(2.5, 1.0)

    def test_erlang_bool_k_rejected(self):
        with pytest.raises(ValueError):
            Erlang(True, 1.0)

    def test_discrete_uniform_non_integer_rejected(self):
        with pytest.raises(ValueError, match="1.5"):
            DiscreteUniform(1.5, 3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Exponential(math.nan),
            lambda: Exponential(math.inf),
            lambda: Uniform(math.nan, 1.0),
            lambda: Uniform(0.0, math.inf),
            lambda: Deterministic(math.nan),
            lambda: Erlang(2, math.nan),
            lambda: UniformErrorFactor(math.nan),
        ],
    )
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_message_carries_offending_value(self):
        with pytest.raises(ValueError, match="-3.0"):
            Exponential(-3.0)


class TestParetoZeroDraw:
    """Regression: a stream draw of exactly 0.0 must not crash (stdlib
    paretovariate's 1 - random() guard)."""

    def test_zero_uniform_draw_is_finite(self):
        class ZeroStream:
            def random(self):
                return 0.0

        value = Pareto(1.0, 2.2).sample(ZeroStream())
        assert math.isfinite(value)
        assert value == Pareto(1.0, 2.2).scale
