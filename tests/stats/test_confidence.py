"""Unit tests for confidence intervals (repro.stats.confidence)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.confidence import (
    IntervalEstimate,
    interval_from_samples,
    t_quantile,
)

LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


class TestTQuantile:
    @pytest.mark.parametrize(
        "level,dof,expected",
        [
            (0.95, 1, 12.706),
            (0.95, 4, 2.776),
            (0.95, 9, 2.262),
            (0.99, 9, 3.250),
            (0.90, 29, 1.699),
        ],
    )
    def test_matches_published_tables(self, level, dof, expected):
        assert t_quantile(level, dof) == pytest.approx(expected, abs=2e-3)

    @pytest.mark.parametrize("level", LEVELS)
    def test_exact_at_one_and_two_dof(self, level):
        """dof 1 (Cauchy) and dof 2 have closed-form quantiles; the two
        replications of QUICK and FULL scale give dof 1."""
        q = (1 + level) / 2
        assert t_quantile(level, 1) == pytest.approx(
            math.tan(math.pi * (q - 0.5)), rel=1e-12
        )
        assert t_quantile(level, 2) == pytest.approx(
            (2 * q - 1) / math.sqrt(2 * q * (1 - q)), rel=1e-12
        )

    def test_approximation_agrees_with_scipy(self):
        """Bisection on the closed-form distribution function matches
        scipy's quantile to near machine precision."""
        stats = pytest.importorskip("scipy.stats")
        for dof in [*range(1, 60), 100, 200, 500, 1000]:
            for level in LEVELS:
                assert t_quantile(level, dof) == pytest.approx(
                    float(stats.t.ppf((1 + level) / 2, dof)), rel=1e-9
                )

    def test_bad_level_rejected(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                t_quantile(bad, 5)

    def test_bad_dof_rejected(self):
        with pytest.raises(ValueError):
            t_quantile(0.95, 0)

    def test_larger_dof_smaller_quantile(self):
        values = [t_quantile(0.95, dof) for dof in (1, 2, 5, 20, 200)]
        assert values == sorted(values, reverse=True)


class TestIntervalFromSamples:
    def test_known_example(self):
        samples = [10.0, 12.0, 11.0, 13.0, 9.0]
        estimate = interval_from_samples(samples, level=0.95)
        assert estimate.mean == pytest.approx(11.0)
        # sd = sqrt(2.5), half = t(.95, 4) * sd / sqrt(5).
        assert estimate.half_width == pytest.approx(
            2.776 * math.sqrt(2.5) / math.sqrt(5), abs=1e-3
        )
        assert estimate.n == 5

    def test_single_sample_infinite_half_width(self):
        estimate = interval_from_samples([5.0])
        assert estimate.mean == 5.0
        assert math.isinf(estimate.half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interval_from_samples([])

    def test_identical_samples_zero_width(self):
        estimate = interval_from_samples([2.0, 2.0, 2.0])
        assert estimate.half_width == 0.0

    def test_contains_and_bounds(self):
        estimate = IntervalEstimate(mean=10.0, half_width=1.0, level=0.95, n=3)
        assert estimate.low == 9.0
        assert estimate.high == 11.0
        assert estimate.contains(10.5)
        assert not estimate.contains(12.0)

    def test_overlaps(self):
        a = IntervalEstimate(mean=10.0, half_width=1.0, level=0.95, n=3)
        b = IntervalEstimate(mean=11.5, half_width=1.0, level=0.95, n=3)
        c = IntervalEstimate(mean=20.0, half_width=1.0, level=0.95, n=3)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)

    def test_str_formatting(self):
        estimate = IntervalEstimate(mean=0.25, half_width=0.01, level=0.95, n=2)
        assert "0.25" in str(estimate)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    def test_mean_always_inside_interval(self, samples):
        estimate = interval_from_samples(samples)
        assert estimate.low <= estimate.mean <= estimate.high

    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.integers(min_value=2, max_value=20),
    )
    def test_more_replications_never_widen(self, value, n):
        """With identical dispersion, more samples shrink the interval."""
        few = interval_from_samples([value, value + 1.0] * 2)
        many = interval_from_samples([value, value + 1.0] * (2 * n))
        assert many.half_width <= few.half_width
