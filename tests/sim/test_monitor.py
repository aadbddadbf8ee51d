"""Unit tests for the monitors (repro.sim.monitor)."""

from __future__ import annotations

import math

import pytest

from repro.sim.monitor import MeanTally, TimeWeighted


class TestTimeWeighted:
    def test_piecewise_constant_mean(self):
        signal = TimeWeighted(initial=0.0, start_time=0.0)
        signal.update(1.0, now=2.0)   # 0 over [0, 2)
        signal.update(0.0, now=5.0)   # 1 over [2, 5)
        assert signal.mean_at(10.0) == pytest.approx(0.3)

    def test_value_tracks_updates(self):
        signal = TimeWeighted(initial=2.0)
        signal.update(7.0, now=1.0)
        assert signal.value == 7.0

    def test_increment(self):
        signal = TimeWeighted(initial=0.0)
        signal.increment(+1, now=1.0)
        signal.increment(+1, now=2.0)
        signal.increment(-1, now=3.0)
        assert signal.value == 1.0
        # area: 0*1 + 1*1 + 2*1 = 3 over [0, 3]
        assert signal.mean_at(3.0) == pytest.approx(1.0)

    def test_min_max(self):
        signal = TimeWeighted(initial=5.0)
        signal.update(2.0, now=1.0)
        signal.update(9.0, now=2.0)
        assert signal.min == 2.0
        assert signal.max == 9.0

    def test_time_backwards_rejected(self):
        signal = TimeWeighted()
        signal.update(1.0, now=5.0)
        with pytest.raises(ValueError):
            signal.update(2.0, now=4.0)

    def test_mean_before_start_is_nan(self):
        signal = TimeWeighted(start_time=10.0)
        assert math.isnan(signal.mean_at(10.0))

    def test_reset_restarts_accumulation(self):
        signal = TimeWeighted(initial=0.0)
        signal.update(1.0, now=10.0)
        signal.reset(now=10.0)
        # Value (1.0) persists; history does not.
        assert signal.value == 1.0
        assert signal.mean_at(20.0) == pytest.approx(1.0)

    def test_busy_fraction_usage(self):
        """The utilization idiom used by Node."""
        busy = TimeWeighted(initial=0.0)
        busy.update(1, now=1.0)   # serve [1, 3)
        busy.update(0, now=3.0)
        busy.update(1, now=4.0)   # serve [4, 5)
        busy.update(0, now=5.0)
        assert busy.mean_at(10.0) == pytest.approx(0.3)


class TestMeanTallyStillMatchesTally:
    def test_mean_bit_identical_to_tally(self):
        """Where every running sum is exact, Welford's mean equals the
        exact mean bit for bit."""
        mean = MeanTally("m")
        values = [1.5, -2.25, 7.0, 0.125, 3.875, 2.0]
        for value in values:
            mean.observe(value)
        assert mean.mean == math.fsum(values) / len(values)


class TestMeanTally:
    def test_empty_mean_is_nan(self):
        tally = MeanTally("m")
        assert tally.count == 0
        assert math.isnan(tally.mean)

    def test_single_observation_is_exact(self):
        tally = MeanTally()
        tally.observe(0.1)
        assert tally.count == 1
        assert tally.mean == 0.1

    def test_reset_forgets(self):
        tally = MeanTally()
        for value in (3.0, 5.0, 100.0):
            tally.observe(value)
        tally.reset()
        assert tally.count == 0
        assert math.isnan(tally.mean)
        tally.observe(2.0)
        assert tally.mean == 2.0

    def test_mean_matches_the_exact_mean(self):
        values = [0.1 * i + (-1.0) ** i for i in range(200)]
        tally = MeanTally()
        for value in values:
            tally.observe(value)
        assert tally.count == len(values)
        assert tally.mean == pytest.approx(
            math.fsum(values) / len(values), rel=1e-12
        )


class TestTimeWeightedEdges:
    def test_increment_time_backwards_rejected(self):
        signal = TimeWeighted()
        signal.increment(+1, now=5.0)
        with pytest.raises(ValueError):
            signal.increment(-1, now=4.0)

    def test_reset_restarts_min_and_max_at_the_current_value(self):
        signal = TimeWeighted(initial=0.0)
        signal.update(9.0, now=1.0)
        signal.update(4.0, now=2.0)
        signal.reset(now=2.0)
        assert (signal.min, signal.max) == (4.0, 4.0)

    def test_mean_includes_the_value_held_since_the_last_update(self):
        signal = TimeWeighted(initial=0.0)
        signal.update(2.0, now=5.0)
        # 0 over [0, 5), then 2 held over [5, 10] with no further update.
        assert signal.mean_at(10.0) == pytest.approx(1.0)
