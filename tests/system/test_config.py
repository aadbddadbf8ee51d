"""Unit tests for SystemConfig (repro.system.config)."""

from __future__ import annotations

import math

import pytest

from repro.sim.distributions import Deterministic, DiscreteUniform
from repro.system.config import (
    PARALLEL,
    SERIAL,
    SERIAL_PARALLEL,
    SystemConfig,
    baseline_config,
    expected_frac_local,
    harmonic,
    parallel_baseline_config,
    serial_parallel_config,
    verify_load_arithmetic,
)


class TestTable1Defaults:
    def test_baseline_matches_table1(self):
        config = baseline_config()
        assert config.node_count == 6
        assert config.subtask_count == 4
        assert config.load == 0.5
        assert config.frac_local == 0.75
        assert config.mu_local == 1.0
        assert config.mu_subtask == 1.0
        assert config.slack_range == (0.25, 2.5)
        assert config.rel_flex == 1.0
        assert config.pex_error == 0.0
        assert config.scheduler == "EDF"
        assert config.overload_policy == "no-abort"

    def test_baseline_overrides(self):
        config = baseline_config(strategy="EQF", load=0.3)
        assert config.strategy == "EQF"
        assert config.load == 0.3

    def test_parallel_baseline(self):
        config = parallel_baseline_config()
        assert config.task_structure == PARALLEL
        assert config.parallel_slack_range == (1.25, 5.0)

    def test_serial_parallel_baseline(self):
        config = serial_parallel_config()
        assert config.task_structure == SERIAL_PARALLEL
        assert config.stages == 2
        assert config.stage_width == 2
        assert config.strategy == "UD-UD"


class TestDerivedRates:
    def test_baseline_rates(self):
        """By hand: lambda_local = 0.5 * 0.75 * 1 = 0.375 per node;
        lambda_global = 0.5 * 0.25 * 6 * 1 / 4 = 0.1875."""
        config = baseline_config()
        assert config.local_arrival_rate == pytest.approx(0.375)
        assert config.global_arrival_rate == pytest.approx(0.1875)

    @pytest.mark.parametrize("load", [0.1, 0.3, 0.5, 0.8])
    @pytest.mark.parametrize("frac_local", [0.1, 0.5, 0.75, 0.95])
    def test_load_arithmetic_inverts(self, load, frac_local):
        config = baseline_config(load=load, frac_local=frac_local)
        assert verify_load_arithmetic(config) == pytest.approx(load)
        assert expected_frac_local(config) == pytest.approx(frac_local)

    def test_frac_local_one_disables_globals(self):
        config = baseline_config(frac_local=1.0)
        assert config.global_arrival_rate == 0.0

    def test_variable_count_uses_mean(self):
        config = baseline_config(subtask_count_range=(2, 6))
        assert config.mean_subtask_count == 4.0
        assert verify_load_arithmetic(config) == pytest.approx(config.load)

    def test_serial_parallel_count(self):
        config = serial_parallel_config(stages=3, stage_width=2)
        assert config.mean_subtask_count == 6.0


class TestHeterogeneousLoads:
    def test_homogeneous_default(self):
        rates = baseline_config().node_local_rates()
        assert len(rates) == 6
        assert len(set(rates)) == 1

    def test_weights_preserve_total(self):
        config = baseline_config(local_load_weights=(2, 2, 1, 1, 0.5, 0.5))
        rates = config.node_local_rates()
        assert sum(rates) == pytest.approx(6 * config.local_arrival_rate)

    def test_weights_shape(self):
        config = baseline_config(local_load_weights=(2, 2, 1, 1, 0.5, 0.5))
        rates = config.node_local_rates()
        assert rates[0] == pytest.approx(4 * rates[4])

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(ValueError, match="one weight per node"):
            baseline_config(local_load_weights=(1, 2))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            baseline_config(local_load_weights=(1, 1, 1, 1, 1, -1))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            baseline_config(local_load_weights=(0,) * 6)


class TestSlackScaling:
    def test_serial_scale_matches_hand_computation(self):
        """Baseline: rel_flex * m * mu_local / mu_subtask = 1 * 4 * 1 / 1."""
        config = baseline_config()
        assert config.global_slack_scale == pytest.approx(4.0)
        dist = config.global_slack_distribution()
        assert dist.low == pytest.approx(1.0)
        assert dist.high == pytest.approx(10.0)

    def test_rel_flex_scales_linearly(self):
        tight = baseline_config(rel_flex=0.5).global_slack_distribution()
        loose = baseline_config(rel_flex=2.0).global_slack_distribution()
        assert loose.high == pytest.approx(4 * tight.high)

    def test_parallel_uses_paper_range(self):
        dist = parallel_baseline_config().global_slack_distribution()
        assert (dist.low, dist.high) == (1.25, 5.0)

    def test_serial_parallel_uses_critical_path(self):
        config = serial_parallel_config()
        # critical path = stages * H(width) = 2 * 1.5 = 3.
        assert config.mean_critical_path == pytest.approx(3.0)
        assert config.global_slack_scale == pytest.approx(3.0)

    def test_parallel_critical_path_is_harmonic(self):
        config = parallel_baseline_config()
        assert config.mean_critical_path == pytest.approx(harmonic(4))


class TestHarmonic:
    def test_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic(4) == pytest.approx(25 / 12)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            harmonic(0)


class TestDistributionBuilders:
    def test_local_execution_mean(self):
        config = baseline_config(mu_local=2.0)
        assert config.local_execution_distribution().mean == pytest.approx(0.5)

    def test_subtask_execution_mean(self):
        config = baseline_config(mu_subtask=4.0)
        assert config.subtask_execution_distribution().mean == pytest.approx(0.25)

    def test_count_distribution_fixed(self):
        assert isinstance(baseline_config().subtask_count_distribution(), Deterministic)

    def test_count_distribution_variable(self):
        config = baseline_config(subtask_count_range=(2, 6))
        assert isinstance(config.subtask_count_distribution(), DiscreteUniform)

    def test_estimator_perfect_by_default(self):
        assert baseline_config().make_estimator().is_perfect

    def test_estimator_noisy_with_error(self):
        assert not baseline_config(pex_error=0.5).make_estimator().is_perfect


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"node_count": 0},
            {"subtask_count": 0},
            {"load": 1.0},
            {"load": -0.1},
            {"frac_local": 1.5},
            {"mu_local": 0.0},
            {"mu_subtask": -1.0},
            {"slack_range": (2.0, 1.0)},
            {"slack_range": (-1.0, 1.0)},
            {"rel_flex": -1.0},
            {"pex_error": 1.0},
            {"task_structure": "ring"},
            {"warmup_time": -1.0},
            {"warmup_time": 100.0, "sim_time": 100.0},
            {"subtask_count_range": (0, 3)},
            {"subtask_count_range": (5, 3)},
            {"task_structure": PARALLEL, "subtask_count": 7},
            {"task_structure": SERIAL_PARALLEL, "stage_width": 7},
            {"sim_time": float("nan")},
            {"sim_time": float("inf")},
            {"warmup_time": float("nan")},
            {"warmup_time": float("inf")},
            {"mu_subtask": float("nan")},
            {"mu_subtask": float("inf")},
            {"mu_local": float("nan")},
            {"mu_local": float("inf")},
            {"rel_flex": float("nan")},
            {"rel_flex": float("inf")},
            {"slack_range": (float("nan"), 1.0)},
            {"slack_range": (1.0, float("nan"))},
            {"slack_range": (1.0, float("inf"))},
            {"arrival_model": "hyperexp", "arrival_cv2": float("nan")},
            {"arrival_model": "hyperexp", "arrival_cv2": float("inf")},
            {"arrival_model": "mmpp2", "arrival_burst_ratio": float("nan")},
            {"arrival_model": "mmpp2", "arrival_burst_ratio": float("inf")},
            {"arrival_model": "mmpp2", "arrival_cycle_time": float("nan")},
            {"arrival_model": "mmpp2", "arrival_cycle_time": float("inf")},
            {"service_model": "pareto", "service_shape": float("nan")},
            {"service_model": "pareto", "service_shape": float("inf")},
            {"service_model": "lognormal", "service_sigma": float("nan")},
            {"service_model": "lognormal", "service_sigma": float("inf")},
        ],
    )
    def test_rejects_bad_settings(self, overrides):
        with pytest.raises(ValueError):
            SystemConfig(**{**{}, **overrides})


class TestConvenience:
    def test_with_returns_new_instance(self):
        config = baseline_config()
        other = config.with_(load=0.2)
        assert config.load == 0.5
        assert other.load == 0.2

    def test_describe_mentions_strategy(self):
        assert "strategy=EQF" in baseline_config(strategy="EQF").describe()
