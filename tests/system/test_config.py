"""Unit tests for SystemConfig (repro.system.config)."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest

from repro.sim.distributions import Deterministic, DiscreteUniform
from repro.system.config import (
    DOMAINS,
    PARALLEL,
    SERIAL,
    SERIAL_PARALLEL,
    SystemConfig,
    baseline_config,
    expected_frac_local,
    harmonic,
    parallel_baseline_config,
    serial_parallel_config,
)
from repro.system.simulation import simulate


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
        assert expected_frac_local(config) == pytest.approx(frac_local)

    def test_frac_local_one_disables_globals(self):
        config = baseline_config(frac_local=1.0)
        assert config.global_arrival_rate == 0.0

    def test_variable_count_uses_mean(self):
        config = baseline_config(subtask_count_range=(2, 6))
        assert config.mean_subtask_count == 4.0

    def test_serial_parallel_count(self):
        config = serial_parallel_config(stages=3, stage_width=2)
        assert config.mean_subtask_count == 6.0

    def test_fan_rejects_a_count_range(self):
        # A fan is always ``subtask_count`` wide: a range would derive
        # the arrival rate from E[m] = 2.5 while building fans of 4.
        with pytest.raises(ValueError, match="serial chains only"):
            parallel_baseline_config(subtask_count_range=(2, 3))


class TestMeasuredLoad:
    """Every task shape runs at the load its config declares.

    The derived arrival rates are checked against a run, not against
    their own inverse: with three quarters of the load in global tasks,
    an error of 8% in the expected subtask count or in the arrival rate
    moves the measured utilization by 0.03, the tolerance.  At this run
    length the utilization of a correct config lies within 0.017 of
    the load over seeds 1-5.
    """

    TOLERANCE = 0.03

    @pytest.mark.parametrize("config", [
        baseline_config(),
        baseline_config(subtask_count_range=(2, 6)),
        parallel_baseline_config(),
        serial_parallel_config(stages=2, stage_width=3),
    ], ids=["chain", "chain-count-range", "fan", "tree"])
    def test_measured_utilization_is_the_load(self, config):
        config = config.with_(
            load=0.5, frac_local=0.25, sim_time=10_000.0,
            warmup_time=1_000.0, seed=3,
        )
        result = simulate(config)
        assert result.mean_utilization == pytest.approx(
            config.load, abs=self.TOLERANCE
        )


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
            # A count range only draws a serial chain's length.
            {"task_structure": PARALLEL, "subtask_count_range": (2, 3)},
            {"task_structure": SERIAL_PARALLEL,
             "subtask_count_range": (2, 3)},
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
            # Each of these would otherwise fail inside a run.
            {"task_structure": SERIAL_PARALLEL, "stages": 0},
            {"task_structure": SERIAL_PARALLEL, "stage_width": 0},
            {"subtask_count_range": (1.5, 3.0)},
            {"parallel_slack_range": (5.0, 1.0)},
            {"scheduler": "BOGUS"},
            {"strategy": "BOGUS"},
            {"local_load_weights": (float("nan"),) * 6},
            # Each of these would otherwise run, with a bool or float
            # standing in for an int or a real.
            {"node_count": True},
            {"mu_local": True},
            {"seed": 1.5},
            # This would otherwise run with every DIV virtual deadline NaN.
            {"strategy": "EQF-DIVnan"},
        ],
    )
    def test_rejects_bad_settings(self, overrides):
        with pytest.raises(ValueError):
            SystemConfig(**{**{}, **overrides})


#: One out-of-domain value per field, with the overrides that make its
#: domain apply.
OUT_OF_DOMAIN = {
    "node_count": (0, {}),
    "subtask_count": (2.0, {}),
    "load": (1.0, {}),
    "frac_local": (-0.5, {}),
    "mu_local": (float("inf"), {}),
    "mu_subtask": (0, {}),
    "slack_range": ((1.0,), {}),
    "rel_flex": ("1", {}),
    "pex_error": (float("nan"), {}),
    "scheduler": ("LIFO", {}),
    "overload_policy": ("abort-everything", {}),
    "preemptive": (1, {}),
    "trace": ("yes", {}),
    "strategy": ("EQF-BOGUS", {}),
    "task_structure": ("ring", {}),
    "stages": (-1, {}),
    "stage_width": (True, {}),
    "parallel_slack_range": ([1.25, 5.0], {}),
    "subtask_count_range": ((0, 3), {}),
    "local_load_weights": ((1.0,) * 5 + (-1.0,), {}),
    "arrival_model": ("bursty", {}),
    "arrival_cv2": (0.5, {"arrival_model": "hyperexp"}),
    "arrival_burst_ratio": (0.5, {"arrival_model": "mmpp2"}),
    "arrival_burst_fraction": (1.0, {"arrival_model": "mmpp2"}),
    "arrival_cycle_time": (0.0, {"arrival_model": "mmpp2"}),
    "service_model": ("weibull", {}),
    "service_shape": (1.0, {"service_model": "pareto"}),
    "service_sigma": (0.0, {"service_model": "lognormal"}),
    "placement": ("random", {}),
    "placement_zipf_s": (-1.0, {"placement": "zipf"}),
    "node_speed_factors": ((1.0,) * 5 + (0.0,), {}),
    "load_profile": (((1.0, 1.0, 1.0),), {}),
    "faults": ({"mttf": 400.0}, {}),
    "detector": ("timeout", {}),
    "sim_time": (-1.0, {}),
    "warmup_time": (-1.0, {}),
    "seed": (1.5, {}),
}


class TestFieldDomains:
    def test_every_field_declares_a_domain(self):
        assert list(DOMAINS) == [f.name for f in fields(SystemConfig)]
        assert set(OUT_OF_DOMAIN) == set(DOMAINS)

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_every_default_lies_in_its_domain(self, name):
        # Construction skips a field that still holds its default.
        assert DOMAINS[name].accepts(DOMAINS[name].default)

    @pytest.mark.parametrize("name", sorted(OUT_OF_DOMAIN))
    def test_out_of_domain_value_names_its_field(self, name):
        value, context = OUT_OF_DOMAIN[name]
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            SystemConfig(**context, **{name: value})

    def test_guarded_domain_applies_only_under_its_model(self):
        # arrival_cv2 parameterizes the hyperexp model alone.
        assert SystemConfig(arrival_cv2=0.5).arrival_cv2 == 0.5


class TestConvenience:
    def test_with_returns_new_instance(self):
        config = baseline_config()
        other = config.with_(load=0.2)
        assert config.load == 0.5
        assert other.load == 0.2

    def test_describe_mentions_strategy(self):
        assert "strategy=EQF" in baseline_config(strategy="EQF").describe()
