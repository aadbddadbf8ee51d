"""Unit tests for ScenarioSpec (repro.scenarios.spec)."""

from __future__ import annotations

import json

import pytest

from repro.scenarios import ScenarioSpec
from repro.system.config import SystemConfig
from repro.system.detector import DetectorSpec
from repro.system.faults import FaultSpec


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="")

    def test_overrides_mapping_normalized_to_sorted_pairs(self):
        spec = ScenarioSpec(name="s", overrides={"load": 0.6, "frac_local": 0.5})
        assert spec.overrides == (("frac_local", 0.5), ("load", 0.6))

    def test_override_list_values_become_tuples(self):
        spec = ScenarioSpec(name="s", overrides={"slack_range": [0.5, 3.0]})
        assert spec.overrides == (("slack_range", (0.5, 3.0)),)
        assert spec.to_config().slack_range == (0.5, 3.0)

    def test_fault_mapping_becomes_a_spec(self):
        spec = ScenarioSpec(
            name="s", overrides={"faults": {"mttf": 400.0, "mttr": 20.0}}
        )
        assert dict(spec.overrides)["faults"] == FaultSpec(mttf=400.0, mttr=20.0)

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ValueError, match="unknown SystemConfig field"):
            ScenarioSpec(name="s", overrides={"not_a_field": 1})

    def test_duplicate_override_rejected(self):
        # Two values for one field: silently keeping the last one would
        # run a scenario its definition does not show.
        with pytest.raises(ValueError, match="'load' given more than once"):
            ScenarioSpec(name="dup", overrides=(("load", 0.3), ("load", 0.6)))

    def test_invalid_dimension_fails_at_definition_time(self):
        with pytest.raises(ValueError, match="scenario 'bad' is invalid"):
            ScenarioSpec(name="bad", overrides={"arrival_model": "nope"})

    def test_unknown_fault_field_names_the_scenario(self):
        with pytest.raises(ValueError, match="scenario 'bad'.*FaultSpec"):
            ScenarioSpec(name="bad", overrides={"faults": {"mtbf": 1.0}})

    def test_unstable_profile_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            ScenarioSpec(
                name="unstable",
                overrides={"load_profile": ((0.5, 0.5), (0.5, 2.5)), "load": 0.5},
            )


class TestToConfig:
    def test_baseline_reduces_to_plain_config(self):
        assert ScenarioSpec(name="baseline").to_config() == SystemConfig()

    def test_run_overrides_win_over_spec(self):
        spec = ScenarioSpec(name="s", overrides={"load": 0.6, "strategy": "UD"})
        config = spec.to_config(strategy="EQF", seed=9)
        assert config.load == 0.6
        assert config.strategy == "EQF"
        assert config.seed == 9

    def test_dimensions_reach_the_config(self):
        spec = ScenarioSpec(
            name="s",
            overrides=dict(
                arrival_model="hyperexp",
                arrival_cv2=4.0,
                service_model="pareto",
                service_shape=2.5,
                placement="zipf",
                placement_zipf_s=0.8,
                node_speed_factors=(1.0,) * 6,
                load_profile=((1.0, 1.0),),
            ),
        )
        config = spec.to_config()
        assert config.arrival_model == "hyperexp"
        assert config.arrival_cv2 == 4.0
        assert config.service_model == "pareto"
        assert config.service_shape == 2.5
        assert config.placement == "zipf"
        assert config.placement_zipf_s == 0.8
        assert config.node_speed_factors == (1.0,) * 6
        assert config.load_profile == ((1.0, 1.0),)


class TestRoundTrip:
    def test_json_round_trip_identity(self):
        spec = ScenarioSpec(
            name="full",
            description="all dimensions on",
            overrides=dict(
                arrival_model="mmpp2",
                arrival_burst_ratio=3.0,
                service_model="lognormal",
                service_sigma=1.1,
                placement="least-outstanding",
                node_speed_factors=(1.2, 1.2, 1.0, 1.0, 0.8, 0.8),
                load_profile=((0.5, 0.8), (0.5, 1.2)),
                faults=FaultSpec(mttf=400.0, mttr=20.0, retry_limit=2),
                detector=DetectorSpec(heartbeat_interval=2.0, timeout=6.0),
                overload_policy="abort-tardy",
                load=0.55,
                subtask_count_range=(2, 6),
            ),
        )
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_to_dict_is_one_overrides_mapping(self):
        spec = ScenarioSpec(
            name="s",
            description="d",
            overrides={"load": 0.4, "node_speed_factors": (1.0,) * 6},
        )
        assert json.loads(json.dumps(spec.to_dict())) == {
            "name": "s",
            "description": "d",
            "overrides": {"load": 0.4, "node_speed_factors": [1.0] * 6},
        }

    def test_from_dict_tolerates_missing_sections(self):
        spec = ScenarioSpec.from_dict({"name": "bare"})
        assert spec == ScenarioSpec(name="bare")

    def test_from_dict_rejects_unknown_keys(self):
        # A misspelt key must not load the paper baseline under its name.
        with pytest.raises(ValueError, match="bogus"):
            ScenarioSpec.from_dict({"name": "y", "bogus": 1})

    def test_from_dict_rejects_nested_dimension_sections(self):
        with pytest.raises(ValueError, match="arrival"):
            ScenarioSpec.from_dict(
                {"name": "old", "arrival": {"model": "hyperexp", "cv2": 4.0}}
            )


class TestDescribe:
    def test_baseline_describes_itself(self):
        assert ScenarioSpec(name="b").describe() == "paper baseline"

    def test_dimensions_listed(self):
        spec = ScenarioSpec(
            name="s",
            overrides={"arrival_model": "hyperexp", "arrival_cv2": 2.0, "load": 0.55},
        )
        assert spec.describe() == "arrival=hyperexp, load=0.55"

    def test_labels_follow_dimension_order_then_sorted_overrides(self):
        spec = ScenarioSpec(
            name="s",
            overrides=dict(
                preemptive=True,
                overload_policy="abort-tardy",
                node_count=6,
                placement="round-robin",
                load_profile=((1.0, 1.0),),
            ),
        )
        assert spec.describe() == (
            "placement=round-robin, overload=abort-tardy, time-varying-load, "
            "node_count=6, preemptive=True"
        )

    @pytest.mark.parametrize(
        "overrides, label",
        [
            (
                {
                    "arrival_model": "mmpp2",
                    "arrival_burst_ratio": 3.0,
                    "arrival_burst_fraction": 0.1,
                    "arrival_cycle_time": 50.0,
                },
                "arrival=mmpp2",
            ),
            ({"service_model": "lognormal", "service_sigma": 1.5}, "service=lognormal"),
            ({"placement": "zipf", "placement_zipf_s": 1.2}, "placement=zipf"),
            (
                {"faults": FaultSpec(mttf=400.0, mttr=20.0)},
                FaultSpec(mttf=400.0, mttr=20.0).describe(),
            ),
            (
                {"detector": DetectorSpec(heartbeat_interval=2.0, timeout=6.0)},
                DetectorSpec(heartbeat_interval=2.0, timeout=6.0).describe(),
            ),
            ({"overload_policy": "abort-virtual"}, "overload=abort-virtual"),
            ({"node_speed_factors": (1.0,) * 6}, "heterogeneous-speeds"),
            ({"load_profile": ((1.0, 1.0),)}, "time-varying-load"),
        ],
    )
    def test_each_dimension_is_one_label(self, overrides, label):
        # A dimension's parameters are summed up by its label.
        assert ScenarioSpec(name="s", overrides=overrides).describe() == label

    def test_dimensions_at_the_paper_setting_not_listed(self):
        spec = ScenarioSpec(
            name="s",
            overrides={
                "arrival_model": "poisson",
                "faults": FaultSpec(),
                "detector": DetectorSpec(),
            },
        )
        assert spec.describe() == "paper baseline"
