"""Property tests over the whole scenario library.

Three invariants every library scenario must satisfy (the ISSUE's
acceptance bar for the scenario subsystem):

* *stability*: the worst-case normalized load stays below 1, so every
  scenario has a steady state to measure;
* *round-trip*: ``from_dict(json(to_dict()))`` is the identity, so
  scenarios can be archived and reloaded;
* *runnability*: a short run completes with a finite missed-deadline
  ratio under every strategy of the default panel.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.runner import RunScale
from repro.scenarios import (
    DEFAULT_STRATEGIES,
    LIBRARY,
    ScenarioSpec,
    get_scenario,
    run_scenario,
)

#: Short but non-trivial runs: every task class sees hundreds of
#: completions, so miss ratios are finite and meaningful.
TINY = RunScale(sim_time=1_000.0, warmup_time=100.0, replications=1, label="tiny")


@pytest.mark.parametrize("spec", LIBRARY, ids=lambda s: s.name)
class TestEveryLibraryScenario:
    def test_stable(self, spec):
        assert spec.peak_load < 1.0

    def test_round_trips_unchanged(self, spec):
        restored = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert restored == spec

    def test_has_name_and_description(self, spec):
        assert spec.name
        assert spec.description


@pytest.mark.parametrize("spec", LIBRARY, ids=lambda s: s.name)
@pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
class TestFiniteMissRatios:
    def test_run_completes_with_finite_miss_ratios(self, spec, strategy):
        estimate = run_scenario(spec, strategy=strategy, scale=TINY, seed=3)
        assert math.isfinite(estimate.md_global.mean)
        assert 0.0 <= estimate.md_global.mean <= 1.0
        assert estimate.global_completed > 0
        if spec.to_config().frac_local > 0:
            assert math.isfinite(estimate.md_local.mean)
            assert 0.0 <= estimate.md_local.mean <= 1.0
            assert estimate.local_completed > 0
        else:
            # Global-only scenarios (the fleet tier) have no local
            # stream: nothing local to complete or miss.
            assert estimate.local_completed == 0


class TestLibraryShape:
    def test_names_unique(self):
        names = [spec.name for spec in LIBRARY]
        assert len(names) == len(set(names))

    def test_baseline_first(self):
        assert LIBRARY[0].name == "baseline"

    def test_library_size(self):
        # The ISSUE asks for a curated library of ~8 named scenarios.
        assert len(LIBRARY) >= 8


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_scenario("Bursty-MMPP").name == "bursty-mmpp"

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="baseline"):
            get_scenario("no-such-scenario")
