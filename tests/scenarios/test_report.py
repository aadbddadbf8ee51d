"""Tests for the scenario sweep experiment and its ranking report."""

from __future__ import annotations

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import best_strategy, ranking, render, run
from repro.experiments.runner import RunScale
from repro.scenarios import (
    LIBRARY,
    ScenarioSpec,
    get_scenario,
    sweep_experiment,
)

TINY = RunScale(sim_time=800.0, warmup_time=100.0, replications=1, label="tiny")

SPECS = (get_scenario("baseline"), get_scenario("smart-routing"))
STRATEGIES = ("UD", "EQF")


@pytest.fixture(scope="module")
def sweep_result():
    return run(sweep_experiment(SPECS, STRATEGIES, seed=11), scale=TINY)


class TestGridConfigs:
    def test_row_major_and_scale_applied(self, sweep_result):
        configs = [cell.estimate.config for cell in sweep_result.grid.cells]
        assert len(configs) == 4
        assert [c.strategy for c in configs] == ["UD", "EQF", "UD", "EQF"]
        assert all(c.sim_time == TINY.sim_time for c in configs)
        assert configs[2] == TINY.apply(
            SPECS[1].to_config(strategy="UD", seed=1_011)
        )

    def test_cells_get_distinct_seeds(self, sweep_result):
        seeds = [cell.estimate.config.seed for cell in sweep_result.grid.cells]
        assert len(set(seeds)) == len(seeds)
        assert seeds[0] == 11
        assert seeds[2] == 1_011  # scenario index advances by 1_000

    @pytest.mark.parametrize("spec", LIBRARY, ids=lambda spec: spec.name)
    def test_run_overrides_equal_a_later_with(self, spec):
        """The sweep stamps strategy and seed on ``spec.to_config()``; that
        must be the config the spec builds with them as overrides."""
        assert spec.to_config(strategy="EQF", seed=1_011) == (
            spec.to_config().with_(strategy="EQF", seed=1_011)
        )


class TestSweepResult:
    def test_every_cell_present(self, sweep_result):
        for spec in SPECS:
            for strategy in STRATEGIES:
                cell = sweep_result.grid.cell(spec.name, strategy)
                assert cell.row == spec.name
                assert cell.strategy == strategy

    def test_missing_cell_raises(self, sweep_result):
        with pytest.raises(KeyError):
            sweep_result.grid.cell("baseline", "nope")

    def test_ranking_sorted_by_global_miss_ratio(self, sweep_result):
        for spec in SPECS:
            ranked = ranking(sweep_result.grid, spec.name)
            values = [cell.estimate.md_global.mean for cell in ranked]
            assert values == sorted(values)

    def test_best_strategy_is_rank_one(self, sweep_result):
        for spec in SPECS:
            assert (
                best_strategy(sweep_result.grid, spec.name)
                == ranking(sweep_result.grid, spec.name)[0].strategy
            )

    def test_unknown_scenario_raises(self, sweep_result):
        with pytest.raises(KeyError):
            ranking(sweep_result.grid, "no-such")

    def test_table_lists_scenarios_ranks_and_seed(self, sweep_result):
        table = render(sweep_result)
        for spec in SPECS:
            assert spec.name in table
        assert "MD_global" in table
        assert "seed 11" in table

    def test_table_surfaces_preemption_counts(self, sweep_result):
        """The sweep report carries the per-cell preemption total (0 for
        these non-preemptive scenarios, > 0 for preemptive ones)."""
        table = render(sweep_result)
        assert "preempt" in table
        for cell in sweep_result.grid.cells:
            assert cell.estimate.preemptions == 0

    def test_deterministic_across_invocations(self, sweep_result):
        again = run(sweep_experiment(SPECS, STRATEGIES, seed=11), scale=TINY)
        for cell, cell2 in zip(sweep_result.grid.cells, again.grid.cells):
            assert cell.estimate.md_global.mean == cell2.estimate.md_global.mean
            assert cell.estimate.md_local.mean == cell2.estimate.md_local.mean


class TestValidation:
    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            run(sweep_experiment([], STRATEGIES), scale=TINY)

    def test_empty_strategies_rejected(self):
        with pytest.raises(ValueError):
            run(sweep_experiment(SPECS, []), scale=TINY)


class TestInjectedRunner:
    def test_runner_sees_every_grid_cell(self, monkeypatch):
        seen = []
        real_run_config = runner_mod.run_config

        def fake_runner(config):
            seen.append(config)
            return real_run_config(
                config.with_(sim_time=400.0, warmup_time=50.0)
            )

        monkeypatch.setattr(runner_mod, "run_config", fake_runner)
        specs = (ScenarioSpec(name="one"),)
        run(sweep_experiment(specs, ("UD", "EQF"), seed=2), scale=TINY)
        assert [c.strategy for c in seen] == ["UD", "EQF"]
