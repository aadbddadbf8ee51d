"""Structural tests for the experiment table (figures and variations).

Every entry of :data:`repro.experiments.paper.EXPERIMENTS` runs end to
end on the real simulator at a tiny scale and yields the grid it
declares (the *statistical* claims are asserted in test_paper_claims.py
at a larger scale; the rendered reports are pinned by test_cli_pins.py).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import EXPERIMENTS, get_experiment, render, run
from repro.experiments.runner import RecoveredCell, RunScale

TINY = RunScale(sim_time=300.0, warmup_time=30.0, replications=1, label="tiny")


@pytest.fixture(scope="module", params=list(EXPERIMENTS))
def result(request):
    return run(EXPERIMENTS[request.param], scale=TINY)


class TestEveryExperiment:
    def test_rows_and_strategies_as_declared(self, result):
        experiment, grid = result.experiment, result.grid
        assert grid.rows == [label for label, _ in experiment.rows]
        assert grid.strategies == list(experiment.strategies)
        assert [(cell.row, cell.strategy) for cell in grid.cells] == [
            (label, strategy)
            for label in grid.rows
            for strategy in grid.strategies
        ]

    def test_cells_carry_row_overrides_and_strategy(self, result):
        overrides = dict(result.experiment.rows)
        for cell in result.grid.cells:
            config = cell.estimate.config
            assert config.strategy == cell.strategy
            for field, value in dict(overrides[cell.row]).items():
                assert getattr(config, field) == value, (cell.row, field)

    def test_report_names_runs_a_degraded_pool_recovered(self, result):
        recovered = (RecoveredCell("in-process", 7, "the recovered run"),)
        degraded = replace(
            result, grid=replace(result.grid, recovered=recovered)
        )
        assert render(degraded) == render(result) + (
            "\n\ndegraded: worker death recovered by fallback"
            "\n  [in-process] the recovered run"
        )


class TestRegistry:
    def test_all_design_ids_present(self):
        assert list(EXPERIMENTS) == [
            "Fig2", "Fig3", "Fig4", "Sec6", "V1", "V2", "V3", "V4", "V5", "V6",
        ]

    def test_lookup_case_insensitive(self):
        assert get_experiment("fig2") is EXPERIMENTS["Fig2"]

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("Fig99")
