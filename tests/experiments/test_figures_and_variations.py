"""Structural tests for figure and variation definitions.

These run the real simulator at a tiny scale: the goal is that every
experiment definition executes end to end and produces well-formed output
(the *statistical* claims are asserted in test_paper_claims.py at a larger
scale).
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FigureResult, fig2, fig3, fig4, ssp_psp
from repro.experiments.registry import EXPERIMENTS, experiment_ids, get_experiment
from repro.experiments.runner import RunScale
from repro.experiments.variations import (
    VariationResult,
    abort_policy_comparison,
    heterogeneous_nodes,
    pex_error_sweep,
    scheduler_comparison,
    slack_sweep,
    variable_subtasks,
)

TINY = RunScale(sim_time=300.0, warmup_time=30.0, replications=1, label="tiny")


class TestFigureDefinitions:
    def test_fig2_structure(self):
        result = fig2(scale=TINY)
        assert isinstance(result, FigureResult)
        assert result.grid.strategies == ["UD", "ED", "EQS", "EQF"]
        assert len(result.grid.cells) == 5 * 4

    def test_fig3_structure(self):
        result = fig3(scale=TINY)
        assert result.grid.rows == [0.1, 0.3, 0.5, 0.75, 0.9, 0.95]
        for cell in result.grid.cells:
            assert cell.estimate.config.frac_local == cell.row
        assert result.grid.strategies == ["UD", "EQF"]

    def test_fig4_structure(self):
        result = fig4(scale=TINY)
        assert result.grid.strategies == ["UD", "DIV-1", "DIV-2", "GF"]

    def test_fig4_without_gf(self):
        result = fig4(scale=TINY, include_gf=False)
        assert result.grid.strategies == ["UD", "DIV-1", "DIV-2"]

    def test_ssp_psp_structure(self):
        result = ssp_psp(scale=TINY)
        assert result.grid.strategies == ["UD-UD", "UD-DIV1", "EQF-UD", "EQF-DIV1"]

    def test_figure_rendering(self):
        result = fig3(scale=TINY)
        table = result.table()
        assert "MD_glo[UD]" in table
        chart = result.chart("global")
        assert "miss ratio" in chart
        full = result.render()
        assert "local" in full and "global" in full


class TestVariationDefinitions:
    @pytest.mark.parametrize(
        "fn,expected_settings",
        [
            (pex_error_sweep, 4),
            (abort_policy_comparison, 3),
            (scheduler_comparison, 3),
            (variable_subtasks, 2),
            (heterogeneous_nodes, 2),
            (slack_sweep, 6),
        ],
    )
    def test_variation_runs(self, fn, expected_settings):
        result = fn(scale=TINY)
        assert isinstance(result, VariationResult)
        assert len(set(result.grid.rows)) == expected_settings
        # Two strategies per setting by default.
        assert len(result.grid.cells) == expected_settings * 2

    def test_variation_table_renders(self):
        result = abort_policy_comparison(scale=TINY)
        table = result.table()
        assert "MD_global" in table
        assert "abort-tardy" in table

    def test_row_lookup(self):
        result = abort_policy_comparison(scale=TINY)
        cell = result.grid.cell("abort-tardy", "UD")
        assert cell.strategy == "UD"
        assert cell.estimate.config.overload_policy == "abort-tardy"
        with pytest.raises(KeyError):
            result.grid.cell("nonexistent", "UD")


class TestRegistry:
    def test_all_design_ids_present(self):
        expected = {"Fig2", "Fig3", "Fig4", "Sec6", "V1", "V2", "V3", "V4", "V5", "V6"}
        assert set(experiment_ids()) == expected

    def test_lookup_case_insensitive(self):
        assert get_experiment("fig2").experiment_id == "Fig2"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("Fig99")

    def test_entries_are_runnable(self):
        entry = get_experiment("V2")
        result = entry.run(TINY)
        assert isinstance(result, VariationResult)

    def test_descriptions_nonempty(self):
        for entry in EXPERIMENTS.values():
            assert entry.description
            assert entry.paper_artifact
