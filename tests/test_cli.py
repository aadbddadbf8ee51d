"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("Fig2", "Fig3", "Fig4", "Sec6", "V1", "V6"):
            assert experiment_id in out


class TestTable1:
    def test_prints_baseline(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Earliest Deadline First" not in out  # CLI prints config value
        assert "EDF" in out
        assert "frac_local" in out
        assert "0.375" in out     # derived per-node local rate
        assert "0.1875" in out    # derived global rate

    def test_prints_the_load(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        assert "0.5" in out


class TestRun:
    def test_runs_variation_at_smoke_scale(self, capsys):
        assert main(["run", "V4", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "MD_global" in out
        assert "m~U{2..6}" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "Fig99"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown experiment 'Fig99'" in err
        assert "Traceback" not in err

    def test_case_insensitive_id(self, capsys):
        assert main(["run", "v4", "--scale", "smoke"]) == 0


class TestSimulate:
    def test_basic_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--strategy", "EQF",
                "--load", "0.4",
                "--sim-time", "1500",
                "--warmup", "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MD_local" in out
        assert "MD_global" in out
        assert "strategy=EQF" in out

    def test_parallel_structure(self, capsys):
        code = main(
            [
                "simulate",
                "--strategy", "DIV-1",
                "--structure", "parallel",
                "--sim-time", "1500",
                "--warmup", "150",
            ]
        )
        assert code == 0
        assert "MD_global" in capsys.readouterr().out

    def test_bad_strategy_errors(self, capsys):
        code = main(["simulate", "--strategy", "BOGUS",
                     "--sim-time", "500", "--warmup", "50"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sim_time, warmup, problem",
        [("nan", "10", "sim_time must be"),
         ("inf", "10", "sim_time must be"),
         ("500", "nan", "warmup_time must be"),
         ("500", "inf", "warmup_time must be"),
         ("5", "10", "warmup_time < sim_time")],
        ids=["nan-10", "inf-10", "500-nan", "500-inf", "5-10"],
    )
    def test_bad_horizon_is_an_input_error(
        self, capsys, sim_time, warmup, problem
    ):
        """Non-finite or inverted horizons are refused up front (a ``nan``
        sim time used to run forever) with an error line, not a
        traceback."""
        code = main(["simulate", "--sim-time", sim_time, "--warmup", warmup])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert problem in err


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_scale_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "Fig2", "--scale", "huge"])


class TestSimulateSeedEcho:
    def test_resolved_seed_echoed(self, capsys):
        assert main([
            "simulate", "--sim-time", "600", "--warmup", "60", "--seed", "77",
        ]) == 0
        out = capsys.readouterr().out
        assert "resolved seed: 77" in out


class TestScenarios:
    def test_list_names_the_library(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "bursty-mmpp", "smart-routing", "rush-hour"):
            assert name in out

    def test_run_prints_metrics_and_seed(self, capsys):
        assert main([
            "scenarios", "run", "baseline",
            "--strategy", "EQF", "--scale", "smoke", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "MD_global" in out
        assert "resolved seed: 5" in out

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenarios", "run", "no-such"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_rejects_a_repeated_scenario(self, capsys):
        assert main([
            "scenarios", "sweep", "--scenario", "baseline",
            "--scenario", "baseline", "--scale", "smoke",
        ]) == 2
        assert "must be distinct" in capsys.readouterr().err

    def test_sweep_ranks_strategies_per_scenario(self, capsys):
        assert main([
            "scenarios", "sweep",
            "--scenario", "baseline", "--scenario", "hotspot-zipf",
            "--strategies", "UD", "EQF",
            "--scale", "smoke", "--seed", "3",
        ]) == 0
        captured = capsys.readouterr()
        assert "baseline" in captured.out
        assert "hotspot-zipf" in captured.out
        assert "rank" in captured.out
        assert "resolved seed: 3" in captured.out
        assert "2 scenario(s) x 2 strategies" in captured.err

    def test_sweep_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenarios", "sweep", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_unknown_strategy_fails_cleanly(self, capsys):
        assert main([
            "scenarios", "run", "baseline", "--strategy", "BOGUS",
        ]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_sweep_unknown_strategy_fails_cleanly(self, capsys):
        assert main([
            "scenarios", "sweep", "--scenario", "baseline",
            "--strategies", "BOGUS", "UD",
        ]) == 2
        assert "unknown strategy" in capsys.readouterr().err


class TestSweepJournalFlags:
    _BASE = [
        "scenarios", "sweep", "--scenario", "baseline",
        "--strategies", "UD", "EQF", "--scale", "smoke", "--seed", "17",
    ]

    def test_journal_path_echoed_and_rerun_identical(self, capsys, tmp_path):
        journal = str(tmp_path / "sweep.json")
        assert main(self._BASE + ["--journal", journal]) == 0
        first = capsys.readouterr()
        import os as _os

        assert f"journal: {_os.path.abspath(journal)}" in first.err
        assert _os.path.exists(journal)

        assert main(self._BASE + ["--journal", journal]) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # byte-identical report
        assert "restored 2 completed run(s)" in second.err

    def test_foreign_journal_fails_cleanly(self, capsys, tmp_path):
        journal = str(tmp_path / "sweep.json")
        assert main(self._BASE + ["--journal", journal]) == 0
        capsys.readouterr()
        other = self._BASE[:-1] + ["18", "--journal", journal]
        assert main(other) == 2
        assert "different sweep" in capsys.readouterr().err


class TestSimulateMetricsFlags:
    _BASE = [
        "simulate", "--strategy", "EQF",
        "--sim-time", "600", "--warmup", "60", "--seed", "42",
    ]

    def test_metrics_out_writes_series_and_output_unchanged(
        self, capsys, tmp_path
    ):
        assert main(self._BASE) == 0
        plain = capsys.readouterr().out
        path = str(tmp_path / "m.jsonl")
        assert main(
            self._BASE
            + ["--metrics-out", path, "--metrics-every-events", "500"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # emission is invisible to the table
        assert f"metrics series: " in captured.err

        from repro.system.emission import read_metrics_series

        records = read_metrics_series(path)
        assert records[0]["type"] == "header"
        assert records[-1]["type"] == "final"

    def test_table_prints_percentiles(self, capsys):
        assert main(self._BASE) == 0
        out = capsys.readouterr().out
        assert "global p99 response" in out
        assert "global p99 lateness" in out

    def test_trigger_flags_without_path_fail_cleanly(self, capsys):
        assert main(["simulate", "--metrics-every-events", "10"]) == 2
        assert "--metrics-out PATH" in capsys.readouterr().err

    def test_default_event_trigger_when_only_path_given(
        self, capsys, tmp_path
    ):
        path = str(tmp_path / "m.jsonl")
        assert main(self._BASE + ["--metrics-out", path]) == 0
        capsys.readouterr()
        from repro.system.emission import read_metrics_series

        # Default cadence is coarse (100k events), so a short run still
        # produces a valid header + final pair.
        records = read_metrics_series(path)
        assert records[0]["type"] == "header"
        assert records[-1]["type"] == "final"


class TestMetricsVerb:
    def _write_series(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        assert main([
            "simulate", "--strategy", "EQF",
            "--sim-time", "600", "--warmup", "60", "--seed", "42",
            "--metrics-out", path, "--metrics-every-events", "300",
        ]) == 0
        return path

    def test_tail(self, capsys, tmp_path):
        path = self._write_series(tmp_path)
        capsys.readouterr()
        assert main(["metrics", "tail", path]) == 0
        out = capsys.readouterr().out
        assert "MD_global" in out
        assert "p99_resp" in out

    def test_summarize(self, capsys, tmp_path):
        path = self._write_series(tmp_path)
        capsys.readouterr()
        assert main(["metrics", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "seed=42" in out
        assert "final:" in out

    def test_torn_final_record_warns_and_proceeds(self, capsys, tmp_path):
        # A run killed mid-write leaves a partial trailing record; both
        # verbs must still serve the intact prefix, with a stderr
        # warning naming the skipped tail instead of silent loss.
        path = self._write_series(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "interval", "now": 9')  # torn
        capsys.readouterr()
        assert main(["metrics", "tail", path]) == 0
        captured = capsys.readouterr()
        assert "MD_global" in captured.out
        assert "warning:" in captured.err
        assert "torn final record" in captured.err
        assert main(["metrics", "summarize", path]) == 0
        captured = capsys.readouterr()
        assert "final:" in captured.out
        assert "torn final record" in captured.err

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(
            ["metrics", "tail", str(tmp_path / "absent.jsonl")]
        ) == 2
        assert "no such metrics series" in capsys.readouterr().err

    def test_junk_file_fails_cleanly(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"type": "interval"}\n')
        assert main(["metrics", "summarize", str(bogus)]) == 2
        assert capsys.readouterr().err  # explains the rejection


class TestScenarioRunMetricsFlag:
    _BASE = [
        "scenarios", "run", "baseline",
        "--scale", "smoke", "--seed", "17",
    ]

    def test_metrics_out_report_matches_plain_run(self, capsys, tmp_path):
        assert main(self._BASE) == 0
        plain = capsys.readouterr().out
        path = str(tmp_path / "m.jsonl")
        assert main(self._BASE + ["--metrics-out", path]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # serial in-process run, same numbers
        assert "peak RSS:" in captured.err
        from repro.system.emission import read_metrics_series

        assert read_metrics_series(path)[-1]["type"] == "final"

    def test_plain_run_omits_footprint_lines(self, capsys):
        assert main(self._BASE) == 0
        err = capsys.readouterr().err
        assert "peak RSS:" not in err

    def test_metrics_out_rejects_journal(self, capsys, tmp_path):
        assert main(
            self._BASE
            + ["--metrics-out", str(tmp_path / "m.jsonl"),
               "--journal", str(tmp_path / "j.json")]
        ) == 2
        assert "--journal" in capsys.readouterr().err

    def test_report_has_p99_lateness_row(self, capsys):
        assert main(self._BASE) == 0
        assert "global p99 lateness" in capsys.readouterr().out

    def test_sweep_report_has_p99_late_column(self, capsys):
        assert main([
            "scenarios", "sweep", "--scenario", "baseline",
            "--strategies", "UD", "EQF", "--scale", "smoke", "--seed", "17",
        ]) == 0
        assert "p99_late" in capsys.readouterr().out
