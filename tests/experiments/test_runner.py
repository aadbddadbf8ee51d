"""Unit tests for the experiment runner (repro.experiments.runner).

A fake runner replaces the real simulation so these tests are instant and
deterministic: it returns canned RunResults keyed off the config.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.runner import (
    FULL,
    QUICK,
    SCALES,
    SMOKE,
    RunScale,
    replicate,
    strategy_grid,
)
from repro.system.config import baseline_config
from repro.system.metrics import ClassStats, RunResult


def fake_result(md_local=0.2, md_global=0.4, completed=100):
    def stats(miss_ratio):
        missed = int(round(miss_ratio * completed))
        return ClassStats(
            completed=completed, missed=missed, aborted=0,
            mean_response=1.0, mean_lateness=0.0, mean_waiting=0.5,
        )

    return RunResult(
        sim_time=1000.0,
        warmup=100.0,
        per_class={"local": stats(md_local), "global": stats(md_global)},
        per_node=[],
    )


def load_rows(values):
    """A load axis over the Table 1 baseline, each row labelled by its load."""
    return [(load, baseline_config(load=load)) for load in values]


class TestRunScale:
    def test_presets_registered(self):
        assert set(SCALES) == {"smoke", "quick", "full"}

    def test_full_matches_paper(self):
        assert FULL.sim_time == 1_000_000.0
        assert FULL.replications == 2

    def test_apply_stamps_run_lengths(self):
        config = SMOKE.apply(baseline_config())
        assert config.sim_time == SMOKE.sim_time
        assert config.warmup_time == SMOKE.warmup_time

    def test_bad_replications_rejected(self):
        with pytest.raises(ValueError):
            RunScale(sim_time=10.0, warmup_time=1.0, replications=0)

    def test_bad_warmup_rejected(self):
        with pytest.raises(ValueError):
            RunScale(sim_time=10.0, warmup_time=10.0, replications=1)


class TestReplicate:
    def test_aggregates_runs(self):
        seeds = []

        def runner(config):
            seeds.append(config.seed)
            return fake_result(md_local=0.2, md_global=0.4)

        estimate = replicate(baseline_config(seed=3), replications=4, runner=runner)
        assert len(seeds) == 4
        assert len(set(seeds)) == 4  # distinct seeds per replication
        assert estimate.md_local.mean == pytest.approx(0.2)
        assert estimate.md_global.mean == pytest.approx(0.4)
        assert estimate.md_global.n == 4
        assert estimate.local_completed == 400

    def test_gap(self):
        estimate = replicate(
            baseline_config(), replications=2,
            runner=lambda c: fake_result(md_local=0.1, md_global=0.35),
        )
        assert estimate.gap == pytest.approx(0.25)

    def test_single_replication_infinite_ci(self):
        estimate = replicate(
            baseline_config(), replications=1, runner=lambda c: fake_result()
        )
        assert math.isinf(estimate.md_local.half_width)

    def test_variance_reflected_in_ci(self):
        results = iter([fake_result(md_local=0.1), fake_result(md_local=0.3)])
        estimate = replicate(
            baseline_config(), replications=2, runner=lambda c: next(results)
        )
        assert estimate.md_local.mean == pytest.approx(0.2)
        assert estimate.md_local.half_width > 0

    def test_parallel_workers_match_serial(self):
        """workers > 1 must reproduce the serial result exactly (the seeds
        are fixed up front, so process scheduling cannot leak in)."""
        config = baseline_config(sim_time=800.0, warmup_time=80.0, seed=5)
        serial = replicate(config, replications=2, workers=1)
        parallel = replicate(config, replications=2, workers=2)
        assert parallel.md_local.mean == serial.md_local.mean
        assert parallel.md_global.mean == serial.md_global.mean
        assert parallel.local_completed == serial.local_completed

    def test_workers_with_injected_runner_warns_and_runs_serially(self):
        """An injected runner cannot cross process boundaries; asking for
        workers anyway must be loud (a RuntimeWarning), not silent."""
        calls = []

        def runner(config):
            calls.append(config.seed)
            return fake_result()

        with pytest.warns(RuntimeWarning, match="picklable"):
            estimate = replicate(
                baseline_config(seed=3), replications=3, runner=runner,
                workers=4,
            )
        assert len(calls) == 3
        assert estimate.md_local.n == 3

    def test_forked_pool_path_matches_serial(self, monkeypatch):
        """Force the process-pool branch (pool size is capped at the host's
        cpu_count, so a 1-CPU box would otherwise run serially) and check
        the forked results -- including config/result pickling -- match."""
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(
            runner_mod.multiprocessing, "cpu_count", lambda: 2
        )
        config = baseline_config(sim_time=400.0, warmup_time=40.0, seed=5)
        serial = replicate(config, replications=2, workers=1)
        pooled = replicate(config, replications=2, workers=2)
        assert pooled.md_local.mean == serial.md_local.mean
        assert pooled.md_global.mean == serial.md_global.mean
        assert pooled.local_completed == serial.local_completed

    def test_workers_zero_means_all_cores(self):
        from repro.experiments.runner import resolve_workers
        import multiprocessing

        assert resolve_workers(0) == multiprocessing.cpu_count()
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestBatchExecutor:
    def test_run_config_batch_preserves_order(self):
        """One warm-interpreter batch returns results positionally."""
        from repro.experiments.runner import run_config_batch

        configs = [
            baseline_config(sim_time=400.0, warmup_time=40.0, seed=s)
            for s in (5, 6)
        ]
        batch = run_config_batch(configs)
        singles = [run_config_batch([config])[0] for config in configs]
        assert batch == singles

    def test_batched_pool_matches_serial(self, monkeypatch):
        """Force the process-pool branch and check the batched grid --
        including the batch slicing and result flattening -- reproduces
        the serial sweep bit for bit when the batches hold several runs."""
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(
            runner_mod.multiprocessing, "cpu_count", lambda: 2
        )
        batch_sizes = []
        run_batches = runner_mod._run_batches_resilient

        def spy(batches, processes, on_batch=None):
            batch_sizes.extend(len(batch) for batch in batches)
            return run_batches(batches, processes, on_batch)

        monkeypatch.setattr(runner_mod, "_run_batches_resilient", spy)
        scale = RunScale(sim_time=400.0, warmup_time=40.0, replications=2)
        kwargs = dict(
            rows=load_rows([0.2, 0.3, 0.4]),
            strategies=["UD", "EQF"],
            scale=scale,
        )
        serial = strategy_grid(**kwargs)
        assert batch_sizes == []
        batched = strategy_grid(**kwargs, workers=2)
        # 12 runs on 2 workers: about four batches per worker.
        assert batch_sizes == [2] * 6
        assert batched.cells == serial.cells

class TestSweep:
    def test_grid_shape(self):
        result = strategy_grid(
            load_rows([0.1, 0.3]),
            strategies=["UD", "EQF"],
            scale=RunScale(sim_time=10, warmup_time=0, replications=1),
            runner=lambda c: fake_result(),
        )
        assert len(result.cells) == 4
        assert result.rows == [0.1, 0.3]
        assert result.strategies == ["UD", "EQF"]

    def test_config_carries_parameters(self):
        seen = []

        def runner(config):
            seen.append((config.load, config.strategy))
            return fake_result()

        strategy_grid(
            load_rows([0.1, 0.3]),
            strategies=["UD"],
            scale=RunScale(sim_time=10, warmup_time=0, replications=1),
            runner=runner,
        )
        assert set(seen) == {(0.1, "UD"), (0.3, "UD")}

    def test_series_extraction(self):
        def runner(config):
            # Make MD_global a function of (load, strategy) to check routing.
            md = config.load + (0.1 if config.strategy == "UD" else 0.0)
            return fake_result(md_global=md, md_local=md / 2)

        result = strategy_grid(
            load_rows([0.1, 0.3]),
            strategies=["UD", "EQF"],
            scale=RunScale(sim_time=10, warmup_time=0, replications=1),
            runner=runner,
        )
        assert result.series("UD", "global") == pytest.approx([0.2, 0.4])
        assert result.series("EQF", "global") == pytest.approx([0.1, 0.3])
        assert result.series("UD", "local") == pytest.approx([0.1, 0.2])

    def test_point_lookup(self):
        result = strategy_grid(
            load_rows([0.1]),
            strategies=["UD"],
            scale=RunScale(sim_time=10, warmup_time=0, replications=1),
            runner=lambda c: fake_result(),
        )
        assert result.cell(0.1, "UD").strategy == "UD"
        with pytest.raises(KeyError):
            result.cell(0.9, "UD")

    def test_distinct_seeds_across_grid(self):
        seeds = []
        strategy_grid(
            load_rows([0.1, 0.2, 0.3]),
            strategies=["UD", "EQF"],
            scale=RunScale(sim_time=10, warmup_time=0, replications=2),
            runner=lambda c: (seeds.append(c.seed), fake_result())[1],
        )
        assert len(seeds) == len(set(seeds)) == 12

    def test_grid_parallel_sweep_matches_serial(self):
        """strategy_grid(workers>1) flattens the whole grid into one pool
        and must reproduce the single-worker grid bit-for-bit."""
        scale = RunScale(sim_time=500.0, warmup_time=50.0, replications=2)
        kwargs = dict(
            rows=load_rows([0.2, 0.4]),
            strategies=["UD", "EQF"],
            scale=scale,
        )
        serial = strategy_grid(**kwargs)
        parallel = strategy_grid(**kwargs, workers=4)
        assert parallel.cells == serial.cells


class TestStrategyGrid:
    def test_seed_rule_and_row_configs(self):
        """Cell (ri, si) runs row ri's config under strategy si with base
        seed ``seed + 1_000 * ri + si``, in row-major order."""
        seen = []

        def runner(config):
            seen.append((config.load, config.strategy, config.seed))
            return fake_result()

        grid = strategy_grid(
            [("light", baseline_config(load=0.1)),
             ("heavy", baseline_config(load=0.5))],
            ["UD", "EQF", "ED"],
            scale=RunScale(sim_time=10, warmup_time=0, replications=1),
            seed=7,
            runner=runner,
        )
        assert seen == [
            (0.1, "UD", 70_000), (0.1, "EQF", 80_000), (0.1, "ED", 90_000),
            (0.5, "UD", 10_070_000), (0.5, "EQF", 10_080_000),
            (0.5, "ED", 10_090_000),
        ]
        assert grid.rows == ["light", "heavy"]
        assert grid.strategies == ["UD", "EQF", "ED"]
        assert [(c.row, c.strategy) for c in grid.cells] == [
            ("light", "UD"), ("light", "EQF"), ("light", "ED"),
            ("heavy", "UD"), ("heavy", "EQF"), ("heavy", "ED"),
        ]
        assert grid.cell("heavy", "EQF") is grid.cells[4]
        assert grid.cell("heavy", "EQF").estimate.config.seed == 1_008

    def test_repeated_row_or_strategy_rejected(self):
        """Cells are looked up by (row, strategy): a repeat would hide a
        cell behind its twin."""
        scale = RunScale(sim_time=10, warmup_time=0, replications=1)
        config = baseline_config()
        with pytest.raises(ValueError, match="row labels"):
            strategy_grid([("a", config), ("a", config)], ["UD"], scale,
                          runner=lambda c: fake_result())
        with pytest.raises(ValueError, match="strategies"):
            strategy_grid([("a", config)], ["UD", "UD"], scale,
                          runner=lambda c: fake_result())

    def test_empty_rows_or_strategies_rejected(self):
        """An empty grid is refused for every caller, not only sweeps."""
        scale = RunScale(sim_time=10, warmup_time=0, replications=1)
        with pytest.raises(ValueError, match="at least one row"):
            strategy_grid([], ["UD"], scale, runner=lambda c: fake_result())
        with pytest.raises(ValueError, match="at least one strategy"):
            strategy_grid([("a", baseline_config())], [], scale,
                          runner=lambda c: fake_result())
