"""T1 -- Table 1: the baseline setting.

Regenerates the baseline parameter table (including the derived arrival
rates, which the paper leaves implicit) and benchmarks one baseline
simulation run: the cost of a data point at QUICK scale.
"""

from __future__ import annotations

import pytest

from repro.stats.tables import render_table
from repro.system.config import baseline_config, expected_frac_local
from repro.system.simulation import simulate

from _util import save_artifact


def render_table1() -> str:
    config = baseline_config()
    rows = [
        ["Overload Management Policy", "No Abort"],
        ["Local Scheduling Algorithm", "Earliest Deadline First"],
        ["mu_subtask", config.mu_subtask],
        ["mu_local", config.mu_local],
        ["k (# of nodes)", config.node_count],
        ["m (# of subtasks of a global task)", config.subtask_count],
        ["load", config.load],
        ["frac_local", config.frac_local],
        ["[Smin, Smax]", str(list(config.slack_range))],
        ["rel_flex", config.rel_flex],
        ["pex(X)/ex(X)", 1.0],
        ["derived lambda_local (per node)", config.local_arrival_rate],
        ["derived lambda_global", config.global_arrival_rate],
    ]
    return render_table(["parameter", "value"], rows,
                        title="Table 1: baseline setting")


def test_table1_baseline_run(benchmark):
    """Benchmark one QUICK-scale baseline data-point run and check that the
    realized utilization matches the configured load (Table 1's load=0.5)."""
    config = baseline_config(sim_time=24_000.0, warmup_time=2_400.0, seed=1)

    # The local share of the load must invert exactly ...
    assert expected_frac_local(config) == pytest.approx(config.frac_local)

    result = benchmark.pedantic(lambda: simulate(config), rounds=1, iterations=1)

    # ... and the simulated system must realize it.
    assert result.mean_utilization == pytest.approx(0.5, abs=0.03)

    text = render_table1() + "\n\n" + render_table(
        ["measured quantity", "value"],
        [
            ["mean node utilization", f"{result.mean_utilization:.4f}"],
            ["local tasks finished", result.local.completed],
            ["global tasks finished", result.global_.completed],
            ["MD_local (UD)", f"{result.md_local:.4f}"],
            ["MD_global (UD)", f"{result.md_global:.4f}"],
        ],
        title="Baseline run at QUICK scale (UD strategy)",
    )
    save_artifact("table1", text)
    print("\n" + text)
