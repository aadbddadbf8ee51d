"""F2 -- Fig. 2a/2b: the four SSP strategies vs. load (serial tasks).

Paper claims checked:

* 2a: local miss ratios are nearly strategy-independent;
* 2b: at high load UD is worst for globals and EQF/EQS best, ED between;
* at load 0.5, MD_global(UD) is much larger than MD_local(UD)
  (the paper reads ~40% vs ~24% off the figure).
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, render, run
from repro.experiments.runner import QUICK

from _util import save_artifact


def test_fig2_ssp_strategies_vs_load(benchmark):
    figure = benchmark.pedantic(
        lambda: run(EXPERIMENTS["Fig2"], QUICK), rounds=1, iterations=1
    )
    grid = figure.grid

    # -- Fig. 2b shape at the highest load ---------------------------------
    ud = grid.cell(0.5, "UD").estimate
    ed = grid.cell(0.5, "ED").estimate
    eqs = grid.cell(0.5, "EQS").estimate
    eqf = grid.cell(0.5, "EQF").estimate

    # UD discriminates against globals: point A (~40%) vs point B (~24%).
    assert ud.md_global.mean > 1.4 * ud.md_local.mean
    # EQF (and EQS) significantly beat UD on global misses.
    assert eqf.md_global.mean < ud.md_global.mean - 0.03
    assert eqs.md_global.mean < ud.md_global.mean - 0.03
    # ED lies between UD and EQF (with a small statistical allowance).
    assert eqf.md_global.mean - 0.03 <= ed.md_global.mean <= ud.md_global.mean + 0.03
    # EQS performs very close to EQF.
    assert abs(eqs.md_global.mean - eqf.md_global.mean) < 0.04

    # -- Fig. 2a shape: locals barely affected ------------------------------
    locals_at_half = [
        grid.cell(0.5, s).estimate.md_local.mean
        for s in ("UD", "ED", "EQS", "EQF")
    ]
    assert max(locals_at_half) - min(locals_at_half) < 0.05

    # -- monotone in load for every strategy --------------------------------
    for strategy in grid.strategies:
        series = grid.series(strategy, "global")
        assert series[0] < series[-1]

    # -- light load: strategies indistinguishable ----------------------------
    lightest = [grid.cell(0.1, s).estimate.md_global.mean
                for s in grid.strategies]
    assert max(lightest) - min(lightest) < 0.04

    text = render(figure)
    save_artifact("fig2", text)
    print("\n" + text)
