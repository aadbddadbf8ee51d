"""F4 -- Fig. 4 + Sec. 5.3: PSP strategies vs. load (parallel tasks).

Paper claims checked:

* under UD, globals miss far more often than locals (paper: ~3x);
* DIV-1 keeps the two classes' miss rates at a similar level, costing
  locals only marginally compared to the global improvement;
* DIV-2 is hardly distinguishable from DIV-1;
* GF reduces MD_global by a further significant amount (Sec. 5.3).
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, render, run
from repro.experiments.runner import QUICK

from _util import save_artifact


def test_fig4_psp_strategies_vs_load(benchmark):
    figure = benchmark.pedantic(
        lambda: run(EXPERIMENTS["Fig4"], QUICK), rounds=1, iterations=1
    )
    grid = figure.grid
    at_top = {s: grid.cell(0.5, s).estimate for s in grid.strategies}

    ud = at_top["UD"]
    div1 = at_top["DIV-1"]
    div2 = at_top["DIV-2"]
    gf = at_top["GF"]

    # UD: globals miss far more often than locals.
    assert ud.md_global.mean > 1.5 * ud.md_local.mean
    # DIV-1 pulls the classes together and helps globals a lot.
    assert abs(div1.md_global.mean - div1.md_local.mean) < abs(
        ud.md_global.mean - ud.md_local.mean
    )
    assert div1.md_global.mean < ud.md_global.mean - 0.05
    # ... at only a marginal local cost.
    local_cost = div1.md_local.mean - ud.md_local.mean
    global_gain = ud.md_global.mean - div1.md_global.mean
    assert local_cost < global_gain
    # DIV-2 is hardly distinguishable from DIV-1.
    assert abs(div2.md_global.mean - div1.md_global.mean) < 0.05
    # GF further reduces the global miss rate significantly.
    assert gf.md_global.mean < div1.md_global.mean * 0.85

    # Miss ratios grow with load for every strategy.
    for strategy in grid.strategies:
        series = grid.series(strategy, "global")
        assert series[0] < series[-1]

    text = render(figure)
    save_artifact("fig4", text)
    print("\n" + text)
