"""S6 -- Sec. 6: SSP x PSP combinations on serial-parallel tasks.

Paper claims checked:

* UD-UD misses vastly more global deadlines than local ones;
* applying either EQF or DIV-1 significantly reduces MD_global with a
  mild increase of MD_local;
* applied together the benefits are additive: EQF-DIV1 keeps MD_global
  close to MD_local even under the highest load of the sweep.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, render, run
from repro.experiments.runner import QUICK

from _util import save_artifact


def test_sec6_combined_strategies(benchmark):
    figure = benchmark.pedantic(
        lambda: run(EXPERIMENTS["Sec6"], QUICK), rounds=1, iterations=1
    )
    grid = figure.grid
    # The paper's "high load" is the Table 1 baseline (0.5); the sweep also
    # includes an overloaded point (0.7) where *relative* orderings must
    # still hold even though nobody stays close to the locals anymore.
    at_half = {s: grid.cell(0.5, s).estimate for s in grid.strategies}

    udud = at_half["UD-UD"]
    uddiv = at_half["UD-DIV1"]
    eqfud = at_half["EQF-UD"]
    both = at_half["EQF-DIV1"]

    # UD-UD discriminates hard against global tasks.
    assert udud.md_global.mean > 1.25 * udud.md_local.mean
    # Each fix alone reduces the global miss ratio.
    assert uddiv.md_global.mean < udud.md_global.mean - 0.02
    assert eqfud.md_global.mean < udud.md_global.mean - 0.02
    # ... with only a mild local increase.
    assert uddiv.md_local.mean < udud.md_local.mean + 0.05
    assert eqfud.md_local.mean < udud.md_local.mean + 0.05
    # Together they are additive: best global miss ratio of the four, and
    # MD_global stays close to MD_local at the paper's high load.
    assert both.md_global.mean <= min(
        udud.md_global.mean, uddiv.md_global.mean, eqfud.md_global.mean
    ) + 0.01
    assert abs(both.md_global.mean - both.md_local.mean) < 0.08

    # At every load the combined strategy shrinks UD-UD's class gap
    # substantially (at least 40%), including the overloaded point.
    for load in grid.rows:
        base = grid.cell(load, "UD-UD").estimate
        combo = grid.cell(load, "EQF-DIV1").estimate
        assert combo.gap < 0.6 * base.gap + 0.02

    text = render(figure)
    save_artifact("sec6_ssp_psp", text)
    print("\n" + text)
