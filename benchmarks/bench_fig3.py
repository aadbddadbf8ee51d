"""F3 -- Fig. 3: effect of varying the fraction of local tasks.

Paper claims checked:

* MD_global(UD) increases with frac_local (global tasks face ever more
  local-task competition and are discriminated against more and more);
* MD_local(UD) also increases, to a smaller extent;
* the EQF curves hardly change as frac_local varies.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, render, run
from repro.experiments.runner import QUICK

from _util import save_artifact


def test_fig3_frac_local_sweep(benchmark):
    figure = benchmark.pedantic(
        lambda: run(EXPERIMENTS["Fig3"], QUICK), rounds=1, iterations=1
    )
    grid = figure.grid

    ud_global = grid.series("UD", "global")
    ud_local = grid.series("UD", "local")
    eqf_global = grid.series("EQF", "global")
    eqf_local = grid.series("EQF", "local")

    # UD's global miss ratio grows markedly across the sweep.
    assert ud_global[-1] > ud_global[0] + 0.05
    # UD's local miss ratio grows too, but by less than the global one.
    assert ud_local[-1] >= ud_local[0] - 0.02
    assert (ud_global[-1] - ud_global[0]) > (ud_local[-1] - ud_local[0])
    # EQF's curves are nearly flat ("hardly change").
    assert max(eqf_global) - min(eqf_global) < 0.08
    assert max(eqf_local) - min(eqf_local) < 0.08
    # At the local-dominated end UD discriminates hard; EQF does not.
    ud_gap = ud_global[-1] - ud_local[-1]
    eqf_gap = eqf_global[-1] - eqf_local[-1]
    assert ud_gap > eqf_gap + 0.05

    text = render(figure)
    save_artifact("fig3", text)
    print("\n" + text)
