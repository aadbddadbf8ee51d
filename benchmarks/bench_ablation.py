"""Ablation benches for two design knobs the paper leaves open.

* **EQF-AS** (Sec. 7 future work): does adding artificial stages to the
  EQF denominator help tight tasks?  We sweep phantom stage counts at the
  baseline and at tight slack (rel_flex = 0.5), recording the measured
  miss ratios.  The paper only *conjectures* this helps; the bench archives
  what our system measures either way and asserts sanity bounds only.
* **DIV-x sweep**: the paper studies x = 1 and x = 2 and asks "how to set
  x" (deferred to [7]).  We sweep x over {0.5, 1, 2, 4} and assert the
  paper's reported saturation: beyond x = 1 the gains are marginal.
"""

from __future__ import annotations

from repro.experiments.runner import RunScale, replicate
from repro.stats.tables import format_percent, render_table
from repro.system.config import baseline_config, parallel_baseline_config

from _util import save_artifact

SCALE = RunScale(sim_time=24_000.0, warmup_time=2_400.0, replications=2,
                 label="ablation")


def run_point(config):
    return replicate(SCALE.apply(config), replications=SCALE.replications)


def test_eqf_artificial_stages(benchmark):
    """EQF vs EQFAS1 vs EQFAS2, at baseline slack and at tight slack."""

    def run():
        rows = []
        estimates = {}
        for rel_flex, label in ((1.0, "baseline slack"), (0.5, "tight slack")):
            for strategy in ("EQF", "EQFAS1", "EQFAS2"):
                estimate = run_point(
                    baseline_config(strategy=strategy, rel_flex=rel_flex, seed=61)
                )
                estimates[(label, strategy)] = estimate
                rows.append(
                    [
                        label,
                        strategy,
                        format_percent(estimate.md_local.mean),
                        format_percent(estimate.md_global.mean),
                    ]
                )
        return rows, estimates

    rows, estimates = benchmark.pedantic(run, rounds=1, iterations=1)

    # Sanity: every cell is a real measurement.
    for estimate in estimates.values():
        assert 0.0 <= estimate.md_global.mean <= 1.0
        assert estimate.global_completed > 500
    # The damped variants must stay in EQF's neighbourhood -- they are a
    # refinement, not a regression to UD-like behaviour.
    for label in ("baseline slack", "tight slack"):
        eqf = estimates[(label, "EQF")].md_global.mean
        for strategy in ("EQFAS1", "EQFAS2"):
            assert abs(estimates[(label, strategy)].md_global.mean - eqf) < 0.08

    text = render_table(
        ["setting", "strategy", "MD_local", "MD_global"],
        rows,
        title="Ablation: EQF artificial stages (Sec. 7 future work)",
    )
    save_artifact("ablation_eqf_as", text)
    print("\n" + text)


def test_preemption_ablation(benchmark):
    """Non-preemptive (the paper's model) vs preemptive-resume servers.

    Expectation: preemption rescues short local tasks from waiting behind
    long-running work, so MD_local drops markedly; the SSP ordering
    (EQF < UD for globals) persists either way.
    """

    def run():
        estimates = {}
        for preemptive in (False, True):
            for strategy in ("UD", "EQF"):
                estimates[(preemptive, strategy)] = run_point(
                    baseline_config(strategy=strategy, preemptive=preemptive,
                                    seed=63)
                )
        return estimates

    estimates = benchmark.pedantic(run, rounds=1, iterations=1)

    for strategy in ("UD", "EQF"):
        blocking = estimates[(False, strategy)]
        preemptive = estimates[(True, strategy)]
        # Preemption helps the short local tasks substantially.
        assert preemptive.md_local.mean < blocking.md_local.mean - 0.03
    # The paper's SSP conclusion survives preemption.
    assert (
        estimates[(True, "EQF")].md_global.mean
        < estimates[(True, "UD")].md_global.mean
    )

    rows = [
        [
            "preemptive" if preemptive else "non-preemptive",
            strategy,
            format_percent(estimate.md_local.mean),
            format_percent(estimate.md_global.mean),
        ]
        for (preemptive, strategy), estimate in estimates.items()
    ]
    text = render_table(
        ["server model", "strategy", "MD_local", "MD_global"],
        rows,
        title="Ablation: non-preemptive (paper) vs preemptive-resume servers",
    )
    save_artifact("ablation_preemption", text)
    print("\n" + text)


def test_div_x_sweep(benchmark):
    """How to set x in DIV-x: gains saturate past x = 1."""

    def run():
        estimates = {}
        for x in ("DIV-0.5", "DIV-1", "DIV-2", "DIV-4"):
            estimates[x] = run_point(
                parallel_baseline_config(strategy=x, seed=62)
            )
        return estimates

    estimates = benchmark.pedantic(run, rounds=1, iterations=1)

    div_half = estimates["DIV-0.5"].md_global.mean
    div1 = estimates["DIV-1"].md_global.mean
    div2 = estimates["DIV-2"].md_global.mean
    div4 = estimates["DIV-4"].md_global.mean

    # x = 0.5 under-promotes: noticeably worse than x = 1.
    assert div_half > div1
    # Past x = 1 the changes are marginal (the paper's Fig. 4 finding).
    assert abs(div2 - div1) < 0.05
    assert abs(div4 - div2) < 0.05

    rows = [
        [name, format_percent(e.md_local.mean), format_percent(e.md_global.mean)]
        for name, e in estimates.items()
    ]
    text = render_table(
        ["strategy", "MD_local", "MD_global"],
        rows,
        title="Ablation: choosing x in DIV-x (parallel baseline, load 0.5)",
    )
    save_artifact("ablation_div_x", text)
    print("\n" + text)
