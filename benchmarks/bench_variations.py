"""V1-V6 -- the Sec. 4.3 model variations.

The paper's summary: "the results do not change the basic conclusions" --
EQF keeps beating UD under imperfect estimates, tardy-abort overload
management, a minimum-laxity-first scheduler, variable subtask counts, and
heterogeneous node loads.  V6 checks the Sec. 4.3 slack claim: EQF's gain
is largest at moderate slack and vanishes at the extremes.

Each bench regenerates the corresponding comparison table and asserts the
conclusion it supports.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, render, run
from repro.experiments.runner import RunScale

from _util import save_artifact

#: Variations run a grid of settings x strategies; one replication per cell
#: keeps the full file under a couple of minutes while the claims asserted
#: here stay stable (they compare strategies within the same cell seed).
SCALE = RunScale(sim_time=24_000.0, warmup_time=2_400.0, replications=1,
                 label="bench")


def gap(result, setting):
    """MD_global(UD) - MD_global(EQF) at one setting."""
    ud = result.grid.cell(setting, "UD").estimate.md_global.mean
    eqf = result.grid.cell(setting, "EQF").estimate.md_global.mean
    return ud - eqf


def test_v1_pex_error(benchmark):
    result = benchmark.pedantic(
        lambda: run(EXPERIMENTS["V1"], SCALE), rounds=1, iterations=1
    )
    # EQF beats UD at every error level, including heavy 90% error.
    for setting in ("error=0", "error=0.25", "error=0.5", "error=0.9"):
        assert gap(result, setting) > 0, f"EQF lost at {setting}"
    text = render(result)
    save_artifact("v1_pex_error", text)
    print("\n" + text)


def test_v2_abort_policy(benchmark):
    result = benchmark.pedantic(
        lambda: run(EXPERIMENTS["V2"], SCALE), rounds=1, iterations=1
    )
    # The conclusion holds without aborts and with natural-deadline aborts.
    assert gap(result, "no-abort") > 0
    assert gap(result, "abort-tardy") > 0
    # The blind virtual-deadline abort punishes EQF (the GF caveat,
    # generalized): its gain disappears or reverses.
    assert gap(result, "abort-virtual") < gap(result, "abort-tardy")
    text = render(result)
    save_artifact("v2_abort_policy", text)
    print("\n" + text)


def test_v3_scheduler(benchmark):
    result = benchmark.pedantic(
        lambda: run(EXPERIMENTS["V3"], SCALE), rounds=1, iterations=1
    )
    # EQF wins under EDF and MLF.  Under FCFS deadlines are ignored, so the
    # strategies must tie up to noise -- a control cell.
    assert gap(result, "EDF") > 0
    assert gap(result, "MLF") > 0
    assert abs(gap(result, "FCFS")) < 0.05
    text = render(result)
    save_artifact("v3_scheduler", text)
    print("\n" + text)


def test_v4_variable_subtasks(benchmark):
    result = benchmark.pedantic(
        lambda: run(EXPERIMENTS["V4"], SCALE), rounds=1, iterations=1
    )
    assert gap(result, "m=4 fixed") > 0
    assert gap(result, "m~U{2..6}") > 0
    text = render(result)
    save_artifact("v4_variable_subtasks", text)
    print("\n" + text)


def test_v5_heterogeneous_nodes(benchmark):
    result = benchmark.pedantic(
        lambda: run(EXPERIMENTS["V5"], SCALE), rounds=1, iterations=1
    )
    assert gap(result, "homogeneous") > 0
    assert gap(result, "skewed 2:2:1:1:.5:.5") > 0
    text = render(result)
    save_artifact("v5_heterogeneous_nodes", text)
    print("\n" + text)


def test_v6_slack_sweep(benchmark):
    result = benchmark.pedantic(
        lambda: run(EXPERIMENTS["V6"], SCALE), rounds=1, iterations=1
    )
    # "In the intermediate range a smart SSP policy can make a difference
    # and this is where EQF wins big": the gain at moderate slack exceeds
    # the gains at both extremes.
    tight = gap(result, "rel_flex=0.25")
    moderate = max(gap(result, "rel_flex=1"), gap(result, "rel_flex=2"))
    loose = gap(result, "rel_flex=8")
    assert moderate > tight - 0.02
    assert moderate > loose
    # At very loose slack everyone meets deadlines: tiny miss ratios.
    eqf_loose = result.grid.cell("rel_flex=8", "EQF").estimate.md_global.mean
    assert eqf_loose < 0.05
    text = render(result)
    save_artifact("v6_slack_sweep", text)
    print("\n" + text)
