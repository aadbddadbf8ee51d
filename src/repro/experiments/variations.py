"""The Sec. 4.2.2 / 4.3 model variations ("we have conducted extensive
experiments in which these assumptions are relaxed").

The paper summarizes six robustness checks without plots; each function
here runs one of them and returns a :class:`VariationResult` whose grid can
be printed and asserted on:

* V1 :func:`pex_error_sweep`       -- random error in execution estimates;
* V2 :func:`abort_policy_comparison` -- tardy tasks aborted at dispatch;
* V3 :func:`scheduler_comparison`  -- minimum-laxity-first local scheduler;
* V4 :func:`variable_subtasks`     -- per-task random subtask counts;
* V5 :func:`heterogeneous_nodes`   -- skewed per-node local loads;
* V6 :func:`slack_sweep`           -- EQF's edge vs. slack tightness
  ("EQF wins big in the intermediate range", Sec. 4.3).

The paper's conclusion for V1-V5 is that "the results do not change the
basic conclusions"; the corresponding benches assert exactly that: EQF
still beats UD on global miss ratio under every variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..stats.tables import format_percent, render_table
from ..system.config import SystemConfig, baseline_config
from .runner import QUICK, RunScale, StrategyGrid, strategy_grid


@dataclass(frozen=True)
class VariationResult:
    """A variation experiment's (setting x strategy) grid plus rendering."""

    variation_id: str
    title: str
    grid: StrategyGrid

    def table(self) -> str:
        headers = ["setting", "strategy", "MD_local", "MD_global", "gap"]
        body: List[List[object]] = [
            [
                cell.row,
                cell.strategy,
                format_percent(cell.estimate.md_local.mean),
                format_percent(cell.estimate.md_global.mean),
                format_percent(cell.estimate.gap),
            ]
            for cell in self.grid.cells
        ]
        return render_table(headers, body, title=f"{self.variation_id}: {self.title}")


def _run_grid(
    variation_id: str,
    title: str,
    settings: Sequence[Tuple[str, Callable[[SystemConfig], SystemConfig]]],
    strategies: Sequence[str],
    scale: RunScale,
    workers: int = 1,
) -> VariationResult:
    """Run a (setting x strategy) grid over the Table 1 baseline.

    ``settings`` is a list of ``(label, config_transform)`` pairs where the
    transform maps the baseline config to the varied config.  ``workers``
    (``0`` = all cores) fans the whole grid out over one process pool (see
    :func:`repro.experiments.runner.strategy_grid`).
    """
    base = baseline_config()
    grid = strategy_grid(
        [(label, transform(base)) for label, transform in settings],
        strategies, scale=scale, seed=base.seed, workers=workers,
    )
    return VariationResult(variation_id=variation_id, title=title, grid=grid)


def pex_error_sweep(
    errors: Sequence[float] = (0.0, 0.25, 0.5, 0.9),
    strategies: Sequence[str] = ("UD", "EQF"),
    scale: RunScale = QUICK,
    workers: int = 1,
) -> VariationResult:
    """V1: random error in execution-time predictions.

    ``pex = ex * U[1 - e, 1 + e]``.  UD ignores estimates entirely, so its
    rows double as a control: they should move only by noise.
    """
    settings = [
        (f"error={e:g}", _setter(pex_error=e)) for e in errors
    ]
    return _run_grid(
        "V1", "random error in execution time estimates",
        settings, strategies, scale, workers=workers,
    )


def abort_policy_comparison(
    strategies: Sequence[str] = ("UD", "EQF"),
    scale: RunScale = QUICK,
    workers: int = 1,
) -> VariationResult:
    """V2: firm overload management (tardy tasks aborted at dispatch).

    Three settings: the baseline (run-to-completion), the sensible firm
    policy (abort work past its *natural* end-to-end deadline), and the
    blind firm policy (abort work past its *virtual* deadline).  The last
    one is the component behaviour the paper warns about for GF; our
    measurements show it also punishes EQF, whose tight virtual deadlines
    turn into spurious aborts of still-viable global tasks.
    """
    settings = [
        ("no-abort", _setter(overload_policy="no-abort")),
        ("abort-tardy", _setter(overload_policy="abort-tardy")),
        ("abort-virtual", _setter(overload_policy="abort-virtual")),
    ]
    return _run_grid(
        "V2", "overload policy: no-abort vs abort-tardy vs abort-virtual",
        settings, strategies, scale, workers=workers,
    )


def scheduler_comparison(
    strategies: Sequence[str] = ("UD", "EQF"),
    scale: RunScale = QUICK,
    workers: int = 1,
) -> VariationResult:
    """V3: minimum-laxity-first (and FCFS control) local schedulers."""
    settings = [
        ("EDF", _setter(scheduler="EDF")),
        ("MLF", _setter(scheduler="MLF")),
        ("FCFS", _setter(scheduler="FCFS")),
    ]
    return _run_grid(
        "V3", "local scheduling algorithm",
        settings, strategies, scale, workers=workers,
    )


def variable_subtasks(
    strategies: Sequence[str] = ("UD", "EQF"),
    scale: RunScale = QUICK,
    workers: int = 1,
) -> VariationResult:
    """V4: global tasks with a random number of subtasks (U{2..6})."""
    settings = [
        ("m=4 fixed", _setter(subtask_count_range=None)),
        ("m~U{2..6}", _setter(subtask_count_range=(2, 6))),
    ]
    return _run_grid(
        "V4", "variable number of subtasks per global task",
        settings, strategies, scale, workers=workers,
    )


def heterogeneous_nodes(
    strategies: Sequence[str] = ("UD", "EQF"),
    scale: RunScale = QUICK,
    workers: int = 1,
) -> VariationResult:
    """V5: some nodes carry higher local loads than others.

    The skewed setting gives two nodes double and two nodes half the
    average local arrival rate, keeping the total local load constant.
    """
    skew = (2.0, 2.0, 1.0, 1.0, 0.5, 0.5)
    settings = [
        ("homogeneous", _setter(local_load_weights=None)),
        ("skewed 2:2:1:1:.5:.5", _setter(local_load_weights=skew)),
    ]
    return _run_grid(
        "V5", "heterogeneous per-node local loads",
        settings, strategies, scale, workers=workers,
    )


def slack_sweep(
    flex_values: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    strategies: Sequence[str] = ("UD", "EQF"),
    scale: RunScale = QUICK,
    workers: int = 1,
) -> VariationResult:
    """V6: EQF's advantage across slack tightness (``rel_flex`` sweep).

    The paper: "if slack is too tight ... many deadlines will be missed
    [whatever the policy]; if slack is too loose ... all tasks make their
    deadlines; in the intermediate range a smart SSP policy can make a
    difference and this is where EQF wins big."
    """
    settings = [
        (f"rel_flex={f:g}", _setter(rel_flex=f)) for f in flex_values
    ]
    return _run_grid(
        "V6", "EQF gain across slack tightness",
        settings, strategies, scale, workers=workers,
    )


def _setter(**overrides) -> Callable[[SystemConfig], SystemConfig]:
    """Make a config transform applying fixed overrides."""

    def transform(config: SystemConfig) -> SystemConfig:
        return config.with_(**overrides)

    return transform


#: All variations keyed by their experiment id.
VARIATIONS = {
    "V1": pex_error_sweep,
    "V2": abort_policy_comparison,
    "V3": scheduler_comparison,
    "V4": variable_subtasks,
    "V5": heterogeneous_nodes,
    "V6": slack_sweep,
}
