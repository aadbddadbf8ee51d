"""Experiments as data: one declaration, one runner, one renderer.

Every result of the paper's evaluation (Figs. 2-4, the Sec. 6
combinations, the six Sec. 4.3 variations) and every scenario sweep is a
(row x strategy) grid.  An :class:`Experiment` declares one such grid as
a value: a base config, ``(label, overrides)`` rows over it, a strategy
panel, a base seed and a ``layout``.  :func:`run` turns it into a
:class:`~repro.experiments.runner.StrategyGrid` through
:func:`~repro.experiments.runner.strategy_grid` (which owns the seed
rule), and :func:`render` prints the grid the way its layout says:

* ``"figure"``    -- a wide table (one row per swept value, the miss
  ratios of every strategy side by side) plus the global and local
  ASCII charts;
* ``"variation"`` -- a long table, one line per (setting, strategy);
* ``"sweep"``     -- the per-scenario strategy ranking with the
  :data:`REPORT_COLUMNS`.

The paper's ten experiments are the table
:data:`repro.experiments.paper.EXPERIMENTS`; a scenario sweep builds its
experiment from library specs
(:func:`repro.scenarios.report.sweep_experiment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Hashable, List, Mapping, Optional, Tuple

from ..stats.tables import format_percent, render_chart, render_table
from ..system.config import SystemConfig
from ..system.metrics import FOLDS, NANMEAN, Metric
from .runner import (
    QUICK,
    GridCell,
    PointEstimate,
    RunScale,
    StrategyGrid,
    strategy_grid,
)

FIGURE = "figure"
VARIATION = "variation"
SWEEP = "sweep"


@dataclass(frozen=True)
class Experiment:
    """One (row x strategy) grid, declared as a value.

    Row ``label`` runs ``base.with_(**overrides)``; :func:`run` stamps
    each strategy and the cell seeds (base ``seed``, see
    :func:`~repro.experiments.runner.strategy_grid`) on it.  ``layout``
    (:data:`FIGURE`, :data:`VARIATION` or :data:`SWEEP`) picks what
    :func:`render` prints; ``description`` is the ``list`` line.
    """

    id: str
    paper_ref: str
    title: str
    base: SystemConfig
    rows: Tuple[Tuple[Hashable, Mapping[str, object]], ...]
    strategies: Tuple[str, ...]
    seed: int
    layout: str
    description: str = ""


@dataclass(frozen=True)
class ExperimentResult:
    """An experiment's grid, together with the experiment that made it."""

    experiment: Experiment
    grid: StrategyGrid


def run(
    experiment: Experiment,
    scale: RunScale = QUICK,
    workers: int = 1,
    journal: Optional[str] = None,
) -> ExperimentResult:
    """Run every (row x strategy) cell of ``experiment`` at ``scale``.

    ``workers`` (``0`` = all cores) fans the whole grid out over one
    process pool, and ``journal`` makes it restart-safe; both are
    :func:`~repro.experiments.runner.strategy_grid`'s.
    """
    grid = strategy_grid(
        [
            (label, experiment.base.with_(**dict(overrides)))
            for label, overrides in experiment.rows
        ],
        experiment.strategies, scale=scale, seed=experiment.seed,
        workers=workers, journal=journal,
    )
    return ExperimentResult(experiment=experiment, grid=grid)


def ranking(grid: StrategyGrid, row: Hashable) -> List[GridCell]:
    """The strategies of one row, best (lowest ``MD_global``) first.

    The missed-deadline ratio of global tasks is the paper's primary
    measure; ``nan`` (nothing finished) sorts last.
    """
    if row not in grid.rows:
        raise KeyError(f"no row {row!r}")

    def key(cell: GridCell) -> float:
        value = cell.estimate.md_global.mean
        return math.inf if math.isnan(value) else value

    return sorted((grid.cell(row, s) for s in grid.strategies), key=key)


def best_strategy(grid: StrategyGrid, row: Hashable) -> str:
    """Name of the row's strategy with the lowest global miss ratio."""
    return ranking(grid, row)[0].strategy


_LABELLED = {row.estimate: row for row in FOLDS if row.label}

#: The metric columns of the sweep report: the labelled replication
#: folds in ``PointEstimate`` field order, the tail (``NANMEAN``) ones
#: first, next to the miss ratios they complement.
REPORT_COLUMNS: Tuple[Metric, ...] = tuple(sorted(
    (_LABELLED[f.name] for f in fields(PointEstimate) if f.name in _LABELLED),
    key=lambda row: row.fold != NANMEAN,
))


def _figure(experiment: Experiment, grid: StrategyGrid) -> str:
    """Wide table (one row per swept value) plus both ASCII charts.

    Every row of a figure overrides the one field it sweeps, which
    names the axis.
    """
    axis = next(iter(dict(experiment.rows[0][1])))
    headers = [axis]
    for strategy in grid.strategies:
        headers += [f"MD_loc[{strategy}]", f"MD_glo[{strategy}]"]
    body: List[List[object]] = []
    for x in grid.rows:
        line: List[object] = [x]
        for strategy in grid.strategies:
            estimate = grid.cell(x, strategy).estimate
            line.append(format_percent(estimate.md_local.mean))
            line.append(format_percent(estimate.md_global.mean))
        body.append(line)
    parts = [render_table(
        headers, body, title=f"{experiment.id}: {experiment.title}"
    )]
    for metric in ("global", "local"):
        parts.append(render_chart(
            list(grid.rows),
            {s: grid.series(s, metric) for s in grid.strategies},
            title=f"{experiment.id} ({metric} tasks): {experiment.title}",
            x_label=axis,
            y_label="miss ratio",
        ))
    return "\n\n".join(parts)


def _variation(experiment: Experiment, grid: StrategyGrid) -> str:
    """Long table: one line per (setting, strategy) cell."""
    headers = ["setting", "strategy", "MD_local", "MD_global", "gap"]
    body: List[List[object]] = [
        [
            cell.row,
            cell.strategy,
            format_percent(cell.estimate.md_local.mean),
            format_percent(cell.estimate.md_global.mean),
            format_percent(cell.estimate.gap),
        ]
        for cell in grid.cells
    ]
    return render_table(
        headers, body, title=f"{experiment.id}: {experiment.title}"
    )


def _sweep(experiment: Experiment, grid: StrategyGrid) -> str:
    """The per-row strategy ranking as one table.

    After the miss ratios come the :data:`REPORT_COLUMNS`, each a
    labelled row of the metric table (its field comment in
    :mod:`repro.system.metrics` says what it measures) folded over
    nodes and replications: the global p99 lateness first, then the
    preemption, fault and failure-detection counters.  A counter reads
    0, and an empty mean ``-``, when its feature is off.
    """
    headers = ["scenario", "rank", "strategy", "MD_global", "MD_local",
               "gap"] + [row.label for row in REPORT_COLUMNS]
    body: List[List[object]] = []
    for scenario in grid.rows:
        for rank, cell in enumerate(ranking(grid, scenario), start=1):
            estimate = cell.estimate
            body.append([
                scenario if rank == 1 else "",
                rank,
                cell.strategy,
                format_percent(estimate.md_global.mean),
                format_percent(estimate.md_local.mean),
                format_percent(estimate.gap),
            ] + [
                row.render(getattr(estimate, row.estimate))
                for row in REPORT_COLUMNS
            ])
    return render_table(
        headers, body,
        title=f"{experiment.title} (base seed {experiment.seed})",
    )


_LAYOUTS = {FIGURE: _figure, VARIATION: _variation, SWEEP: _sweep}


def render(result: ExperimentResult) -> str:
    """The experiment's report in its layout, ready to print.

    A grid that a degraded pool recovered (see
    :func:`~repro.experiments.runner.run_grid`) gets a footer naming
    every run a fallback re-executed, so operators can re-verify those
    seeds; a normal run prints none, keeping reports byte-identical
    across re-runs.
    """
    grid = result.grid
    text = _LAYOUTS[result.experiment.layout](result.experiment, grid)
    if not grid.recovered:
        return text
    lines = [text, "", "degraded: worker death recovered by fallback"]
    lines.extend(
        f"  [{cell.mode}] {cell.description}" for cell in grid.recovered
    )
    return "\n".join(lines)
