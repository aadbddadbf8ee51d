"""Run scenario grids and rank strategies per scenario.

A scenario sweep is a :func:`repro.experiments.runner.strategy_grid`
whose rows are scenarios: the whole scenario x strategy x replication
grid is flattened into one batched process pool, so a full-library sweep
parallelizes exactly like the paper's figure sweeps (CLI ``--workers``),
and its cells are seeded by the same rule, so any reported number is
reproducible verbatim from the echoed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

from ..experiments.runner import (
    QUICK,
    GridCell,
    PointEstimate,
    RunScale,
    StrategyGrid,
    replicate,
    strategy_grid,
)
from ..stats.tables import format_percent, render_table
from ..system.metrics import FOLDS, NANMEAN, Metric
from .spec import ScenarioSpec

_LABELLED = {row.estimate: row for row in FOLDS if row.label}

#: The metric columns of the sweep report: the labelled replication
#: folds in ``PointEstimate`` field order, the tail (``NANMEAN``) ones
#: first, next to the miss ratios they complement.
REPORT_COLUMNS: Tuple[Metric, ...] = tuple(sorted(
    (_LABELLED[f.name] for f in fields(PointEstimate) if f.name in _LABELLED),
    key=lambda row: row.fold != NANMEAN,
))

#: Default strategy panel for sweeps: the paper's SSP contenders plus the
#: DIV-family combination (PSP side active on parallel structures).
DEFAULT_STRATEGIES: Tuple[str, ...] = ("UD", "EQS", "EQF", "EQF-DIV1")


@dataclass(frozen=True)
class ScenarioSweepResult:
    """A scenario x strategy grid plus ranking/rendering."""

    grid: StrategyGrid
    seed: int

    def ranking(self, scenario: str) -> List[GridCell]:
        """Strategies of one scenario, best (lowest ``MD_global``) first.

        The missed-deadline ratio of global tasks is the paper's primary
        measure; ``nan`` (nothing finished) sorts last.
        """
        if scenario not in self.grid.rows:
            raise KeyError(f"unknown scenario {scenario!r}")

        def key(cell: GridCell) -> float:
            value = cell.estimate.md_global.mean
            return math.inf if math.isnan(value) else value

        return sorted(
            (self.grid.cell(scenario, s) for s in self.grid.strategies),
            key=key,
        )

    def best_strategy(self, scenario: str) -> str:
        """Name of the strategy with the lowest global miss ratio."""
        return self.ranking(scenario)[0].strategy

    def table(self) -> str:
        """Render the per-scenario strategy ranking as one table.

        After the miss ratios come the :data:`REPORT_COLUMNS`, each a
        labelled row of the metric table (its field comment in
        :mod:`repro.system.metrics` says what it measures) folded over
        nodes and replications: the global p99 lateness first, then the
        preemption, fault and failure-detection counters.  A counter
        reads 0, and an empty mean ``-``, when its feature is off.
        """
        headers = ["scenario", "rank", "strategy", "MD_global", "MD_local",
                   "gap"] + [row.label for row in REPORT_COLUMNS]
        rows: List[List[object]] = []
        for scenario in self.grid.rows:
            for rank, cell in enumerate(self.ranking(scenario), start=1):
                estimate = cell.estimate
                rows.append([
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
        table = render_table(
            headers,
            rows,
            title=(
                "Scenario sweep: strategies ranked by global "
                f"missed-deadline ratio (base seed {self.seed})"
            ),
        )
        if not self.grid.recovered:
            return table
        # Degraded-pool footer: name every run a fallback re-executed, so
        # operators see exactly what recovered (and can re-verify those
        # seeds if they distrust the degraded path).  Normal runs print
        # no footer, keeping reports byte-identical across re-runs.
        lines = [table, "", "degraded: worker death recovered by fallback"]
        lines.extend(
            f"  [{cell.mode}] {cell.description}"
            for cell in self.grid.recovered
        )
        return "\n".join(lines)


def run_scenario(
    spec: ScenarioSpec,
    strategy: str = "UD",
    scale: RunScale = QUICK,
    seed: int = 1,
    workers: int = 1,
    journal: Optional[str] = None,
) -> PointEstimate:
    """Run one scenario under one strategy (replicated per the scale)."""
    config = scale.apply(spec.to_config(strategy=strategy, seed=seed))
    return replicate(
        config,
        replications=scale.replications,
        workers=workers,
        journal=journal,
    )


def run_scenario_sweep(
    specs: Sequence[ScenarioSpec],
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    scale: RunScale = QUICK,
    seed: int = 1,
    workers: int = 1,
    runner: Optional[object] = None,
    journal: Optional[str] = None,
) -> ScenarioSweepResult:
    """Run the full scenario x strategy x replication grid.

    ``workers`` (``0`` = all cores) fans the flattened grid over one
    process pool; results are deterministic regardless.  ``runner`` may
    be injected for tests (serial, as in ``run_grid``).  ``journal``
    makes the sweep restart-safe: completed runs land in the JSON journal
    at that path as they finish, and a re-run with the same journal skips
    them and reproduces the identical report (see
    :func:`~repro.experiments.runner.run_grid`).
    """
    if not specs:
        raise ValueError("need at least one scenario")
    if not strategies:
        raise ValueError("need at least one strategy")
    grid = strategy_grid(
        [(spec.name, spec.to_config()) for spec in specs],
        strategies, scale=scale, seed=seed, workers=workers,
        runner=runner, journal=journal,
    )
    return ScenarioSweepResult(grid=grid, seed=seed)
