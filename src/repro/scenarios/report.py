"""Run scenario grids and rank strategies per scenario.

The runner reuses the batched process pool behind
:func:`repro.experiments.runner.run_grid`: the whole scenario x strategy
x replication grid is flattened into one pool and sliced into
warm-interpreter batches, so a full-library sweep parallelizes exactly
like the paper's figure sweeps (CLI ``--workers`` / ``--batch-size``).

Seeding: cell ``(scenario si, strategy ti)`` uses base seed
``seed + 1_000 * si + ti`` (the same convention as
:func:`repro.experiments.runner.sweep`), and every replication derives
its own seed from that -- so any reported number is reproducible verbatim
from the echoed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

from ..experiments.runner import (
    QUICK,
    PointEstimate,
    RecoveredCell,
    RunScale,
    replicate,
    run_grid_report,
)
from ..stats.tables import format_percent, render_table
from ..system.config import SystemConfig
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
class ScenarioCell:
    """One (scenario, strategy) cell of a scenario sweep."""

    scenario: str
    strategy: str
    estimate: PointEstimate


@dataclass(frozen=True)
class ScenarioSweepResult:
    """All cells of a scenario x strategy sweep plus ranking/rendering."""

    scenarios: Sequence[str]
    strategies: Sequence[str]
    cells: Sequence[ScenarioCell]
    seed: int
    #: Runs re-executed by the pool's degradation paths (empty normally;
    #: see :class:`~repro.experiments.runner.RecoveredCell`).
    recovered: Tuple[RecoveredCell, ...] = ()
    #: Runs restored from a sweep journal instead of being re-run.
    journal_restored: int = 0

    def cell(self, scenario: str, strategy: str) -> ScenarioCell:
        for cell in self.cells:
            if cell.scenario == scenario and cell.strategy == strategy:
                return cell
        raise KeyError(
            f"no cell for scenario={scenario!r}, strategy={strategy!r}"
        )

    def ranking(self, scenario: str) -> List[ScenarioCell]:
        """Strategies of one scenario, best (lowest ``MD_global``) first.

        The missed-deadline ratio of global tasks is the paper's primary
        measure; ``nan`` (nothing finished) sorts last.
        """
        cells = [c for c in self.cells if c.scenario == scenario]
        if not cells:
            raise KeyError(f"unknown scenario {scenario!r}")

        def key(cell: ScenarioCell) -> float:
            value = cell.estimate.md_global.mean
            return math.inf if math.isnan(value) else value

        return sorted(cells, key=key)

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
        for scenario in self.scenarios:
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
        if not self.recovered:
            return table
        # Degraded-pool footer: name every run a fallback re-executed, so
        # operators see exactly what recovered (and can re-verify those
        # seeds if they distrust the degraded path).  Normal runs print
        # no footer, keeping reports byte-identical across re-runs.
        lines = [table, "", "degraded: worker death recovered by fallback"]
        lines.extend(
            f"  [{cell.mode}] {cell.description}" for cell in self.recovered
        )
        return "\n".join(lines)


def scenario_grid_configs(
    specs: Sequence[ScenarioSpec],
    strategies: Sequence[str],
    scale: RunScale = QUICK,
    seed: int = 1,
) -> List[SystemConfig]:
    """The per-cell configs of a scenario sweep (flattened, row-major)."""
    configs: List[SystemConfig] = []
    for si, spec in enumerate(specs):
        for ti, strategy in enumerate(strategies):
            configs.append(
                scale.apply(
                    spec.to_config(
                        strategy=strategy, seed=seed + 1_000 * si + ti
                    )
                )
            )
    return configs


def run_scenario(
    spec: ScenarioSpec,
    strategy: str = "UD",
    scale: RunScale = QUICK,
    seed: int = 1,
    workers: int = 1,
    batch_size: int = 0,
    journal: Optional[str] = None,
) -> PointEstimate:
    """Run one scenario under one strategy (replicated per the scale)."""
    config = scale.apply(spec.to_config(strategy=strategy, seed=seed))
    return replicate(
        config,
        replications=scale.replications,
        workers=workers,
        batch_size=batch_size,
        journal=journal,
    )


def run_scenario_sweep(
    specs: Sequence[ScenarioSpec],
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    scale: RunScale = QUICK,
    seed: int = 1,
    workers: int = 1,
    batch_size: int = 0,
    runner: Optional[object] = None,
    journal: Optional[str] = None,
) -> ScenarioSweepResult:
    """Run the full scenario x strategy x replication grid.

    ``workers`` (``0`` = all cores) fans the flattened grid over one
    process pool in warm-interpreter batches of ``batch_size`` runs
    (``0`` = auto); results are deterministic regardless of either knob.
    ``runner`` may be injected for tests (serial, as in ``run_grid``).
    ``journal`` makes the sweep restart-safe: completed runs land in the
    JSON journal at that path as they finish, and a re-run with the same
    journal skips them and reproduces the identical report (see
    :func:`~repro.experiments.runner.run_grid_report`).
    """
    if not specs:
        raise ValueError("need at least one scenario")
    if not strategies:
        raise ValueError("need at least one strategy")
    configs = scenario_grid_configs(specs, strategies, scale, seed)
    report = run_grid_report(
        configs,
        scale.replications,
        workers=workers,
        batch_size=batch_size,
        runner=runner,
        journal=journal,
    )
    cells = [
        ScenarioCell(
            scenario=spec.name, strategy=strategy, estimate=estimate
        )
        for (spec, strategy), estimate in zip(
            ((s, t) for s in specs for t in strategies), report.estimates
        )
    ]
    return ScenarioSweepResult(
        scenarios=[spec.name for spec in specs],
        strategies=list(strategies),
        cells=cells,
        seed=seed,
        recovered=report.recovered,
        journal_restored=report.journal_restored,
    )
