"""Per-figure experiment definitions (the paper's evaluation section).

Each function regenerates one figure (or narrative result) of the paper and
returns a :class:`FigureResult` that can be rendered as a numeric table and
an ASCII chart:

* :func:`fig2`    -- Fig. 2a/2b: the four SSP strategies vs. load;
* :func:`fig3`    -- Fig. 3: UD vs. EQF as ``frac_local`` varies;
* :func:`fig4`    -- Fig. 4: UD vs. DIV-1/DIV-2 (plus GF) vs. load;
* :func:`ssp_psp` -- Sec. 6: the four SSP x PSP combinations on
  serial-parallel tasks.

All functions accept a :class:`~repro.experiments.runner.RunScale`; the
default ``QUICK`` reproduces the paper's *orderings* in seconds-to-minutes,
and ``FULL`` matches the paper's run lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..stats.tables import format_percent, render_chart, render_table
from ..system.config import (
    SystemConfig,
    baseline_config,
    parallel_baseline_config,
    serial_parallel_config,
)
from .runner import QUICK, RunScale, StrategyGrid, sweep

#: Load axis of Fig. 2 ("load varies from 0.1 to 0.5").
FIG2_LOADS: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5)
#: Strategy set of Fig. 2.
FIG2_STRATEGIES: Sequence[str] = ("UD", "ED", "EQS", "EQF")

#: ``frac_local`` axis of Fig. 3 ("from 0.1 to 0.95").
FIG3_FRACTIONS: Sequence[float] = (0.1, 0.3, 0.5, 0.75, 0.9, 0.95)
FIG3_STRATEGIES: Sequence[str] = ("UD", "EQF")

#: Load axis of Fig. 4 (same range as Fig. 2's).
FIG4_LOADS: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5)
#: Fig. 4 proper compares UD, DIV-1, DIV-2; GF is discussed in Sec. 5.3 and
#: included here as the extra series the text describes.
FIG4_STRATEGIES: Sequence[str] = ("UD", "DIV-1", "DIV-2", "GF")

#: Load axis for the Sec. 6 serial-parallel experiment.
SSP_PSP_LOADS: Sequence[float] = (0.3, 0.5, 0.7)
SSP_PSP_STRATEGIES: Sequence[str] = ("UD-UD", "UD-DIV1", "EQF-UD", "EQF-DIV1")


@dataclass(frozen=True)
class FigureResult:
    """A regenerated paper figure: its sweep grid plus rendering helpers."""

    figure_id: str
    title: str
    x_name: str
    grid: StrategyGrid

    def table(self) -> str:
        """Numeric table: one row per x value, MD columns per strategy."""
        headers = [self.x_name]
        for strategy in self.grid.strategies:
            headers.append(f"MD_loc[{strategy}]")
            headers.append(f"MD_glo[{strategy}]")
        rows: List[List[object]] = []
        for x in self.grid.rows:
            row: List[object] = [x]
            for strategy in self.grid.strategies:
                estimate = self.grid.cell(x, strategy).estimate
                row.append(format_percent(estimate.md_local.mean))
                row.append(format_percent(estimate.md_global.mean))
            rows.append(row)
        return render_table(headers, rows, title=f"{self.figure_id}: {self.title}")

    def chart(self, metric: str = "global") -> str:
        """ASCII chart of the ``metric`` miss ratio vs. the sweep axis."""
        series: Dict[str, List[float]] = {
            strategy: self.grid.series(strategy, metric)
            for strategy in self.grid.strategies
        }
        return render_chart(
            list(self.grid.rows),
            series,
            title=f"{self.figure_id} ({metric} tasks): {self.title}",
            x_label=self.x_name,
            y_label="miss ratio",
        )

    def render(self) -> str:
        """Table plus both charts, ready to print."""
        parts = [self.table(), "", self.chart("global")]
        parts += ["", self.chart("local")]
        return "\n".join(parts)


def fig2(
    scale: RunScale = QUICK, seed: int = 1, workers: int = 1
) -> FigureResult:
    """Fig. 2: SSP strategies on serial tasks as load varies.

    Expected shape (paper): local miss ratios are nearly strategy-
    independent (2a); global miss ratios split widely at high load with
    UD worst, EQF/EQS best, ED in between (2b); at load 0.5,
    ``MD_global(UD) ~ 40%`` vs ``MD_local(UD) ~ 24%``.
    """
    return FigureResult(
        figure_id="Fig2",
        title="SSP strategies vs load (serial global tasks)",
        x_name="load",
        grid=sweep(
            base=baseline_config(seed=seed),
            parameter="load",
            values=FIG2_LOADS,
            strategies=FIG2_STRATEGIES,
            scale=scale,
            workers=workers,
        ),
    )


def fig3(
    scale: RunScale = QUICK, seed: int = 2, workers: int = 1
) -> FigureResult:
    """Fig. 3: effect of the local-task fraction under UD and EQF.

    Expected shape (paper): ``MD_global(UD)`` grows steadily with
    ``frac_local`` (global tasks face ever more "first-class" local
    competition); ``MD_local(UD)`` grows mildly; both EQF curves stay
    nearly flat -- EQF does not discriminate.
    """
    return FigureResult(
        figure_id="Fig3",
        title="Effect of varying the fraction of local tasks (load 0.5)",
        x_name="frac_local",
        grid=sweep(
            base=baseline_config(seed=seed),
            parameter="frac_local",
            values=FIG3_FRACTIONS,
            strategies=FIG3_STRATEGIES,
            scale=scale,
            workers=workers,
        ),
    )


def fig4(
    scale: RunScale = QUICK,
    seed: int = 3,
    include_gf: bool = True,
    workers: int = 1,
) -> FigureResult:
    """Fig. 4: PSP strategies on parallel tasks as load varies.

    Expected shape (paper): under UD globals miss roughly three times as
    often as locals; DIV-1 pulls the two classes together (at a mild local
    cost); DIV-2 is barely distinguishable from DIV-1 except at very high
    load; GF (Sec. 5.3) cuts the global miss ratio significantly further.
    """
    strategies = list(FIG4_STRATEGIES if include_gf else FIG4_STRATEGIES[:3])
    return FigureResult(
        figure_id="Fig4",
        title="PSP strategies vs load (parallel global tasks)",
        x_name="load",
        grid=sweep(
            base=parallel_baseline_config(seed=seed),
            parameter="load",
            values=FIG4_LOADS,
            strategies=strategies,
            scale=scale,
            workers=workers,
        ),
    )


def ssp_psp(
    scale: RunScale = QUICK, seed: int = 4, workers: int = 1
) -> FigureResult:
    """Sec. 6: the four SSP x PSP combinations on serial-parallel tasks.

    Expected shape (paper): UD-UD misses vastly more global deadlines than
    local ones; applying either EQF or DIV-1 helps significantly with only
    a mild local increase; applying both keeps ``MD_global`` close to
    ``MD_local`` even under high load -- the benefits are additive.
    """
    return FigureResult(
        figure_id="Sec6",
        title="SSP+PSP combinations (serial-parallel global tasks)",
        x_name="load",
        grid=sweep(
            base=serial_parallel_config(seed=seed),
            parameter="load",
            values=SSP_PSP_LOADS,
            strategies=SSP_PSP_STRATEGIES,
            scale=scale,
            workers=workers,
        ),
    )
