"""Experiment harness: experiments as data, replications, process pool."""

from .experiment import (
    FIGURE,
    REPORT_COLUMNS,
    SWEEP,
    VARIATION,
    Experiment,
    ExperimentResult,
    best_strategy,
    ranking,
    render,
    run,
)
from .paper import EXPERIMENTS, get_experiment
from .runner import (
    FULL,
    QUICK,
    SCALES,
    SMOKE,
    GridCell,
    PointEstimate,
    RunScale,
    StrategyGrid,
    replicate,
    strategy_grid,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "FIGURE",
    "FULL",
    "GridCell",
    "PointEstimate",
    "QUICK",
    "REPORT_COLUMNS",
    "RunScale",
    "SCALES",
    "SMOKE",
    "SWEEP",
    "StrategyGrid",
    "VARIATION",
    "best_strategy",
    "get_experiment",
    "ranking",
    "render",
    "replicate",
    "run",
    "strategy_grid",
]
