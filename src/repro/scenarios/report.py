"""Run one scenario, or sweep scenarios as an experiment.

A scenario sweep is an :class:`~repro.experiments.experiment.Experiment`
whose rows are scenarios: each row is a spec's overrides over the
paper's ``SystemConfig()``, so the whole scenario x strategy x
replication grid runs through the same batched process pool as the
paper's figures (CLI ``--workers``), its cells are seeded by the same
rule, and any reported number is reproducible verbatim from the echoed
seed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..experiments.experiment import SWEEP, Experiment
from ..experiments.runner import QUICK, PointEstimate, RunScale, replicate
from ..system.config import SystemConfig
from .spec import ScenarioSpec

#: Default strategy panel for sweeps: the paper's SSP contenders plus the
#: DIV-family combination (PSP side active on parallel structures).
DEFAULT_STRATEGIES: Tuple[str, ...] = ("UD", "EQS", "EQF", "EQF-DIV1")


def sweep_experiment(
    specs: Sequence[ScenarioSpec],
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    seed: int = 1,
) -> Experiment:
    """The scenario x strategy grid as an experiment (``"sweep"`` layout).

    Row ``spec.name`` runs ``SystemConfig().with_(**spec.overrides)``,
    which is ``spec.to_config()``; rendered, the grid ranks the
    strategies of each scenario by global missed-deadline ratio.
    """
    return Experiment(
        id="sweep",
        paper_ref="",
        title=(
            "Scenario sweep: strategies ranked by global missed-deadline "
            "ratio"
        ),
        base=SystemConfig(),
        rows=tuple((spec.name, spec.overrides) for spec in specs),
        strategies=tuple(strategies),
        seed=seed,
        layout=SWEEP,
    )


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
