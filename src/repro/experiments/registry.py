"""Registry mapping experiment ids to runnable definitions.

Gives the CLI and the benchmark harness one place to look up "everything
the paper reports": ``python -m repro.cli run Fig2`` or iterating the
whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

from .figures import fig2, fig3, fig4, ssp_psp
from .runner import QUICK
from .variations import VARIATIONS


@dataclass(frozen=True)
class ExperimentDefinition:
    """One reproducible artifact of the paper.

    ``run`` accepts ``(scale, workers)``; ``workers`` fans the
    experiment's whole simulation grid out over a process pool (``0`` =
    all cores).
    """

    experiment_id: str
    paper_artifact: str
    description: str
    run: Callable[..., object]


def _entry(experiment_id, artifact, description, fn) -> ExperimentDefinition:
    return ExperimentDefinition(
        experiment_id=experiment_id,
        paper_artifact=artifact,
        description=description,
        run=lambda scale=QUICK, workers=1: fn(scale=scale, workers=workers),
    )


EXPERIMENTS: Dict[str, ExperimentDefinition] = {
    entry.experiment_id: entry
    for entry in [
        _entry(
            "Fig2", "Fig. 2a/2b",
            "SSP strategies (UD/ED/EQS/EQF) vs load, serial tasks", fig2,
        ),
        _entry(
            "Fig3", "Fig. 3",
            "UD vs EQF while varying frac_local", fig3,
        ),
        _entry(
            "Fig4", "Fig. 4 + Sec. 5.3",
            "PSP strategies (UD/DIV-1/DIV-2/GF) vs load, parallel tasks", fig4,
        ),
        _entry(
            "Sec6", "Sec. 6 narrative",
            "SSP x PSP combinations on serial-parallel tasks", ssp_psp,
        ),
    ] + [
        _entry(
            experiment_id,
            "Sec. 4.3 narrative",
            fn.__doc__.splitlines()[0] if fn.__doc__ else experiment_id,
            fn,
        )
        for experiment_id, fn in VARIATIONS.items()
    ]
}


def experiment_ids() -> Sequence[str]:
    """All known experiment ids, figures first."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentDefinition:
    """Look up an experiment by id (case-insensitive)."""
    for key, entry in EXPERIMENTS.items():
        if key.lower() == experiment_id.lower():
            return entry
    known = ", ".join(EXPERIMENTS)
    raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
