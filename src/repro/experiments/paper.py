"""The paper's ten experiments, each declared once (:data:`EXPERIMENTS`).

Figs. 2-4 and the Sec. 6 combinations sweep one config field (the row
label is its value); the six Sec. 4.3 robustness checks V1-V6 ("we have
conducted extensive experiments in which these assumptions are
relaxed") compare named settings of the Table 1 baseline.  The paper's
conclusion for V1-V5 is that "the results do not change the basic
conclusions": EQF still beats UD on global miss ratio under every
variation.  ``python -m repro.cli list`` prints this table and
``run ID`` runs one entry.

``QUICK`` scale reproduces the paper's *orderings* in seconds to
minutes; ``FULL`` matches its run lengths.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..system.config import (
    baseline_config,
    parallel_baseline_config,
    serial_parallel_config,
)
from .experiment import FIGURE, VARIATION, Experiment

#: Load axis of Figs. 2 and 4 ("load varies from 0.1 to 0.5").
_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5)
#: Base seed of the variations: the Table 1 baseline's own.
_BASELINE_SEED = baseline_config().seed
_UD_EQF = ("UD", "EQF")


def _axis(field: str, values: Sequence[float]):
    """Figure rows: each value of one swept field, labelled by itself."""
    return tuple((value, {field: value}) for value in values)


def _variation(experiment_id: str, description: str, title: str, rows):
    """A Sec. 4.3 check: UD vs EQF over settings of the Table 1 baseline."""
    return Experiment(
        id=experiment_id, paper_ref="Sec. 4.3 narrative", title=title,
        base=baseline_config(), rows=rows, strategies=_UD_EQF,
        seed=_BASELINE_SEED, layout=VARIATION,
        description=f"{experiment_id}: {description}",
    )


EXPERIMENTS: Dict[str, Experiment] = {
    experiment.id: experiment for experiment in (
        # Expected (paper): local miss ratios nearly strategy-independent
        # (2a); global ones split widely at high load, UD worst, EQF/EQS
        # best, ED between (2b); at load 0.5 MD_global(UD) ~ 40% against
        # MD_local(UD) ~ 24%.
        Experiment(
            id="Fig2", paper_ref="Fig. 2a/2b",
            title="SSP strategies vs load (serial global tasks)",
            base=baseline_config(), rows=_axis("load", _LOADS),
            strategies=("UD", "ED", "EQS", "EQF"), seed=1, layout=FIGURE,
            description="SSP strategies (UD/ED/EQS/EQF) vs load, serial tasks",
        ),
        # Expected: MD_global(UD) grows steadily with frac_local (globals
        # face ever more "first-class" local competition), MD_local(UD)
        # mildly; both EQF curves stay nearly flat.
        Experiment(
            id="Fig3", paper_ref="Fig. 3",
            title="Effect of varying the fraction of local tasks (load 0.5)",
            base=baseline_config(),
            rows=_axis("frac_local", (0.1, 0.3, 0.5, 0.75, 0.9, 0.95)),
            strategies=_UD_EQF, seed=2, layout=FIGURE,
            description="UD vs EQF while varying frac_local",
        ),
        # Expected: under UD globals miss about three times as often as
        # locals; DIV-1 pulls the classes together at a mild local cost;
        # DIV-2 differs from DIV-1 only at very high load; GF (Sec. 5.3)
        # cuts the global miss ratio further.
        Experiment(
            id="Fig4", paper_ref="Fig. 4 + Sec. 5.3",
            title="PSP strategies vs load (parallel global tasks)",
            base=parallel_baseline_config(), rows=_axis("load", _LOADS),
            strategies=("UD", "DIV-1", "DIV-2", "GF"), seed=3, layout=FIGURE,
            description=(
                "PSP strategies (UD/DIV-1/DIV-2/GF) vs load, parallel tasks"
            ),
        ),
        # Expected: UD-UD misses far more global deadlines than local ones;
        # EQF or DIV-1 alone helps with a mild local cost; both together
        # keep MD_global close to MD_local even at high load (additive).
        Experiment(
            id="Sec6", paper_ref="Sec. 6 narrative",
            title="SSP+PSP combinations (serial-parallel global tasks)",
            base=serial_parallel_config(), rows=_axis("load", (0.3, 0.5, 0.7)),
            strategies=("UD-UD", "UD-DIV1", "EQF-UD", "EQF-DIV1"), seed=4,
            layout=FIGURE,
            description="SSP x PSP combinations on serial-parallel tasks",
        ),
        # pex = ex * U[1 - e, 1 + e].  UD ignores estimates, so its rows are
        # a control that should move only by noise.
        _variation(
            "V1", "random error in execution-time predictions.",
            "random error in execution time estimates",
            tuple(
                (f"error={e:g}", {"pex_error": e})
                for e in (0.0, 0.25, 0.5, 0.9)
            ),
        ),
        # Run-to-completion, then the sensible firm policy (abort past the
        # natural end-to-end deadline), then the blind one (abort past the
        # virtual deadline): the component behaviour the paper warns about
        # for GF, which also punishes EQF's tight virtual deadlines.
        _variation(
            "V2",
            "firm overload management (tardy tasks aborted at dispatch).",
            "overload policy: no-abort vs abort-tardy vs abort-virtual",
            tuple(
                (policy, {"overload_policy": policy})
                for policy in ("no-abort", "abort-tardy", "abort-virtual")
            ),
        ),
        _variation(
            "V3", "minimum-laxity-first (and FCFS control) local schedulers.",
            "local scheduling algorithm",
            tuple(
                (name, {"scheduler": name}) for name in ("EDF", "MLF", "FCFS")
            ),
        ),
        _variation(
            "V4", "global tasks with a random number of subtasks (U{2..6}).",
            "variable number of subtasks per global task",
            (
                ("m=4 fixed", {"subtask_count_range": None}),
                ("m~U{2..6}", {"subtask_count_range": (2, 6)}),
            ),
        ),
        # Two nodes get double and two half the average local arrival rate;
        # the total local load is unchanged.
        _variation(
            "V5", "some nodes carry higher local loads than others.",
            "heterogeneous per-node local loads",
            (
                ("homogeneous", {"local_load_weights": None}),
                ("skewed 2:2:1:1:.5:.5",
                 {"local_load_weights": (2.0, 2.0, 1.0, 1.0, 0.5, 0.5)}),
            ),
        ),
        # "If slack is too tight ... many deadlines will be missed; if slack
        # is too loose ... all tasks make their deadlines; in the
        # intermediate range a smart SSP policy can make a difference and
        # this is where EQF wins big."
        _variation(
            "V6",
            "EQF's advantage across slack tightness (``rel_flex`` sweep).",
            "EQF gain across slack tightness",
            tuple(
                (f"rel_flex={f:g}", {"rel_flex": f})
                for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
            ),
        ),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (case-insensitive)."""
    for key, experiment in EXPERIMENTS.items():
        if key.lower() == experiment_id.lower():
            return experiment
    known = ", ".join(EXPERIMENTS)
    raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
