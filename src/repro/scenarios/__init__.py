"""repro.scenarios -- declarative workload scenarios beyond the paper.

The paper's evaluation fixes one stylized model (homogeneous nodes,
Poisson arrivals, exponential service, uniform placement).  This package
layers a scenario subsystem on top of the fast engine:

* :class:`ScenarioSpec` -- frozen, JSON/dict-round-trippable description:
  a name plus one mapping of :class:`~repro.system.config.SystemConfig`
  overrides (bursty arrivals, heavy-tailed service, heterogeneous node
  speeds, pluggable placement, time-varying load, faults, failure
  detection, the overload policy, or any other field);
* a curated library of named scenarios (:data:`LIBRARY`), looked up by
  name (:func:`get_scenario`);
* :func:`sweep_experiment`, a scenario x strategy grid declared as an
  :class:`~repro.experiments.experiment.Experiment`: ``run`` pushes it
  through the batched process pool and ``render`` ranks strategies by
  missed-deadline ratio per scenario.

CLI: ``repro-experiments scenarios list|run|sweep``.
"""

from .library import LIBRARY
from .registry import SCENARIOS, get_scenario
from .report import DEFAULT_STRATEGIES, run_scenario, sweep_experiment
from .spec import ScenarioSpec

__all__ = [
    "DEFAULT_STRATEGIES",
    "LIBRARY",
    "SCENARIOS",
    "ScenarioSpec",
    "get_scenario",
    "run_scenario",
    "sweep_experiment",
]
