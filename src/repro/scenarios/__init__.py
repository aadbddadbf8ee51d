"""repro.scenarios -- declarative workload scenarios beyond the paper.

The paper's evaluation fixes one stylized model (homogeneous nodes,
Poisson arrivals, exponential service, uniform placement).  This package
layers a scenario subsystem on top of the fast engine:

* :class:`ScenarioSpec` -- frozen, JSON/dict-round-trippable description:
  a name plus one mapping of :class:`~repro.system.config.SystemConfig`
  overrides (bursty arrivals, heavy-tailed service, heterogeneous node
  speeds, pluggable placement, time-varying load, faults, failure
  detection, the overload policy, or any other field);
* a curated library of named scenarios (:data:`LIBRARY`) with a registry
  (:func:`get_scenario`, :func:`register_scenario`);
* a sweep runner (:func:`run_scenario_sweep`) that pushes the whole
  scenario x strategy x replication grid through the batched process
  pool and ranks strategies by missed-deadline ratio per scenario.

CLI: ``repro-experiments scenarios list|run|sweep``.
"""

from .library import LIBRARY
from .registry import (
    SCENARIOS,
    get_scenario,
    register_scenario,
    scenario_names,
)
from .report import (
    DEFAULT_STRATEGIES,
    ScenarioSweepResult,
    run_scenario,
    run_scenario_sweep,
)
from .spec import ScenarioSpec

__all__ = [
    "DEFAULT_STRATEGIES",
    "LIBRARY",
    "SCENARIOS",
    "ScenarioSpec",
    "ScenarioSweepResult",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "run_scenario_sweep",
    "scenario_names",
]
