"""Run objects are freed by reference counting, not by the collector.

Nothing a simulation creates per task or per event forms a reference
cycle: task trees carry no child -> parent links, and the coordination
frames, nodes and sources store no bound method of themselves.  And a
finished run releases its event list, so a dropped simulation frees its
random streams at once.

* **No cyclic garbage per task.**  Over the measured phase of every
  library scenario, with the collector switched off, no object becomes
  garbage that only the collector could free.
* **A finished run frees its streams.**  For the scenarios without
  faults or least-outstanding placement (each of which wires per-node
  cycles at set-up), dropping a finished simulation frees every stream
  it made but the process manager's (``_MANAGER_STREAMS``), with the
  collector off; an emitting run does too, and so does a detector run
  over either kind of heartbeat channel.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.scenarios import LIBRARY
from repro.sim.errors import SimulationError
from repro.system.emission import EmissionPolicy
from repro.system.simulation import Simulation

SIM_TIME = 3000.0
WARMUP = 300.0
SEED = 5

_BASELINE = next(spec for spec in LIBRARY if spec.name == "baseline")


def _config(spec):
    return spec.to_config(sim_time=SIM_TIME, warmup_time=WARMUP, seed=SEED)


def _wires_per_node_cycles(config) -> bool:
    return (
        (config.faults is not None and config.faults.enabled)
        or config.placement == "least-outstanding"
    )


@pytest.mark.parametrize("spec", LIBRARY, ids=lambda spec: spec.name)
def test_measured_phase_leaves_no_cyclic_garbage(spec):
    config = _config(spec)
    simulation = Simulation(config)
    env = simulation.env
    # The phases of Simulation.run, with the collector off in the
    # measured one.
    env.run(until=config.warmup_time)
    simulation.metrics.reset(env.now)
    gc.collect()
    gc.disable()
    try:
        env.run(until=config.sim_time)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert simulation.metrics.snapshot(env.now).global_.completed > 0
    assert unreachable == 0


#: The process manager's misroute stream outlives a dropped run that
#: ends with global work in service: that work keeps the manager alive
#: (node -> unit -> leaf attempt -> manager -> node list), a cycle
#: of the manager's own, not the detector's.
_MANAGER_STREAMS = ("detector-route",)


def _frees_its_streams(config, emit=None) -> None:
    gc.collect()
    gc.disable()
    try:
        simulation = Simulation(config)
        simulation.run(emit=emit)
        streams = simulation.streams
        refs = [
            weakref.ref(streams.get(name)) for name in streams.names()
            if name not in _MANAGER_STREAMS
        ]
        del simulation, streams
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert refs
    assert alive == []


@pytest.mark.parametrize(
    "spec",
    [spec for spec in LIBRARY if not _wires_per_node_cycles(_config(spec))],
    ids=lambda spec: spec.name,
)
def test_dropped_finished_simulation_frees_its_streams(spec):
    _frees_its_streams(_config(spec))


def test_dropped_emitting_simulation_frees_its_streams(tmp_path):
    _frees_its_streams(
        _config(_BASELINE),
        emit=EmissionPolicy(path=str(tmp_path / "m.jsonl"), every_events=5000),
    )


@pytest.mark.parametrize("name", ["paranoid-detector", "lossy-heartbeats"])
def test_dropped_detector_run_frees_its_streams(name):
    """The heartbeat channels hold no back-reference to their detector,
    so a detector run is freed by reference counting: phi-accrual over
    instant links, and the timeout detector over delayed links (faults
    taken out, so only the detector could tie the streams up)."""
    spec = next(spec for spec in LIBRARY if spec.name == name)
    config = _config(spec).with_(faults=None)
    assert config.detector.enabled
    _frees_its_streams(config)


def test_a_simulation_runs_once():
    simulation = Simulation(_config(_BASELINE))
    simulation.run()
    with pytest.raises(SimulationError, match="runs once"):
        simulation.run()
