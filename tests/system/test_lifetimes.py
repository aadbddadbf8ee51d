"""Run objects are freed by reference counting, not by the collector.

Nothing a simulation creates per task or per event forms a reference
cycle: task trees carry no child -> parent links, and the coordination
frames, nodes and sources store no bound method of themselves.  And a
run's objects point only outward from its simulation: the collector and
the placement policy keep no node list, the fault injector's timers
name it without it holding them, and a finished run releases its event
list (clearing the callbacks of the pending timers their owners still
hold) and the continuations of the work its nodes still hold.

* **No cyclic garbage per task.**  Over the measured phase of every
  library scenario, with the collector switched off, no object becomes
  garbage that only the collector could free.
* **A finished run frees everything it made.**  With the collector off,
  dropping a finished simulation of any library scenario frees every
  random stream it made, and dropping one of the baseline frees its
  metrics collector; an emitting run frees its streams too, and so does
  a detector run without faults over delayed heartbeat links.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.scenarios import LIBRARY
from repro.sim.errors import SimulationError
from repro.system.config import baseline_config
from repro.system.emission import EmissionPolicy
from repro.system.simulation import Simulation

SIM_TIME = 3000.0
WARMUP = 300.0
SEED = 5

_BASELINE = next(spec for spec in LIBRARY if spec.name == "baseline")


def _config(spec):
    return spec.to_config(sim_time=SIM_TIME, warmup_time=WARMUP, seed=SEED)


@pytest.mark.parametrize("spec", LIBRARY, ids=lambda spec: spec.name)
def test_measured_phase_leaves_no_cyclic_garbage(spec):
    config = _config(spec)
    simulation = Simulation(config)
    env = simulation.env
    # The phases of Simulation.run, with the collector off in the
    # measured one.
    env.run(until=config.warmup_time)
    simulation.metrics.reset(env.now, simulation.nodes)
    gc.collect()
    gc.disable()
    try:
        env.run(until=config.sim_time)
        unreachable = gc.collect()
    finally:
        gc.enable()
    result = simulation.metrics.snapshot(env.now, simulation.nodes)
    assert result.global_.completed > 0
    assert unreachable == 0


def _frees_its_streams(config, emit=None) -> None:
    gc.collect()
    gc.disable()
    try:
        simulation = Simulation(config)
        simulation.run(emit=emit)
        streams = simulation.streams
        refs = [weakref.ref(streams.get(name)) for name in streams.names()]
        del simulation, streams
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert refs
    assert alive == []


@pytest.mark.parametrize("spec", LIBRARY, ids=lambda spec: spec.name)
def test_dropped_finished_simulation_frees_its_streams(spec):
    _frees_its_streams(_config(spec))


def test_dropped_finished_simulation_frees_its_collector():
    """No node list on the collector: the nodes reach it through their
    shared run values, and nothing of the collector reaches back."""
    gc.collect()
    gc.disable()
    try:
        simulation = Simulation(
            baseline_config(sim_time=1000.0, warmup_time=100.0, seed=3)
        )
        simulation.run()
        collector = weakref.ref(simulation.metrics)
        del simulation
        alive = collector()
    finally:
        gc.enable()
    assert alive is None


def test_dropped_emitting_simulation_frees_its_streams(tmp_path):
    _frees_its_streams(
        _config(_BASELINE),
        emit=EmissionPolicy(path=str(tmp_path / "m.jsonl"), every_events=5000),
    )


def test_dropped_detector_run_frees_its_streams():
    """The heartbeat channels hold no back-reference to their detector,
    so a detector run is freed by reference counting: the timeout
    detector over delayed links, with faults taken out (a case the
    library does not have)."""
    spec = next(spec for spec in LIBRARY if spec.name == "lossy-heartbeats")
    config = _config(spec).with_(faults=None)
    assert config.detector.enabled
    _frees_its_streams(config)


def test_a_simulation_runs_once():
    simulation = Simulation(_config(_BASELINE))
    simulation.run()
    with pytest.raises(SimulationError, match="runs once"):
        simulation.run()
