"""A run cut into slices equals the run made in one piece.

Metric emission drives :meth:`Simulation.run` through the sliced run
loop, which advances the kernel in many ``run(until=t)`` calls.  That
is only observation if stopping at a horizon changes nothing: the
horizon sentinel consumes no sequence number, the fault clocks,
heartbeat channels, samplers and placement streams carry on where they
stopped, and the quantile sketches hold the same markers.  These tests
check it on every library scenario, so each model feature (bursty and
heavy-tailed workloads, placement, preemption, crashes, detectors,
fleets) is covered by one leg.  No new literal is pinned: each sliced
run is compared with the same config run in one piece.
"""

from __future__ import annotations

import pytest

from repro.scenarios import LIBRARY
from repro.system.config import baseline_config
from repro.system.emission import EmissionPolicy, read_metrics_series
from repro.system.simulation import Simulation, simulate

SIM_TIME = 1_500.0
WARMUP = 150.0
SEED = 11

SCENARIOS = {spec.name: spec for spec in LIBRARY}


def _config(name: str):
    return SCENARIOS[name].to_config(
        sim_time=SIM_TIME, warmup_time=WARMUP, seed=SEED
    )


def _advance(simulation: Simulation, pauses) -> None:
    """Run the warm-up, reset the metrics, then stop at each pause."""
    config = simulation.config
    if config.warmup_time > 0:
        simulation.env.run(until=config.warmup_time)
        simulation.metrics.reset(simulation.env.now, simulation.nodes)
    for stop in pauses:
        simulation.env.run(until=stop)


def _paused_run(config, pauses):
    """``Simulation.run`` with the measured phase stopped at ``pauses``."""
    simulation = Simulation(config)
    _advance(simulation, pauses)
    simulation.env.run(until=config.sim_time)
    return simulation.metrics.snapshot(
        simulation.env.now, simulation.nodes
    )


@pytest.fixture(scope="module")
def plain_results():
    return {name: simulate(_config(name)) for name in SCENARIOS}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_paused_run_equals_plain_run(name, plain_results):
    pauses = (WARMUP + 1.0, 600.0, 601.5, 1_200.0)
    assert _paused_run(_config(name), pauses) == plain_results[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_emitting_run_equals_plain_run(name, plain_results, tmp_path):
    path = str(tmp_path / "series.jsonl")
    emitted = simulate(
        _config(name), emit=EmissionPolicy(path=path, every_events=300)
    )
    assert emitted == plain_results[name]
    records = read_metrics_series(path)
    assert records[-1]["type"] == "final"
    assert any(record["type"] == "interval" for record in records)


def test_traced_paused_run_equals_untraced_plain_run():
    config = baseline_config(sim_time=SIM_TIME, warmup_time=WARMUP, seed=SEED)
    traced = config.with_(trace=True)
    assert _paused_run(traced, (900.0,)) == simulate(config)


def test_sketch_state_is_identical_at_the_pause():
    """The P² sketches of a run stopped many times hold the same markers
    at the pause as those of a run stopped once, and both finish with
    the same percentile estimates."""
    config = baseline_config(sim_time=SIM_TIME, warmup_time=WARMUP, seed=SEED)
    once = Simulation(config)
    _advance(once, (1_200.0,))
    many = Simulation(config)
    _advance(many, [WARMUP + 21.0 * k for k in range(1, 50)] + [1_200.0])

    for cls, acc in once.metrics._classes.items():
        other = many.metrics._classes[cls]
        assert acc.response_sketch.state() == other.response_sketch.state()
        assert acc.lateness_sketch.state() == other.lateness_sketch.state()

    for simulation in (once, many):
        simulation.env.run(until=config.sim_time)
    first = once.metrics.snapshot(once.env.now, once.nodes)
    second = many.metrics.snapshot(many.env.now, many.nodes)
    assert first == second
    assert first.local.p99_response == second.local.p99_response
    assert first.global_.p99_lateness == second.global_.p99_lateness
