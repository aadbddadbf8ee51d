"""Fleet-scale benchmark tier: per-event cost versus node count.

The acceptance bar for the fleet-state refactor (array-backed node
state, pooled work units, placement without fleet rescans): simulating
one event must not get meaningfully more expensive as the fleet grows.
Concretely, the event-loop cost per event at 10,000 nodes stays within
2x of the 10-node cost for both the least-outstanding (sorted lists of
the nodes holding work: O(log a) per decision, O(a) per update, a the
busy-node count, which the pinned total rate keeps small at any fleet
size) and zipf (Fenwick/alias samplers) placements, and a 100,000-node
scenario constructs and runs to completion.

Methodology: every cell runs the same *total* workload -- the global
subtask arrival rate is pinned at :data:`SUBTASK_RATE` per time unit
regardless of node count (``load = SUBTASK_RATE / node_count``,
global-only traffic) -- so cells differ only in how much fleet state
the engine carries per event.  Timing covers the event loop alone
(warmup + measured phase); construction and the O(n) final snapshot
are recorded as separate columns, since they are one-time costs that
tiny event counts would otherwise smear into the per-event figure.

Unlike the microbenchmark files this tier times whole runs directly
and writes ``BENCH_fleet.json`` at the repo root itself, so the
scaling record lands even under ``--benchmark-disable`` (how CI runs
the bench suites).
"""

from __future__ import annotations

import json
import time

from repro.scenarios import get_scenario
from repro.system.config import SystemConfig
from repro.system.simulation import Simulation

from _util import BENCH_FLEET_JSON

#: Node counts of the scaling sweep (the 2x assertion compares the
#: first and third entries; 100k is recorded for the trajectory).
NODE_COUNTS = (10, 1_000, 10_000, 100_000)

#: Total global subtask arrivals per time unit, at every node count.
#: Sized for the zipf hotspot at the *smallest* fleet: at n=10, s=1.2,
#: node 0 absorbs ~40% of subtasks, so rate 1.0 keeps it at ~0.4
#: utilization (stable) while larger fleets only get cooler.
SUBTASK_RATE = 1.0

SIM_TIME = 2_000.0
WARMUP_TIME = 200.0

#: Acceptance bar: per-event cost at 10k nodes vs. 10 nodes.
MAX_SLOWDOWN = 2.0


def _fleet_config(node_count: int, placement: str) -> SystemConfig:
    return SystemConfig(
        node_count=node_count,
        frac_local=0.0,
        load=SUBTASK_RATE / node_count,
        placement=placement,
        placement_zipf_s=1.2,
        sim_time=SIM_TIME,
        warmup_time=WARMUP_TIME,
        seed=7,
    )


def _measure_cell(config: SystemConfig) -> dict:
    """Build and run one cell, timing construction / event loop /
    snapshot separately (mirrors ``Simulation.run`` without emission)."""
    t0 = time.perf_counter()
    sim = Simulation(config)
    t1 = time.perf_counter()
    env = sim.env
    env.run(until=config.warmup_time)
    sim.metrics.reset(env.now)
    events_before = env._seq_peek()
    t2 = time.perf_counter()
    env.run(until=config.sim_time)
    t3 = time.perf_counter()
    events = env._seq_peek() - events_before
    result = sim.metrics.snapshot(env.now)
    t4 = time.perf_counter()
    assert events > 0
    assert result.global_.completed > 0, "fleet cell completed no tasks"
    return {
        "node_count": config.node_count,
        "placement": config.placement,
        "events": events,
        "build_seconds": t1 - t0,
        "loop_seconds": t3 - t2,
        "snapshot_seconds": t4 - t3,
        "us_per_event": (t3 - t2) / events * 1e6,
    }


def _record_cells(key: str, cells: list) -> None:
    """Merge one sweep's cells into ``BENCH_fleet.json``."""
    data: dict = {}
    if BENCH_FLEET_JSON.exists():
        try:
            data = json.loads(BENCH_FLEET_JSON.read_text())
        except ValueError:
            data = {}
    data.setdefault("methodology", (
        f"fixed total subtask rate {SUBTASK_RATE}/time at every node "
        f"count (load = rate/n, global-only); us_per_event times the "
        f"event loop only; build/snapshot are one-time O(n) costs"
    ))
    data.setdefault("sweeps", {})[key] = cells
    BENCH_FLEET_JSON.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )


def _run_scaling(placement: str) -> None:
    cells = [
        _measure_cell(_fleet_config(node_count, placement))
        for node_count in NODE_COUNTS
    ]
    _record_cells(placement, cells)
    by_n = {cell["node_count"]: cell for cell in cells}
    small = by_n[10]["us_per_event"]
    fleet = by_n[10_000]["us_per_event"]
    assert fleet <= MAX_SLOWDOWN * small, (
        f"{placement}: per-event cost grew {fleet / small:.2f}x from 10 "
        f"to 10k nodes ({small:.2f} -> {fleet:.2f} us/event); the "
        f"fleet-state layer must keep it within {MAX_SLOWDOWN}x"
    )


def test_fleet_scaling_least_outstanding():
    _run_scaling("least-outstanding")


def test_fleet_scaling_zipf():
    _run_scaling("zipf")


def test_fleet_100k_scenario_runs_to_completion():
    """A 100,000-node *scenario* (not just a raw config) constructs and
    runs end to end through the library path."""
    spec = get_scenario("fleet-uniform")
    # fleet-uniform's load (0.002) yields 200 subtasks/time at 100k
    # nodes; a short horizon keeps the cell quick while still pushing
    # thousands of units through the full fleet.
    config = spec.to_config(
        node_count=100_000, sim_time=20.0, warmup_time=2.0, seed=11
    )
    cell = _measure_cell(config)
    _record_cells("fleet-uniform-100k", [cell])
