"""Observability-layer benchmarks: sketches and emission.

Not a paper artifact: these guard the streaming-observability claim
that the instrumented completion path stays within noise of the
pre-observability tree.  Three workloads bracket the layer:

* ``obs_sketch_observe`` -- 10 000 P² updates on one three-quantile
  sketch: the marginal cost the metrics path pays per completion;
* ``obs_mm1_sketch_on`` -- the baseline mm1 cycle end to end on this
  tree (sketches always on, emission off): the number to compare with
  the pre-observability ``core_mm1`` and the recorded A/B;
* ``obs_mm1_emitting`` -- the same run with a JSONL metric series
  emitted every 2 000 events: the all-in observability cost.

Results merge into ``BENCH_obs.json``; the ``recorded`` section of
that file holds the interleaved A/B against the pre-observability tree
(commit 70f9fd0) quoted in PERFORMANCE.md.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.sim.rng import StreamFactory
from repro.sim.sketch import QuantileSketch
from repro.system.config import baseline_config
from repro.system.emission import EmissionPolicy
from repro.system.simulation import simulate

from _util import record_obs_bench

_VALUES = [
    rng.random() * 100.0
    for rng in [StreamFactory(23).get("bench-obs")]
    for _ in range(10_000)
]


def run_sketch_observe() -> float:
    sketch = QuantileSketch()
    observe = sketch.observe
    for value in _VALUES:
        observe(value)
    return sketch.quantile(0.99)


def run_mm1() -> int:
    """The baseline arrival/service cycle (cf. bench_core.py)."""
    result = simulate(
        baseline_config(sim_time=1_000.0, warmup_time=100.0, seed=3)
    )
    return result.local.completed


def run_mm1_emitting(path: str) -> int:
    result = simulate(
        baseline_config(sim_time=1_000.0, warmup_time=100.0, seed=3),
        emit=EmissionPolicy(path=path, every_events=2_000),
    )
    return result.local.completed


def test_obs_sketch_observe(benchmark):
    p99 = benchmark(run_sketch_observe)
    record_obs_bench("obs_sketch_observe", benchmark)
    assert 95.0 <= p99 <= 100.0


def test_obs_mm1_sketch_on(benchmark):
    completed = benchmark(run_mm1)
    record_obs_bench("obs_mm1_sketch_on", benchmark)
    assert completed > 500


def test_obs_mm1_emitting(benchmark, tmp_path):
    path = str(tmp_path / "m.jsonl")
    completed = benchmark(run_mm1_emitting, path)
    record_obs_bench("obs_mm1_emitting", benchmark)
    assert completed > 500
    assert Path(path).exists()
