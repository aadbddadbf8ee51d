"""Microbenchmarks of the fault-injection subsystem.

Not a paper artifact: these track two costs the fault dimension must
keep honest.

**Fault-free overhead** -- the up/down hooks live on the node hot path
(an ``_up`` check per wake/dispatch, a timer-handle store per service
interval), so fault-free runs pay a small fixed tax.  The
``fault_free_baseline`` / ``zero_rate_spec`` benches track that tax over
time, and ``python benchmarks/bench_faults.py ab`` measures it directly
against the pre-fault tree (``git archive``d from a ref, default HEAD)
with the interleaved A/B methodology from PERFORMANCE.md: paired
subprocess rounds alternating old/new at the same commit, medians
recorded under the ``recorded`` key of ``BENCH_faults.json``.  The
acceptance bar is ~3% on the ``bench_core``/``bench_kernel``-style
workloads below.

**Churn-mode cost** -- what crashing actually costs: the
``crash_recover_storm`` micro isolates the crash machinery (timer
cancellation, queue surgery, recovery re-dispatch), and the
``steady_churn`` / ``lossy_retry_churn`` benches put the whole model
(injector, live set, retry layer, failure-aware placement) in
end-to-end context.

**Detector cost** -- the failure-detection stack rides the same hot
paths: ``disabled_detector_spec`` pins the no-op claim (a disabled
``DetectorSpec`` wires nothing), ``detector_churn`` prices the full
heartbeat/suspicion/misroute machinery end to end, and
``python benchmarks/bench_faults.py ab-detector <ref>`` records the
detector-off overhead against the pre-detector tree under
``recorded["detector_off_overhead"]``.

Results are merged into ``BENCH_faults.json`` at the repo root.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.scenarios.library import LOSSY_TIMEOUT_DETECTOR, STEADY_CHURN_FAULTS
from repro.sim.core import Environment
from repro.system.config import baseline_config
from repro.system.detector import DetectorSpec
from repro.system.faults import FaultSpec
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.simulation import simulate
from repro.system.work import WorkUnit

from _util import record_bench

BENCH_FAULTS_JSON = Path(__file__).parent.parent / "BENCH_faults.json"

#: Shared run length (same convention as bench_preemptive.py).
_RUN = dict(sim_time=1_500.0, warmup_time=150.0)

#: Lossy crashes with aggressive retries: the heaviest fault path.
_LOSSY = FaultSpec(
    mttf=150.0, mttr=15.0, in_flight="lost", queued="dropped",
    retry_limit=3, retry_timeout=20.0, retry_backoff=0.5,
)


def record_faults_bench(name: str, benchmark) -> None:
    record_bench(BENCH_FAULTS_JSON, name, benchmark)


def run_fault_free() -> int:
    """The Table 1 baseline with no FaultSpec: the hot path every
    existing experiment pays, now carrying the up/down hooks."""
    result = simulate(baseline_config(seed=13, **_RUN))
    return result.local.completed


def run_zero_rate() -> int:
    """Same run with a zero-rate FaultSpec: must cost the same as no
    spec at all (nothing is wired)."""
    result = simulate(baseline_config(seed=13, faults=FaultSpec(), **_RUN))
    return result.local.completed


def run_steady_churn() -> int:
    """Resume/preserved churn with retries: the gentle fault mode."""
    result = simulate(
        baseline_config(seed=13, faults=STEADY_CHURN_FAULTS, **_RUN)
    )
    return result.local.completed


def run_lossy_retry_churn() -> int:
    """Lost/dropped crashes at high churn with a deep retry budget:
    every fault-path branch exercised at once."""
    result = simulate(baseline_config(seed=13, faults=_LOSSY, **_RUN))
    return result.local.completed


def run_disabled_detector() -> int:
    """The fault-free baseline with a *disabled* DetectorSpec: must cost
    the same as no spec at all (nothing is wired)."""
    result = simulate(
        baseline_config(seed=13, detector=DetectorSpec(), **_RUN)
    )
    return result.local.completed


def run_detector_churn() -> int:
    """Steady churn observed through the lossy-heartbeats channel: the
    whole detector stack (heartbeat emitters, expiry timers, suspicion
    routing, misroute bounces) in end-to-end context."""
    result = simulate(
        baseline_config(
            seed=13,
            faults=STEADY_CHURN_FAULTS,
            detector=LOSSY_TIMEOUT_DETECTOR,
            **_RUN,
        )
    )
    return result.local.completed


class _CrashStorm:
    """Alternating crash/recover driver against one node with a standing
    queue: each cycle is pure crash machinery -- cancel the in-service
    timer, apply crash semantics, then recovery re-dispatch."""

    def __init__(self, env: Environment, node: Node, cycles: int) -> None:
        self.env = env
        self.node = node
        self.left = cycles
        self.crashes = 0
        env._sleep(0.25, self._crash)

    def _crash(self, _event) -> None:
        self.crashes += 1
        self.node.crash()
        self.env._sleep(0.25, self._recover)

    def _recover(self, _event) -> None:
        self.node.recover()
        self.left -= 1
        if self.left:
            self.env._sleep(0.25, self._crash)


def run_crash_storm(cycles: int = 10_000) -> int:
    """``cycles`` crash/recover rounds against a never-draining queue."""
    env = Environment()
    metrics = MetricsCollector(node_count=1)
    node = Node(
        env=env, index=0, policy=EarliestDeadlineFirst(), metrics=metrics
    )
    # Frozen-resume semantics: the held unit survives every crash, so
    # the queue never drains and every cycle does the full dance.
    node.configure_fault_semantics(lose_in_flight=False, drop_queued=False)
    for i in range(4):
        timing = TimingRecord(ar=0.0, ex=1e9, dl=1e12)
        unit = WorkUnit(name=None, task_class=TaskClass.LOCAL,
                        node_index=0, timing=timing)
        unit.lost = False
        node.submit(unit)
    storm = _CrashStorm(env, node, cycles)
    env.run(until=cycles * 0.5 + 1.0)
    return storm.crashes


def test_fault_free_baseline(benchmark):
    completed = benchmark(run_fault_free)
    record_faults_bench("fault_free_baseline", benchmark)
    assert completed > 1000


def test_zero_rate_spec(benchmark):
    completed = benchmark(run_zero_rate)
    record_faults_bench("zero_rate_spec", benchmark)
    # Zero-rate wiring is a no-op: bit-identical work, so identical output.
    assert completed == run_fault_free()


def test_steady_churn(benchmark):
    completed = benchmark(run_steady_churn)
    record_faults_bench("steady_churn", benchmark)
    assert completed > 1000


def test_lossy_retry_churn(benchmark):
    completed = benchmark(run_lossy_retry_churn)
    record_faults_bench("lossy_retry_churn", benchmark)
    assert completed > 1000


def test_crash_recover_storm(benchmark):
    crashes = benchmark(run_crash_storm)
    record_faults_bench("crash_recover_storm", benchmark)
    assert crashes == 10_000


def test_disabled_detector_spec(benchmark):
    completed = benchmark(run_disabled_detector)
    record_faults_bench("disabled_detector_spec", benchmark)
    # Disabled-detector wiring is a no-op: bit-identical work/output.
    assert completed == run_fault_free()


def test_detector_churn(benchmark):
    completed = benchmark(run_detector_churn)
    record_faults_bench("detector_churn", benchmark)
    assert completed > 1000


# -- interleaved A/B overhead measurement ---------------------------------
#
# Invoked as ``python benchmarks/bench_faults.py ab [ref]``, not via
# pytest: it rebuilds the pre-fault source tree with ``git archive`` and
# is only meaningful when ``ref`` predates the fault subsystem.

#: Timing driver run in a subprocess against either source tree.  The
#: workloads mirror bench_kernel's ``mm1_queue_cycle`` (the node hot
#: path the fault hooks touch) and bench_core's ``kernel_storm`` (pure
#: kernel, untouched -- the control).  Prints one JSON object of
#: best-of-``reps`` wall times.
_AB_DRIVER = """
import json, sys, time

def time_best(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best

def mm1():
    from repro.system.config import baseline_config
    from repro.system.simulation import simulate
    simulate(baseline_config(sim_time=1_000.0, warmup_time=100.0, seed=3))

def kernel_storm():
    from repro.sim.core import Environment
    env = Environment()
    left = [100_000]
    def tick(_event):
        left[0] -= 1
        if left[0]:
            env._sleep(1.0, tick)
    env._sleep(1.0, tick)
    env.run()

mm1()  # warm caches/imports before timing
print(json.dumps({
    "mm1_queue_cycle": time_best(mm1),
    "kernel_storm": time_best(kernel_storm),
}))
"""


def measure_ab_overhead(ref: str = "HEAD", rounds: int = 9) -> dict:
    """Interleaved A/B: ``ref``'s src tree vs. the working tree.

    Alternates old/new subprocess rounds (A B A B ...) so drift in
    machine load hits both legs equally; per-workload minima across all
    rounds yield the overhead ratios (the minimum is the least
    noise-contaminated estimate of the true cost on a shared box).
    ``kernel_storm`` runs code that is byte-identical in both trees, so
    its ratio is the measurement noise floor -- read ``mm1_queue_cycle``
    (the node hot path the fault hooks touch) against it.
    """
    import json as _json
    import subprocess
    import sys
    import tempfile

    repo = Path(__file__).parent.parent
    results: dict = {"old": {}, "new": {}}
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            f"git archive {ref} src | tar -x -C {tmp}",
            shell=True, cwd=repo, check=True,
        )
        legs = {"old": str(Path(tmp) / "src"), "new": str(repo / "src")}
        samples = {leg: {} for leg in legs}
        for round_ in range(rounds):
            for leg, src in legs.items():
                output = subprocess.run(
                    [sys.executable, "-c", _AB_DRIVER],
                    env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
                    capture_output=True, text=True, check=True,
                ).stdout
                for name, seconds in _json.loads(output).items():
                    samples[leg].setdefault(name, []).append(seconds)
        for leg, by_name in samples.items():
            results[leg] = {
                name: min(values) for name, values in by_name.items()
            }
    overhead = {
        name: results["new"][name] / results["old"][name] - 1.0
        for name in results["old"]
    }
    return {
        "method": (
            f"interleaved A/B, {rounds} alternating subprocess rounds per "
            "leg, best-of-3 within a round, min across rounds; "
            "kernel_storm is byte-identical in both trees (noise floor)"
        ),
        "old_ref": ref,
        "min_seconds_old": results["old"],
        "min_seconds_new": results["new"],
        "overhead_ratio": overhead,
    }


def _record_ab(key: str, ref: str) -> dict:
    """Measure the working tree against ``ref`` and store the record
    under ``recorded[key]`` of ``BENCH_faults.json``."""
    import json as _json

    record = measure_ab_overhead(ref)
    data: dict = {}
    if BENCH_FAULTS_JSON.exists():
        try:
            data = _json.loads(BENCH_FAULTS_JSON.read_text())
        except ValueError:
            data = {}
    data.setdefault("recorded", {})[key] = record
    BENCH_FAULTS_JSON.write_text(
        _json.dumps(data, indent=2, sort_keys=True) + "\n"
    )
    return record


def record_ab_overhead(ref: str = "HEAD") -> dict:
    """Fault-free overhead vs. the pre-fault tree at ``ref``."""
    return _record_ab("fault_free_overhead", ref)


def record_detector_ab(ref: str = "HEAD") -> dict:
    """Detector-off overhead vs. the pre-detector tree at ``ref``.

    Same interleaved methodology: the driver's ``mm1_queue_cycle`` runs
    a config with no detector, so the ratio is exactly what every
    existing (oracle-mode) experiment pays for the detector hooks;
    ``kernel_storm`` stays the noise floor.  Only meaningful when
    ``ref`` predates the detector subsystem.
    """
    return _record_ab("detector_off_overhead", ref)


if __name__ == "__main__":
    import json as _json
    import sys as _sys

    if len(_sys.argv) > 1 and _sys.argv[1] == "ab":
        ref = _sys.argv[2] if len(_sys.argv) > 2 else "HEAD"
        print(_json.dumps(record_ab_overhead(ref), indent=2))
    elif len(_sys.argv) > 1 and _sys.argv[1] == "ab-detector":
        ref = _sys.argv[2] if len(_sys.argv) > 2 else "HEAD"
        print(_json.dumps(record_detector_ab(ref), indent=2))
    else:
        print(__doc__)
