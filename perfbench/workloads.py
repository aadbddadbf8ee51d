"""The benchmark's workloads, and the child process that runs one of them.

Run as a script, this module runs ONE repetition of one workload in the
current process and prints one JSON object on stdout: host times, peak
memory, simulated statistics, the output checks and a digest of every
run's simulated statistics.  With ``--profile`` the repetition runs
under cProfile and the object also carries the per-layer split (see
``layers.py``).  ``run.py`` starts a fresh interpreter per repetition,
because the work-unit pool is process-global and peak RSS must belong
to one workload.

The ``paper-fig2`` workload touches only API that exists at the anchor
commit ``393c113``: ``Simulation(config).run()``, ``baseline_config``
and ``RunResult.per_class``/``per_node``.  Fields added later (such as
``ClassStats.failed``) are read only when present, so the benchmark
runs unchanged with ``PYTHONPATH`` pointed at that commit's ``src/``.

Usage (normally started by ``run.py``)::

    PYTHONPATH=src python3 perfbench/workloads.py --workload paper-fig2 --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Fig. 2's axes: loads 0.1-0.5 times the four SSP strategies.
FIG2_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5)
FIG2_STRATEGIES = ("UD", "ED", "EQS", "EQF")
FIG2_REPLICATIONS = 2
#: A short Fig. 2 grid: 3600 measured time units per run (the paper used
#: 10^6).  Long enough that the checked Fig. 2 orderings hold for every
#: seed tried, short enough for ~10 repetitions in one benchmark run.
FIG2_SIM_TIME = 4_000.0
FIG2_WARMUP = 400.0

#: fleet-fanout: the total subtask rate is pinned, so the node count
#: changes only how much fleet state each event carries.
FLEET_NODES = 100_000
FLEET_SUBTASK_RATE = 20.0
FLEET_SIM_TIME = 2_000.0
FLEET_WARMUP = 200.0

CHURN_SCENARIO = "detector-preemptive"
CHURN_SIM_TIME = 20_000.0
CHURN_WARMUP = 2_000.0
#: Emission cadence in kernel events: a fixed event count, not wall
#: time, so the emitted series is the same on every run of one seed.
CHURN_EMIT_EVERY = 10_000


class Run(NamedTuple):
    """One ``Simulation(config).run()`` of a workload."""

    label: str
    make_config: Callable[[], Any]
    emit: bool = False


def _paper_fig2(seed: int) -> List[Run]:
    from repro import baseline_config

    runs = []
    for load in FIG2_LOADS:
        for strategy in FIG2_STRATEGIES:
            for rep in range(FIG2_REPLICATIONS):
                run_seed = seed * 1_000 + len(runs)
                runs.append(Run(
                    f"{strategy}@{load}#{rep}",
                    lambda s=strategy, l=load, r=run_seed: baseline_config(
                        strategy=s, load=l, sim_time=FIG2_SIM_TIME,
                        warmup_time=FIG2_WARMUP, seed=r,
                    ),
                ))
    return runs


def _fleet_fanout(seed: int) -> List[Run]:
    from repro.system.config import parallel_baseline_config

    return [Run(
        "fleet",
        lambda: parallel_baseline_config(
            node_count=FLEET_NODES,
            frac_local=0.0,
            load=FLEET_SUBTASK_RATE / FLEET_NODES,
            subtask_count=4,
            strategy="DIV-1",
            placement="least-outstanding",
            sim_time=FLEET_SIM_TIME,
            warmup_time=FLEET_WARMUP,
            seed=seed,
        ),
    )]


def _churn_observed(seed: int) -> List[Run]:
    """The ``detector-preemptive`` library scenario under EQF.

    Its parameters are copied here: importing ``repro.scenarios`` pulls
    in scipy through the sweep-report module, ~1 s and ~80 MB per
    repetition that are not the simulator's.  ``check_churn_scenario``
    fails the run if the copy drifts from the library.
    """
    from repro.system.config import SystemConfig
    from repro.system.detector import DetectorSpec
    from repro.system.faults import FaultSpec

    return [Run(
        "churn",
        lambda: SystemConfig(
            preemptive=True,
            faults=FaultSpec(
                mttf=400.0, mttr=20.0, in_flight="resume",
                queued="preserved", retry_limit=2, retry_timeout=30.0,
                retry_backoff=1.0,
            ),
            detector=DetectorSpec(
                kind="timeout", heartbeat_interval=2.0, timeout=6.0,
                delay_mean=0.5, loss_probability=0.1,
            ),
            **_churn_overrides(seed),
        ),
        emit=True,
    )]


def _churn_overrides(seed: int) -> Dict[str, Any]:
    return dict(strategy="EQF", sim_time=CHURN_SIM_TIME,
                warmup_time=CHURN_WARMUP, seed=seed)


def check_churn_scenario(seed: int) -> List[str]:
    """The copied churn config must equal the library scenario's."""
    from repro.scenarios import get_scenario

    library = get_scenario(CHURN_SCENARIO).to_config(**_churn_overrides(seed))
    if library != _churn_observed(seed)[0].make_config():
        return [f"churn-observed config differs from the {CHURN_SCENARIO} "
                "library scenario"]
    return []


WORKLOADS: Dict[str, Callable[[int], List[Run]]] = {
    "paper-fig2": _paper_fig2,
    "fleet-fanout": _fleet_fanout,
    "churn-observed": _churn_observed,
}


# -- output checks -----------------------------------------------------------


def _finished(stats: Any) -> int:
    return stats.completed + stats.aborted


def check_accounting(result: Any) -> List[str]:
    """Invariants every run must satisfy, whatever the workload."""
    problems = []
    for name, stats in result.per_class.items():
        if stats.missed > _finished(stats):
            problems.append(
                f"{name}: missed {stats.missed} > completed+aborted "
                f"{_finished(stats)}"
            )
        failed = getattr(stats, "failed", 0)
        if failed > stats.aborted:
            problems.append(f"{name}: failed {failed} > aborted {stats.aborted}")
    bad = [n.index for n in result.per_node if not 0.0 <= n.utilization <= 1.0]
    if bad:
        problems.append(f"utilization outside [0, 1] at nodes {bad[:5]}")
    return problems


def check_fig2(results: Dict[str, Any]) -> List[Tuple[List[str], str]]:
    """Fig. 2's strongest claims on the replicated grid.

    Returns ``(labels of the runs the claim rests on, problem)`` pairs.
    """

    def point(strategy: str, load: float) -> Tuple[List[str], float]:
        labels = [f"{strategy}@{load}#{rep}" for rep in range(FIG2_REPLICATIONS)]
        return labels, sum(results[l].md_global for l in labels) / len(labels)

    problems = []
    top, bottom = FIG2_LOADS[-1], FIG2_LOADS[0]
    ud_labels, ud = point("UD", top)
    eqf_labels, eqf = point("EQF", top)
    if not ud > eqf:
        problems.append((
            ud_labels + eqf_labels,
            f"MD_global at load {top}: UD {ud:.4f} does not exceed "
            f"EQF {eqf:.4f}",
        ))
    for strategy in FIG2_STRATEGIES:
        low_labels, low = point(strategy, bottom)
        high_labels, high = point(strategy, top)
        if not high > low:
            problems.append((
                low_labels + high_labels,
                f"{strategy}: MD_global does not rise from load {bottom} "
                f"({low:.4f}) to {top} ({high:.4f})",
            ))
    return problems


def check_emission(result: Any, records: List[Dict[str, Any]]) -> List[str]:
    finals = [r for r in records if r.get("type") == "final"]
    if len(finals) != 1:
        return [f"expected one final emission record, found {len(finals)}"]
    # Canonical JSON on both sides: NaN fields compare equal as text.
    emitted = json.dumps(finals[0]["cumulative"], sort_keys=True)
    returned = json.dumps(result.to_dict(), sort_keys=True)
    if emitted != returned:
        return ["emitted final record differs from RunResult.to_dict()"]
    return []


def check_detector(result: Any) -> List[str]:
    seen = result.detections + result.missed_detections
    if seen > result.total_crashes:
        return [
            f"detections {result.detections} + missed "
            f"{result.missed_detections} > crashes {result.total_crashes}"
        ]
    return []


# -- simulated statistics ------------------------------------------------------


def simulated_stats(results: List[Any], events: int,
                    emission: Tuple[int, int]) -> Dict[str, float]:
    """Per-layer statistics read from the runs' results: for a fixed seed
    they repeat exactly on every run of the same code."""
    classes = [r.per_class for r in results]
    nodes = [n for r in results for n in r.per_node]
    runs = len(results)
    waiting = [
        c["local"].mean_waiting for c in classes
        if c["local"].completed > 0
    ]
    detections = sum(getattr(r, "detections", 0) for r in results)
    false_suspicions = sum(getattr(r, "false_suspicions", 0) for r in results)
    latency_sum = sum(
        r.detection_latency * r.detections for r in results
        if getattr(r, "detections", 0)
    )
    try:
        from repro.system.work import UNIT_POOL
        high_water = getattr(UNIT_POOL, "high_water", 0)
    except ImportError:
        high_water = 0
    return {
        "engine.events": events,
        "sources.tasks": sum(_finished(s) for c in classes for s in c.values()),
        "nodes.dispatched": sum(n.dispatched for n in nodes),
        "nodes.utilization": sum(r.mean_utilization for r in results) / runs,
        "nodes.queue_mean": sum(n.mean_queue_length for n in nodes) / len(nodes),
        "nodes.waiting_mean": sum(waiting) / len(waiting) if waiting else 0.0,
        "nodes.preemptions": sum(getattr(n, "preemptions", 0) for n in nodes),
        "coordinator.global_tasks": sum(_finished(c["global"]) for c in classes),
        "coordinator.retries": sum(getattr(r, "retries", 0) for r in results),
        "coordinator.misroutes": sum(getattr(r, "misroutes", 0) for r in results),
        "coordinator.failed": sum(
            getattr(c["global"], "failed", 0) for c in classes
        ),
        "work.high_water": high_water,
        "faults.crashes": sum(getattr(n, "crashes", 0) for n in nodes),
        "faults.lost": sum(getattr(n, "lost", 0) for n in nodes),
        "faults.downtime": (
            sum(getattr(n, "downtime", 0.0) for n in nodes) / len(nodes)
        ),
        "detector.detections": detections,
        "detector.false_suspicions": false_suspicions,
        "detector.missed_detections": sum(
            getattr(r, "missed_detections", 0) for r in results
        ),
        "detector.latency": latency_sum / detections if detections else 0.0,
        "detector.precision": (
            detections / (detections + false_suspicions)
            if detections + false_suspicions else 0.0
        ),
        "emission.records": emission[0],
        "emission.bytes": emission[1],
    }


def digest(results: List[Any]) -> str:
    """Hash of every run's simulated statistics, in run order.

    ``repr`` of the frozen result dataclasses spells out every field,
    floats to the last bit, so any change in simulated behaviour (or in
    the result schema) changes the digest.
    """
    h = hashlib.sha256()
    for result in results:
        h.update(repr(result).encode())
    return h.hexdigest()[:16]


# -- one repetition ------------------------------------------------------------


def run_repetition(workload: str, seed: int, profile: bool,
                   scratch: str, check_scenario: bool) -> Dict[str, Any]:
    # Building the run list imports what the workload uses, so neither
    # the clock nor the profiler sees import time.
    runs = WORKLOADS[workload](seed)
    from repro import Simulation
    emits = any(run.emit for run in runs)
    if emits:
        from repro.system.emission import EmissionPolicy, read_metrics_series
    results: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    setup_s = run_s = 0.0
    events = 0
    series_path = os.path.join(scratch, "series.jsonl")

    profiler = None
    if profile:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    wall_start = time.perf_counter()
    for run in runs:
        try:
            config = run.make_config()
            t0 = time.perf_counter()
            sim = Simulation(config)
            t1 = time.perf_counter()
            if run.emit:
                result = sim.run(emit=EmissionPolicy(
                    path=series_path, every_events=CHURN_EMIT_EVERY,
                ))
            else:
                result = sim.run()
            t2 = time.perf_counter()
        except Exception:  # a raising run is a failed run, not a crash
            errors[run.label] = traceback.format_exc(limit=3)
            continue
        setup_s += t1 - t0
        run_s += t2 - t1
        results[run.label] = result
        seq_peek = getattr(sim.env, "_seq_peek", None)
        events += seq_peek() if seq_peek is not None else 0
    wall_s = time.perf_counter() - wall_start
    if profiler is not None:
        profiler.disable()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for label, result in results.items():
        for problem in check_accounting(result):
            errors.setdefault(label, problem)
    emission = (0, 0)
    if emits and os.path.exists(series_path):
        records = read_metrics_series(series_path)
        emission = (len(records), os.path.getsize(series_path))
        for label in results:
            for problem in check_emission(results[label], records):
                errors.setdefault(label, problem)
    if workload == "churn-observed":
        for label, result in results.items():
            for problem in check_detector(result):
                errors.setdefault(label, problem)
    if workload == "paper-fig2" and len(results) == len(runs):
        for labels, problem in check_fig2(results):
            for label in labels:
                errors.setdefault(label, problem)

    problems = sorted(f"{k}: {v}" for k, v in errors.items())[:5]
    if check_scenario and workload == "churn-observed":
        problems += check_churn_scenario(seed)

    ordered = [results[run.label] for run in runs if run.label in results]
    finished = sum(
        _finished(s) for r in ordered for s in r.per_class.values()
    )
    out: Dict[str, Any] = {
        "runs": len(runs),
        "failed": len(errors),
        "errors": problems,
        "tasks": finished,
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(ordered),
        "stats": simulated_stats(ordered, events, emission) if ordered else {},
    }
    if profiler is not None:
        import pstats

        import layers
        import repro
        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        out["profile"] = layers.fold(
            pstats.Stats(profiler).stats, package_dir
        )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument(
        "--check-scenario", action="store_true",
        help="after measuring, check copied scenario parameters against "
             "the library",
    )
    parser.add_argument(
        "--tmp", required=True,
        help="directory for the workload's emitted files",
    )
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="rep-", dir=args.tmp)
    try:
        out = run_repetition(args.workload, args.seed, args.profile, scratch,
                             args.check_scenario)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
