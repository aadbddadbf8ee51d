"""The simulator's benchmark: one command, three workloads, end-to-end and
per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-fig2 --seed 1 --seconds 40 --trace 0

The run repeats the workload for ``--seconds`` seconds.  Each repetition
is a fresh single-threaded subprocess (``workloads.py``): the work-unit
pool is process-global, and peak RSS must belong to one workload.
``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions.  ``--trace 1`` alternates untraced and cProfile-traced
repetitions and reports the per-layer metrics (``layers.py``).

The end-to-end host times are rescaled to a reference host speed.  The
benchmark runs on a few cores of a shared host whose speed drifts by a
third over minutes.  So ``--trace 0`` times a fixed pure-Python loop
(``reference_seconds``) in this process before the first repetition and
after each one, and multiplies each repetition's host times by
``REFERENCE_S`` over the mean of the two loop times around it: seconds
on a host where that loop takes ``REFERENCE_S``.  The loop runs outside
the simulator's process and imports nothing from it, so a change to the
program moves the rescaled metrics exactly as it moves the raw ones.
The raw figures go to stderr.

Every repetition checks the simulator's outputs; a run that raises or
fails a check counts in ``failed`` (so ``failed / attempted`` is the
fail ratio).  Every repetition of one seed must yield the same digest of
simulated statistics and the same simulated per-layer counts; the
digest is printed on the line before the result.

The program comes from ``src/`` of the checkout.  For an A/B against an
older commit, put that commit's ``src/`` on ``PYTHONPATH``: its entries
come first.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics, measured with the tracer off.
END_TO_END = ("tasks_per_s", "wall_s", "setup_s", "peak_rss_mb")

#: Whole-run budget: the benchmark must exit within 180 s.
BUDGET_S = 170.0

#: The reference loop's time on a quiet 2-vCPU VM: host times are
#: reported as seconds on a host where the loop takes this long.
REFERENCE_S = 0.2
REFERENCE_ITERATIONS = 150_000


def reference_seconds() -> float:
    """Host seconds for a fixed loop of the kind a discrete-event kernel
    runs: heap pushes and pops, random draws, dict updates.  The garbage
    collector is off, so only the host's speed moves it."""
    rng = random.Random(1)
    heap: List[Tuple[float, int]] = []
    counts: Dict[int, int] = {}
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(REFERENCE_ITERATIONS):
            heapq.heappush(heap, (rng.random(), i))
            counts[i & 1023] = counts.get(i & 1023, 0) + 1
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths + [os.path.join(ROOT, "src")])
    # Fixed string hashing: dict and set layouts, and so timings, match
    # from one repetition to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


def _repetition(args: argparse.Namespace, profile: bool, first: bool,
                tmp: str, deadline: float) -> Dict[str, Any]:
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp,
    ]
    if profile:
        cmd.append("--profile")
    if first:
        cmd.append("--check-scenario")
    proc = subprocess.run(
        cmd, env=_child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload subprocess exited {proc.returncode}:\n{proc.stderr}"
        )
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["profiled"] = profile
    return rep


def _repetitions(args: argparse.Namespace, tmp: str) -> List[Dict[str, Any]]:
    """Run repetitions until ``--seconds`` is used up: untraced only, or
    untraced and traced in turn.  The next one starts only if a
    repetition of its kind still fits.  Untraced runs time the reference
    loop before the first repetition and after each one."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    kinds = [False, True] if args.trace else [False]
    reps: List[Dict[str, Any]] = []
    last: Dict[bool, float] = {}
    ref_before = None if args.trace else reference_seconds()
    while True:
        kind = kinds[len(reps) % len(kinds)]
        began = time.monotonic()
        if kind in last and began - start + last[kind] > min(args.seconds,
                                                            BUDGET_S):
            break
        rep = _repetition(args, kind, not reps, tmp, deadline)
        reference = ""
        if ref_before is not None:
            ref_after = reference_seconds()
            rep["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            reference = f", reference loop {rep['ref_s']:.4f} s"
        last[kind] = time.monotonic() - began
        reps.append(rep)
        print(
            f"repetition {len(reps)}{' traced' if kind else ''}: "
            f"{rep['tasks'] / rep['run_s']:.1f} tasks/s, wall "
            f"{rep['wall_s']:.4f} s, setup {rep['setup_s']:.4f} s (raw)"
            f"{reference}",
            file=sys.stderr, flush=True,
        )
    return reps


def _median(values: List[float]) -> float:
    return statistics.median(values)


def _check_reps(args: argparse.Namespace,
                reps: List[Dict[str, Any]]) -> List[str]:
    """Cross-repetition checks: same code and seed, same simulation."""
    problems = []
    for rep in reps:
        problems.extend(rep["errors"])
    if len({rep["digest"] for rep in reps}) > 1:
        problems.append("simulated-statistics digest differs between runs")
    for name in reps[0]["stats"]:
        values = {rep["stats"].get(name) for rep in reps}
        if len(values) > 1:
            problems.append(f"{name} differs between runs: {sorted(values)}")
    traced = [rep["profile"] for rep in reps if rep["profiled"]]
    for layer in layers.LAYERS:
        if len({p["calls"][layer] for p in traced}) > 1:
            problems.append(f"{layer}.calls differs between traced runs")
    for profile in traced:
        for layer in layers.ZERO_CALL_LAYERS[args.workload]:
            if profile["calls"][layer]:
                problems.append(
                    f"{layer} layer called {profile['calls'][layer]} times "
                    f"on {args.workload}; it must cost nothing here"
                )
        share = _named_share(profile)
        if share < layers.MIN_NAMED_SHARE:
            problems.append(
                f"only {share:.3f} of profiled self time is in named layers"
            )
    return problems


def _named_share(profile: Dict[str, Any]) -> float:
    total = sum(profile["self_s"].values())
    return 1.0 - profile["self_s"][layers.OTHER] / total if total else 0.0


def _end_to_end(plain: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the untraced repetitions, host times rescaled to
    the reference speed repetition by repetition."""

    def rescaled(r: Dict[str, Any], key: str) -> float:
        return r[key] * REFERENCE_S / r["ref_s"]

    return {
        "tasks_per_s": _median(
            [r["tasks"] / rescaled(r, "run_s") for r in plain]
        ),
        "wall_s": _median([rescaled(r, "wall_s") for r in plain]),
        "setup_s": _median([rescaled(r, "setup_s") for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }


def _per_layer(plain: List[Dict[str, Any]],
               traced: List[Dict[str, Any]]) -> Dict[str, float]:
    profiles = [r["profile"] for r in traced]
    values: Dict[str, float] = dict(traced[0]["stats"])
    for layer in layers.LAYERS + (layers.OTHER,):
        values[f"{layer}.self_s"] = _median(
            [p["self_s"][layer] for p in profiles]
        )
    for layer in layers.LAYERS:
        values[f"{layer}.calls"] = profiles[0]["calls"][layer]
    values["coordinator.attempt_yield"] = profiles[0]["attempt_yield"]
    values["emission.cum_s"] = _median([p["emission_cum_s"] for p in profiles])
    values["trace.overhead"] = (
        _median([r["wall_s"] for r in traced])
        / _median([r["wall_s"] for r in plain])
    )
    values["trace.named_share"] = _median([_named_share(p) for p in profiles])
    return values


def _declared() -> Dict[str, Dict[str, str]]:
    """Metric name -> declaration, from ``BENCHMARK.json``, checked
    against this benchmark's own lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    if set(end_to_end) != set(END_TO_END):
        raise SystemExit("BENCHMARK.json end_to_end does not match run.py")
    if set(per_layer) != {m["name"] for m in layers.PER_LAYER}:
        raise SystemExit("BENCHMARK.json per_layer does not match layers.py")
    if set(w["name"] for w in spec["workloads"]) != set(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads do not match workloads.py")
    return {0: end_to_end, 1: per_layer}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    declared = _declared()[args.trace]

    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        reps = _repetitions(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [r for r in reps if not r["profiled"]]
    traced = [r for r in reps if r["profiled"]]
    problems = _check_reps(args, reps)
    attempted = sum(r["runs"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = _per_layer(plain, traced) if args.trace else _end_to_end(plain)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        f"{args.workload} seed={args.seed}: {len(plain)} untraced + "
        f"{len(traced)} traced repetitions, digest {reps[0]['digest']}, "
        f"fail_ratio {failed / attempted:g}"
    )
    metrics = {
        name: {"value": values[name], "unit": declared[name]["unit"]}
        for name in declared
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
