"""Layer map of the simulator and the profile fold behind the per-layer
metrics.

The per-layer split is measured from outside the program: one
repetition of a workload runs under cProfile, and each profiled
function's self time is charged to the layer of the module that defines
it.  Code outside the ``repro`` package -- C builtins, the standard
library, dataclass-generated ``__init__`` methods -- is charged to the
layer that called it, split along pstats caller edges in proportion to
the time each caller spent in it.  Anything left over (unmapped
``repro`` modules, the benchmark's own frames) is ``other``.

``PER_LAYER`` below is the benchmark's list of per-layer metrics.  Each
entry records the end-to-end metric and workload the per-layer metric
should move, so a change that claims to move one can be checked
against it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

#: Layer -> modules, relative to the ``repro`` package directory.  An
#: entry ending in "/" covers a whole subpackage.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "engine": ("sim/_engine.py", "sim/core.py"),
    "process": ("sim/process.py",),
    "distributions": ("sim/distributions.py", "sim/rng.py"),
    "sources": ("system/workload.py",),
    "nodes": (
        "system/node.py", "system/preemptive.py", "system/schedulers.py",
        "system/overload.py",
    ),
    "coordinator": ("system/process_manager.py",),
    "strategies": ("core/",),
    "placement": ("system/placement.py",),
    "work": ("system/work.py",),
    "fleet": ("system/fleet.py",),
    "metrics": ("system/metrics.py", "sim/monitor.py", "system/tracing.py"),
    "sketch": ("sim/sketch.py",),
    "faults": ("system/faults.py",),
    "detector": ("system/detector.py",),
    "emission": ("system/emission.py",),
    "checkpoint": ("checkpoint.py",),
    "setup": ("system/simulation.py", "system/config.py", "scenarios/"),
}
LAYERS = tuple(LAYER_MODULES)
OTHER = "other"

#: Layers that must see zero calls on a workload: "features that are
#: off cost nothing", counted.  ``process`` is the generator layer no
#: workload should reach.
ZERO_CALL_LAYERS: Dict[str, Tuple[str, ...]] = {
    "paper-fig2": ("faults", "detector", "emission", "checkpoint", "process"),
    "fleet-fanout": ("faults", "detector", "emission", "checkpoint", "process"),
    "churn-observed": ("process",),
}

#: At least this share of profiled self time must land in named layers.
MIN_NAMED_SHARE = 0.95

_ALL = "all workloads"
_FIG2 = "paper-fig2"
_FLEET = "fleet-fanout"
_CHURN = "churn-observed"

#: Simulated statistics and call counts beyond ``<layer>.self_s`` and
#: ``<layer>.calls``: (name, unit, better, end-to-end metric it should
#: move, on which workload).
_EXTRA: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine.events", "count", "lower",
     f"tasks_per_s on {_FIG2} and {_CHURN} (heartbeat timers); little on {_FLEET}"),
    ("sources.tasks", "count", "higher",
     f"tasks_per_s on {_FIG2} (75% local load); ~3% on {_FLEET}"),
    ("nodes.dispatched", "count", "lower",
     f"tasks_per_s on {_ALL}; setup_s and peak_rss_mb on {_FLEET}"),
    ("nodes.utilization", "ratio", "higher", f"tasks_per_s on {_ALL}"),
    ("nodes.queue_mean", "count", "lower", f"tasks_per_s on {_ALL}"),
    ("nodes.waiting_mean", "time", "lower", f"tasks_per_s on {_ALL}"),
    ("nodes.preemptions", "count", "lower", f"tasks_per_s on {_CHURN}"),
    ("coordinator.global_tasks", "count", "higher",
     f"tasks_per_s on {_FLEET} (all-global joins) and {_CHURN}"),
    ("coordinator.retries", "count", "lower",
     f"tasks_per_s on {_CHURN} (retry path)"),
    ("coordinator.misroutes", "count", "lower",
     f"tasks_per_s on {_CHURN} (retry path)"),
    ("coordinator.failed", "count", "lower",
     f"tasks_per_s on {_CHURN} (retry path)"),
    ("coordinator.attempt_yield", "ratio", "higher",
     f"tasks_per_s on {_FLEET} and {_CHURN}"),
    ("work.high_water", "count", "lower",
     f"tasks_per_s on {_FIG2} (local-path suspect)"),
    ("faults.crashes", "count", "lower",
     f"tasks_per_s on {_CHURN}; zero elsewhere"),
    ("faults.lost", "count", "lower",
     f"tasks_per_s on {_CHURN}; zero elsewhere"),
    ("faults.downtime", "ratio", "lower",
     f"tasks_per_s on {_CHURN}; zero elsewhere"),
    ("detector.detections", "count", "higher",
     f"tasks_per_s on {_CHURN}; zero elsewhere"),
    ("detector.false_suspicions", "count", "lower",
     f"tasks_per_s on {_CHURN}; zero elsewhere"),
    ("detector.missed_detections", "count", "lower",
     f"tasks_per_s on {_CHURN}; zero elsewhere"),
    ("detector.latency", "time", "lower",
     f"tasks_per_s on {_CHURN}; zero elsewhere"),
    ("detector.precision", "ratio", "higher",
     f"tasks_per_s on {_CHURN}; zero elsewhere"),
    ("emission.records", "count", "lower", f"wall_s on {_CHURN}; zero elsewhere"),
    ("emission.bytes", "bytes", "lower", f"wall_s on {_CHURN}; zero elsewhere"),
    ("emission.cum_s", "s", "lower", f"wall_s on {_CHURN}; zero elsewhere"),
    ("trace.overhead", "ratio", "lower", "none: traced wall_s / untraced wall_s"),
    ("trace.named_share", "ratio", "higher",
     f"none: share of profiled self time in named layers (>= {MIN_NAMED_SHARE})"),
)

#: What ``<layer>.self_s`` / ``<layer>.calls`` should move.
_LAYER_MOVES: Dict[str, str] = {
    "engine": f"tasks_per_s on {_FIG2} and {_CHURN}; little on {_FLEET}",
    "process": "nothing: zero calls on every workload",
    "distributions": f"tasks_per_s on {_FIG2}; ~3% on {_FLEET}",
    "sources": f"tasks_per_s on {_FIG2} (75% local load); ~3% on {_FLEET}",
    "nodes": f"tasks_per_s on {_ALL}; setup_s and peak_rss_mb on {_FLEET}",
    "coordinator": f"tasks_per_s on {_FLEET} and {_CHURN}",
    "strategies": f"tasks_per_s on {_FIG2} (serial) and {_FLEET} (parallel)",
    "placement": f"tasks_per_s on {_FLEET}; no change on {_FIG2}",
    "work": f"tasks_per_s on {_FIG2} (local-path suspect)",
    "fleet": f"setup_s and peak_rss_mb on {_FLEET}",
    "metrics": f"tasks_per_s on {_FIG2}; wall_s on {_CHURN} (snapshot reads)",
    "sketch": f"tasks_per_s on {_FIG2} (per-completion observe pair)",
    "faults": f"tasks_per_s on {_CHURN}; zero calls elsewhere",
    "detector": f"tasks_per_s on {_CHURN}; zero calls elsewhere",
    "emission": f"wall_s on {_CHURN}; zero calls elsewhere",
    "checkpoint": f"wall_s on {_CHURN}; zero calls elsewhere",
    "setup": f"setup_s on {_ALL}",
}


def _per_layer() -> List[Dict[str, str]]:
    metrics = []
    for layer in LAYERS:
        moves = _LAYER_MOVES[layer]
        metrics.append({"name": f"{layer}.self_s", "unit": "s",
                        "better": "lower", "moves": moves})
        metrics.append({"name": f"{layer}.calls", "unit": "count",
                        "better": "lower", "moves": moves})
    metrics.append({"name": f"{OTHER}.self_s", "unit": "s", "better": "lower",
                    "moves": "none: profiled self time outside named layers"})
    for name, unit, better, moves in _EXTRA:
        metrics.append({"name": name, "unit": unit, "better": better,
                        "moves": moves})
    return metrics


#: Every per-layer metric, as ``BENCHMARK.json`` lists them, plus what
#: each should move.
PER_LAYER: List[Dict[str, str]] = _per_layer()


def _module_layer(relpath: str) -> str:
    for layer, modules in LAYER_MODULES.items():
        for module in modules:
            if relpath == module or (
                module.endswith("/") and relpath.startswith(module)
            ):
                return layer
    return OTHER


#: Functions whose call counts give the coordinator's attempt yield
#: (all in ``system/process_manager.py``).
_ATTEMPT_FUNCS = ("_submit_leaf", "_backoff", "_bounce", "_retry_or_fail")


def fold(stats: Dict[Any, Any], package_dir: str) -> Dict[str, Any]:
    """Fold ``pstats.Stats(...).stats`` into per-layer self time and calls.

    ``package_dir`` is the directory of the ``repro`` package that ran.
    Returns ``{"self_s": {layer: s}, "calls": {layer: n},
    "emission_cum_s": s, "attempt_yield": r}``, with ``other`` in
    ``self_s``.
    """
    prefix = os.path.join(os.path.abspath(package_dir), "")
    own: Dict[Any, Optional[str]] = {}
    for func in stats:
        filename = func[0]
        if filename.startswith(prefix):
            relpath = filename[len(prefix):].replace(os.sep, "/")
            own[func] = _module_layer(relpath)
        else:
            own[func] = None

    shares: Dict[Any, Dict[str, float]] = {}
    visiting = set()

    def charge(func: Any) -> Dict[str, float]:
        """Layer shares of ``func``'s self time (memoized, cycle-safe)."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        visiting.add(func)
        callers = {
            caller: edge for caller, edge in stats[func][4].items()
            if caller not in visiting and caller in stats
        }
        # Weight by the time spent in func per caller; fall back to call
        # counts when the clock saw nothing.
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
        result: Dict[str, float] = {}
        if total > 0:
            for caller, weight in weights.items():
                for layer, share in charge(caller).items():
                    result[layer] = result.get(layer, 0.0) + share * weight / total
        else:
            result = {OTHER: 1.0}
        visiting.discard(func)
        shares[func] = result
        return result

    self_s = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    calls = {layer: 0 for layer in LAYERS}
    emission_cum_s = 0.0
    attempt = {name: 0 for name in _ATTEMPT_FUNCS}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        for layer, share in charge(func).items():
            self_s[layer] += tt * share
        layer = own[func]
        if layer in calls:
            calls[layer] += nc
        if layer == "emission":
            # Cumulative time entering the layer from outside it.
            emission_cum_s += sum(
                edge[3] for caller, edge in callers.items()
                if own.get(caller) != "emission"
            )
        if func[0].endswith("process_manager.py") and func[2] in attempt:
            attempt[func[2]] += nc

    # Completed leaf attempts / attempts: every leaf, retry and misroute
    # bounce is an attempt; each retry-or-fail decision ends a wasted one.
    attempts = attempt["_submit_leaf"] + attempt["_backoff"] + attempt["_bounce"]
    wasted = attempt["_retry_or_fail"] + attempt["_bounce"]
    return {
        "self_s": self_s,
        "calls": calls,
        "emission_cum_s": emission_cum_s,
        "attempt_yield": (attempts - wasted) / attempts if attempts else 1.0,
    }
