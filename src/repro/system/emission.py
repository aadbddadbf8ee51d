"""Incremental metric emission: a JSONL time series of a live run.

A long run should be watchable (and post-mortem-able) *while it runs*,
not only through its final ``RunResult``.  This module emits a JSONL
time series of interval records from inside the sliced run loop
(:meth:`repro.system.simulation.Simulation.run` with ``emit=``): each
record carries the cumulative :class:`~repro.system.metrics.RunResult`
so far, and the reader derives what happened *between* two records
(e.g. the interval miss ratios of ``metrics tail``) by differencing
their counts.

Determinism: emission is *observation only*.  Interval records are cut
at slice boundaries of the run loop -- the same seq-free mechanism the
horizon sentinel uses -- and writing a record
reads metric state without mutating it, draws no random numbers, and
consumes no event sequence numbers.  Emission on/off is therefore
invisible to the golden determinism gate (pinned in
``tests/system/test_golden_determinism.py``).

File format (one JSON object per line, torn tail tolerated):

1. a ``header`` record (magic, version, seed, config);
2. ``interval`` records at each trigger firing during the measured
   phase: ``now``, kernel ``events`` so far and ``cumulative`` (the
   ``RunResult.to_dict()`` of a mid-run snapshot);
3. one ``final`` record whose ``cumulative`` equals the returned
   ``RunResult.to_dict()`` exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..files import CorruptFileError, JsonlAppender, read_jsonl
from .metrics import PER_NODE_DETAIL_THRESHOLD, RunResult

#: First record's magic field in every metrics series file.
METRICS_MAGIC = "repro-metrics"
METRICS_VERSION = 1


@dataclass(frozen=True)
class EmissionPolicy:
    """When and where a run emits interval metric records.

    ``every_events`` emits after that many kernel events,
    ``every_seconds`` after that much wall time; at least one trigger
    must be set.  Triggers are checked at slice boundaries of the
    sliced run loop (the run is cut into ~128 time slices per phase),
    so the granularity is bounded by the slice length, not exact.
    """

    path: str
    every_events: int = 0
    every_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.every_events < 0:
            raise ValueError(
                f"every_events must be >= 0, got {self.every_events}"
            )
        if self.every_seconds < 0:
            raise ValueError(
                f"every_seconds must be >= 0, got {self.every_seconds}"
            )
        if self.every_events == 0 and self.every_seconds == 0:
            raise ValueError(
                "emission policy needs at least one trigger: set "
                "every_events and/or every_seconds"
            )


class _Trigger:
    """Slice-boundary bookkeeping for an :class:`EmissionPolicy`."""

    def __init__(self, policy: EmissionPolicy, env: Any) -> None:
        self.policy = policy
        self.env = env
        self._last_seq = env._seq_peek()
        self._last_wall = time.monotonic()

    def due(self) -> bool:
        policy = self.policy
        if policy.every_events > 0:
            if self.env._seq_peek() - self._last_seq >= policy.every_events:
                return True
        if policy.every_seconds > 0:
            if time.monotonic() - self._last_wall >= policy.every_seconds:
                return True
        return False

    def reset(self) -> None:
        self._last_seq = self.env._seq_peek()
        self._last_wall = time.monotonic()


class MetricsEmitter:
    """Writes the JSONL series for one run (see module docstring).

    Constructed by the run loop; not part of the simulation object
    graph.
    """

    def __init__(self, policy: EmissionPolicy, simulation: Any) -> None:
        self.policy = policy
        self.simulation = simulation
        self.intervals = 0
        #: Fleet-size runs aggregate per-node detail into the bounded
        #: ``node_summary`` form, so interval records stay O(1) in the
        #: node count; below the threshold every record keeps the exact
        #: historical per-node lists (pinned byte-identical by CI).
        self._aggregate_nodes = (
            simulation.config.node_count > PER_NODE_DETAIL_THRESHOLD
        )
        self._appender = JsonlAppender(policy.path)
        self._appender.write(
            {
                "type": "header",
                "magic": METRICS_MAGIC,
                "version": METRICS_VERSION,
                "seed": simulation.config.seed,
                "config": simulation.config.describe(),
            }
        )

    def _record(self, kind: str, cumulative: Dict[str, Any]) -> None:
        env = self.simulation.env
        self._appender.write(
            {
                "type": kind,
                "interval": self.intervals,
                "now": env.now,
                "events": env._seq_peek(),
                "cumulative": cumulative,
            }
        )

    def emit_interval(self) -> None:
        """Write one mid-run interval record (cumulative-so-far view)."""
        simulation = self.simulation
        self.intervals += 1
        snapshot = simulation.metrics.snapshot(
            simulation.env.now, simulation.nodes
        )
        self._record(
            "interval", snapshot.to_dict(aggregate_nodes=self._aggregate_nodes)
        )

    def emit_final(self, result: RunResult) -> None:
        """Write the closing record; its ``cumulative`` is exactly
        ``result.to_dict()`` of the run's returned :class:`RunResult`
        (aggregated-nodes form above the per-node detail threshold)."""
        self._record(
            "final", result.to_dict(aggregate_nodes=self._aggregate_nodes)
        )
        self._appender.close()


def read_metrics_series(
    path: Any, on_torn: Optional[Callable[[str], None]] = None
) -> List[Dict[str, Any]]:
    """Load an emitted series, validating the header record.

    Tolerates a torn trailing line (the writer crashed mid-record),
    reporting it through ``on_torn`` when given; an invalid or missing
    header raises :class:`~repro.files.CorruptFileError`.
    """
    records = read_jsonl(path, on_torn=on_torn)
    if not records or records[0].get("magic") != METRICS_MAGIC:
        raise CorruptFileError(f"{path}: not a repro metrics series")
    version = records[0].get("version")
    if version != METRICS_VERSION:
        raise CorruptFileError(
            f"{path}: metrics series version {version} is not supported "
            f"(this build reads version {METRICS_VERSION})"
        )
    return records


def _fmt(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.4f}"


def _interval_miss_ratios(
    rows: List[Dict[str, Any]]
) -> List[List[Optional[float]]]:
    """Per row, the local and global miss ratio of the stretch since the
    previous row: Δmissed / (Δcompleted + Δaborted) of its ``cumulative``
    counts (``None`` where nothing finished).

    The first row is differenced against zero: the counters restart at
    the warm-up reset, and interval records are only cut after it.
    """
    before = {"local": (0, 0), "global": (0, 0)}
    ratios = []
    for record in rows:
        per_class = (record.get("cumulative") or {}).get("per_class", {})
        row: List[Optional[float]] = []
        for name, (missed_before, finished_before) in before.items():
            stats = per_class.get(name, {})
            missed = stats.get("missed", 0)
            finished = stats.get("completed", 0) + stats.get("aborted", 0)
            delta = finished - finished_before
            row.append((missed - missed_before) / delta if delta else None)
            before[name] = (missed, finished)
        ratios.append(row)
    return ratios


def render_series_tail(
    records: List[Dict[str, Any]], last: int = 10
) -> str:
    """Render the last ``last`` interval/final records as an aligned table.

    ``win_miss_l``/``win_miss_g`` are each row's interval miss ratios
    (see :func:`_interval_miss_ratios`), computed before the tail is
    cut so every shown row is differenced against its predecessor.
    """
    rows = [r for r in records if r.get("type") in ("interval", "final")]
    ratios = _interval_miss_ratios(rows)
    if last > 0:
        rows, ratios = rows[-last:], ratios[-last:]
    header = [
        "now", "events", "MD_local", "MD_global",
        "p99_resp", "win_miss_l", "win_miss_g",
    ]
    table = [header]
    for record, (miss_local, miss_global) in zip(rows, ratios):
        cumulative = record.get("cumulative", {})
        result = RunResult.from_dict(cumulative) if cumulative else None
        table.append(
            [
                f"{record.get('now', 0.0):.1f}",
                str(record.get("events", "-")),
                _fmt(result.md_local) if result else "-",
                _fmt(result.md_global) if result else "-",
                _fmt(result.global_.p99_response) if result else "-",
                _fmt(miss_local),
                _fmt(miss_global),
            ]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in table
    )


def summarize_series(records: List[Dict[str, Any]]) -> str:
    """One-paragraph summary of an emitted series (for ``metrics summarize``)."""
    header = records[0]
    intervals = [r for r in records if r.get("type") == "interval"]
    finals = [r for r in records if r.get("type") == "final"]
    lines = [
        f"series: seed={header.get('seed')}",
        f"config: {header.get('config')}",
        f"records: {len(intervals)} interval(s), {len(finals)} final",
    ]
    closing = finals[-1] if finals else (intervals[-1] if intervals else None)
    if closing is not None:
        result = RunResult.from_dict(closing["cumulative"])
        status = "final" if closing["type"] == "final" else "latest (run incomplete)"
        lines.append(
            f"{status}: now={closing['now']:.1f} events={closing['events']} "
            f"MD_local={_fmt(result.md_local)} MD_global={_fmt(result.md_global)} "
            f"p99_response(global)={_fmt(result.global_.p99_response)} "
            f"p99_lateness(global)={_fmt(result.global_.p99_lateness)}"
        )
    return "\n".join(lines)
