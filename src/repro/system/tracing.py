"""Execution tracing: record and render what every node did, when.

Miss-ratio numbers say *that* a strategy struggles; a trace shows *why*
(which queue backed up, which subtask burned the slack).  Attach a
:class:`TraceLog` to a :class:`~repro.system.metrics.MetricsCollector`
(or pass ``trace=True`` to :class:`~repro.system.config.SystemConfig`) and
every submit / dispatch / preempt / abort / completion is recorded.

Rendering: :meth:`TraceLog.render_timeline` draws an ASCII Gantt chart of
busy intervals per node; :meth:`TraceLog.render_events` lists events in
order.  Traces grow linearly with work executed, so tracing is off by
default and meant for short runs.  ``limit`` caps memory and counts what
it drops (:attr:`TraceLog.dropped`/:attr:`~TraceLog.truncated`); for
long runs that need the *whole* trace, :class:`JsonlTraceSink` streams
every event to a JSONL file in O(1) memory instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..files import JsonlAppender, read_jsonl

#: Event kinds recorded by the nodes.
SUBMIT = "submit"
DISPATCH = "dispatch"
PREEMPT = "preempt"
ABORT = "abort"
COMPLETE = "complete"
LOST = "lost"

KINDS = (SUBMIT, DISPATCH, PREEMPT, ABORT, COMPLETE, LOST)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence at a node."""

    time: float
    kind: str
    unit_name: str
    node_index: int
    task_class: str
    deadline: float

    def __str__(self) -> str:
        return (
            f"{self.time:10.3f}  node {self.node_index}  {self.kind:8s}  "
            f"{self.unit_name}  [{self.task_class}, dl={self.deadline:.3f}]"
        )


class TraceLog:
    """An append-only log of node-level scheduling events."""

    def __init__(self, limit: Optional[int] = None) -> None:
        self.events: List[TraceEvent] = []
        #: Optional hard cap to keep long runs from exhausting memory.
        self.limit = limit
        #: Events discarded after the cap was reached.  A capped trace is
        #: still useful (the head shows the transient), but analysis must
        #: be able to tell "the run recorded 500 events" from "the run
        #: recorded 500 and threw away two million".
        self.dropped = 0

    @property
    def truncated(self) -> bool:
        """True when the cap was hit and at least one event was dropped."""
        return self.dropped > 0

    # -- recording -----------------------------------------------------------

    def record(self, time: float, kind: str, unit, node_index: int) -> None:
        """Record one event for a work unit (called by nodes)."""
        if kind not in KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(
                time=time,
                kind=kind,
                unit_name=unit.name,
                node_index=node_index,
                task_class=unit.task_class.value,
                deadline=unit.timing.dl,
            )
        )

    # -- queries --------------------------------------------------------------

    def filter(
        self,
        kind: Optional[str] = None,
        node_index: Optional[int] = None,
        unit_name: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Events matching all given criteria, in time order."""
        return [
            event
            for event in self.events
            if (kind is None or event.kind == kind)
            and (node_index is None or event.node_index == node_index)
            and (unit_name is None or event.unit_name == unit_name)
        ]

    def busy_intervals(self, node_index: int) -> List[Tuple[float, float, str]]:
        """``(start, end, unit_name)`` service intervals at one node.

        Reconstructed by pairing each dispatch with the next preempt or
        completion of the same unit at the same node.
        """
        intervals: List[Tuple[float, float, str]] = []
        open_since: Optional[float] = None
        open_unit: Optional[str] = None
        for event in self.events:
            if event.node_index != node_index:
                continue
            if event.kind == DISPATCH:
                open_since = event.time
                open_unit = event.unit_name
            elif event.kind in (COMPLETE, PREEMPT) and open_unit == event.unit_name:
                if open_since is not None:
                    intervals.append((open_since, event.time, event.unit_name))
                open_since = None
                open_unit = None
        return intervals

    # -- rendering -------------------------------------------------------------

    def render_events(self, limit: int = 200) -> str:
        """The first ``limit`` events as a readable listing."""
        lines = [str(event) for event in self.events[:limit]]
        if len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more events)")
        if self.dropped:
            lines.append(
                f"... (trace truncated: {self.dropped} events dropped "
                f"at the {self.limit}-event cap)"
            )
        return "\n".join(lines)

    def render_timeline(
        self,
        node_count: int,
        width: int = 72,
        window: Optional[Tuple[float, float]] = None,
    ) -> str:
        """ASCII Gantt chart: one row per node, ``#`` = busy, ``.`` = idle.

        ``window`` restricts the plotted time range; it defaults to the
        span of the recorded events.
        """
        if not self.events:
            return "(empty trace)"
        if window is None:
            start = self.events[0].time
            end = max(event.time for event in self.events)
        else:
            start, end = window
        if end <= start:
            end = start + 1.0
        scale = width / (end - start)

        lines = [f"timeline [{start:.3f}, {end:.3f}]"]
        for node_index in range(node_count):
            row = ["."] * width
            for s, e, _name in self.busy_intervals(node_index):
                if e < start or s > end:
                    continue
                left = max(0, int((max(s, start) - start) * scale))
                right = min(width - 1, int((min(e, end) - start) * scale))
                for i in range(left, right + 1):
                    row[i] = "#"
            lines.append(f"node {node_index} |{''.join(row)}|")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        if self.dropped:
            return (
                f"TraceLog(events={len(self.events)}, "
                f"truncated, dropped={self.dropped})"
            )
        return f"TraceLog(events={len(self.events)})"


class JsonlTraceSink:
    """Streams trace events to a JSONL file in O(1) memory.

    The same ``record()`` interface as :class:`TraceLog`, so it attaches
    anywhere a trace log does (``metrics.tracer = JsonlTraceSink(path)``)
    -- but instead of accumulating :class:`TraceEvent` objects it writes
    each event as one flushed JSON line, so arbitrarily long traced runs
    stay bounded-memory.  Load a written file back into memory with
    :func:`load_trace_events`.
    """

    def __init__(self, path: Any) -> None:
        self._appender = JsonlAppender(path)

    @property
    def path(self) -> str:
        return self._appender.path

    @property
    def written(self) -> int:
        """Events written so far."""
        return self._appender.written

    def record(self, time: float, kind: str, unit, node_index: int) -> None:
        """Record one event for a work unit (called by nodes)."""
        if kind not in KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        self._appender.write(
            {
                "time": time,
                "kind": kind,
                "unit": unit.name,
                "node": node_index,
                "class": unit.task_class.value,
                "deadline": unit.timing.dl,
            }
        )

    def close(self) -> None:
        self._appender.close()

    def __len__(self) -> int:
        return self._appender.written

    def __repr__(self) -> str:
        return f"JsonlTraceSink({self.path!r}, written={self.written})"


def load_trace_events(path: Any) -> List[TraceEvent]:
    """Read a :class:`JsonlTraceSink` file back as :class:`TraceEvent` s.

    Tolerates a torn final line (the writer crashed mid-record), so the
    events of a killed run remain loadable.
    """
    events: List[TraceEvent] = []
    for record in read_jsonl(path):
        events.append(
            TraceEvent(
                time=record["time"],
                kind=record["kind"],
                unit_name=record["unit"],
                node_index=record["node"],
                task_class=record["class"],
                deadline=record["deadline"],
            )
        )
    return events
