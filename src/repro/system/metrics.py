"""Missed-deadline and queueing metrics (the paper's measurements).

The paper's primary performance measure is the *percentage of missed
deadlines* ("miss ratio"), conditioned on task class: ``MD_local`` and
``MD_global``.  This module collects those plus the supporting statistics a
practitioner wants when debugging a run: response times, lateness, waiting
times, per-node utilization and queue lengths.

Warm-up: experiments call :meth:`MetricsCollector.reset` at the end of the
transient phase; only completions recorded after the reset count.  (Tasks
that *arrived* before the reset but finish after it still count -- standard
practice for steady-state miss-ratio estimation, and the bias vanishes as
the window grows.)  A view of one stretch of the run is the difference of
two :meth:`MetricsCollector.snapshot` counts (the emitted series' reader
derives its interval miss ratios that way; see
:mod:`repro.system.emission`).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import MISSING, asdict, dataclass, field, fields
from operator import attrgetter
from typing import (
    Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple,
)

from ..core.task import TaskClass
from ..sim.monitor import MeanTally
from ..sim.sketch import CHUNK, QuantileSketch
from .work import WorkUnit

#: The singleton ``nan`` used for "no observations" fields.  One shared
#: object matters: dataclass equality compares fields element-wise with
#: the identity shortcut, so two empty snapshots compare equal exactly
#: when both carry *this* object (as :class:`MeanTally`/``QuantileSketch``
#: guarantee by returning ``math.nan`` itself).
_NAN = math.nan

#: Above this node count, per-node detail is dropped from emitted
#: reports (``RunResult.to_dict(aggregate_nodes=True)``): a 100k-node
#: interval record would otherwise serialize 100k dicts per emission.
#: In-process snapshots always keep full per-node stats; only the
#: serialized/streamed forms are bounded.
PER_NODE_DETAIL_THRESHOLD = 256


# -- the metric table ----------------------------------------------------------
#
# Every reported metric is a field of ClassStats (scope "class"),
# NodeStats ("node") or RunResult ("run") declared with ``metric(...)``;
# :data:`METRICS` collects those declarations into one table, and the
# cold code -- record (de)serialization, node totals and summaries, the
# collector's run and node counters, replication folds, the sweep-report
# columns -- is driven by it.  The hot paths (per-completion recording,
# the node loops' counter writes) name their fields.

#: Scopes: where a metric is measured.
CLASS, NODE, RUN = "class", "node", "run"

#: Replication folds, how a data point's replications combine into one
#: ``PointEstimate`` field: an integer total; a mean weighted by the
#: row's ``weight`` run counter; a mean over the replications whose value
#: is not ``nan``.  Both means are ``nan`` when there is nothing to
#: average.
SUM, WEIGHTED, NANMEAN = "sum", "weighted", "nanmean"

_ROW = "metric"  # the dataclass-field metadata key of a table row


@dataclass(frozen=True)
class Metric:
    """One row of the metric table, declared on its field by :func:`metric`."""

    name: str
    #: ``CLASS``, ``NODE`` or ``RUN``: the dataclass the field is on.
    scope: str
    #: The field default, which a record written before the field existed
    #: loads with (``dataclasses.MISSING``: the key is required).
    default: Any
    #: The replication fold (``None``: not on ``PointEstimate``) and the
    #: ``PointEstimate`` field it lands in (default: ``name``).
    fold: Optional[str] = None
    estimate: Optional[str] = None
    #: The sweep-report column (``None``: not reported) and its format
    #: spec (``""``: the value as is; ``nan`` renders as ``-``).
    label: Optional[str] = None
    fmt: str = ""
    #: The run counter a ``WEIGHTED`` row is weighted by.  The collector
    #: accumulates such a row as ``<name>_sum`` and reports the sum over
    #: the weight.
    weight: Optional[str] = None

    def __post_init__(self) -> None:
        if self.fold and self.estimate is None:
            object.__setattr__(self, "estimate", self.name)

    def value(self, result: "RunResult") -> Any:
        """This metric in one run, as the replication fold reads it: node
        rows total over the nodes, class rows read the global class (the
        paper's end-to-end measure), run rows read the field."""
        if self.scope == NODE:
            return result._node_total(self.name)
        if self.scope == CLASS:
            return getattr(result.global_, self.name)
        return getattr(result, self.name)

    def fold_over(self, results: Sequence["RunResult"]) -> Any:
        """Fold the replications ``results`` with this row's fold."""
        if self.fold == SUM:
            return sum(self.value(result) for result in results)
        if self.fold == WEIGHTED:
            total = 0.0
            weights = 0
            for result in results:
                weight = getattr(result, self.weight)
                if weight:
                    total += self.value(result) * weight
                    weights += weight
            return total / weights if weights else _NAN
        values = [v for v in map(self.value, results) if not math.isnan(v)]
        return sum(values) / len(values) if values else _NAN

    def render(self, value: Any) -> Any:
        """The sweep-report cell for ``value``."""
        if not self.fmt:
            return value
        return "-" if math.isnan(value) else format(value, self.fmt)


def metric(default: Any = MISSING, **row: Any) -> Any:
    """A result field that is one :class:`Metric` row: ``default`` is the
    field default, ``row`` the row's optional fields (``fold``,
    ``estimate``, ``label``, ``fmt``, ``weight``)."""
    return field(default=default, metadata={_ROW: row})


def _rows(cls: type, scope: str) -> Tuple[Metric, ...]:
    return tuple(
        Metric(f.name, scope, f.default, **f.metadata[_ROW])
        for f in fields(cls) if _ROW in f.metadata
    )


def _from_record(cls: type, data: Dict[str, Any]) -> Any:
    """Build the dataclass ``cls`` from its ``to_dict`` form.

    Tolerant of older records: a key written before its field existed
    loads with the field's default (a missing required key raises
    ``KeyError``), and unknown keys are ignored -- so sweep journals from
    any prior release stay loadable.  A ``nan`` loads as the shared
    ``_NAN``: result equality relies on that identity, and ``json``'s
    ``NaN`` is another object.
    """
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            kwargs[f.name] = _shared_nan(data[f.name])
        elif f.default is MISSING:
            raise KeyError(f.name)
    return cls(**kwargs)


def _shared_nan(value: Any) -> Any:
    """``value``, with a ``nan`` float replaced by the shared ``_NAN``."""
    if type(value) is float and value != value:
        return _NAN
    return value


def _setstate(self: Any, state: Dict[str, Any]) -> None:
    """Unpickle a result with its ``nan`` fields as the shared ``_NAN``
    (pickle loads each ``nan`` as a new float, and result equality
    relies on the identity)."""
    self.__dict__.update(
        {name: _shared_nan(value) for name, value in state.items()}
    )


@dataclass(frozen=True)
class ClassStats:
    """Immutable snapshot of one task class's outcome statistics."""

    completed: int = metric()
    missed: int = metric()
    aborted: int = metric()
    mean_response: float = metric()
    mean_lateness: float = metric()
    mean_waiting: float = metric()
    #: Tasks that died because a subtask's crash-retry budget was
    #: exhausted (``record_global_completion(failed=True)``).  A subset
    #: of ``aborted`` -- failed tasks are counted in both.
    failed: int = metric(0, fold=SUM, label="fail")
    #: Streaming percentile estimates of response time and lateness,
    #: from O(1)-memory P² sketches (:mod:`repro.sim.sketch`): exact
    #: (nearest rank) for up to ``CHUNK`` = 512 completions,
    #: Jain/Chlamtac marker estimates beyond.
    #: ``nan`` when nothing completed.  The global p99 lateness is the
    #: tail the paper's mean-based measures hide (P² sketches do not
    #: merge, so replications are averaged, not pooled).
    p50_response: float = metric(_NAN)
    p95_response: float = metric(_NAN)
    p99_response: float = metric(_NAN)
    p50_lateness: float = metric(_NAN)
    p95_lateness: float = metric(_NAN)
    p99_lateness: float = metric(
        _NAN, fold=NANMEAN, label="p99_late", fmt=".3f", estimate="p99_late"
    )

    @property
    def miss_ratio(self) -> float:
        """Fraction of finished tasks that missed their deadline.

        Aborted tasks count as missed (they certainly did not finish in
        time).  Returns ``nan`` when nothing finished.
        """
        total = self.completed + self.aborted
        if total == 0:
            return float("nan")
        return self.missed / total

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    from_dict = classmethod(_from_record)
    __setstate__ = _setstate


@dataclass(frozen=True, slots=True)
class NodeStats:
    """Immutable snapshot of one node's load statistics.

    The ``int`` rows are per-node event counters (see
    :data:`NODE_COUNTERS`); the ``float`` rows are time-weighted signal
    means over the measured window.
    """

    index: int
    utilization: float = metric()
    mean_queue_length: float = metric()
    dispatched: int = metric()
    #: Preemption events at this node within the measured window (always
    #: 0 for non-preemptive nodes).  Unlike the node object's lifetime
    #: ``preemptions`` diagnostic, this counter restarts at the warm-up
    #: reset, so sweeps can rank scenarios/strategies by preemption rate.
    preemptions: int = metric(0, fold=SUM, label="preempt")
    #: Crash events at this node within the measured window.
    crashes: int = metric(0, fold=SUM, label="crash")
    #: Work units discarded by crashes at this node (in-flight units under
    #: ``in_flight="lost"`` plus queued units under ``queued="dropped"``).
    lost: int = metric(0, fold=SUM, label="lost")
    #: Fraction of the measured window this node spent down (time-weighted
    #: mean of the 0/1 down signal; 0.0 in fault-free runs).
    downtime: float = metric(0.0)
    #: Times the failure detector marked this node suspected within the
    #: measured window (0 unless a :class:`DetectorSpec` is enabled).
    suspicions: int = metric(0)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    from_dict = classmethod(_from_record)


#: The per-node event counters, in field order: each is a ``node_<name>``
#: list on :class:`MetricsCollector` (incremented inline by the nodes,
#: the fault injector and the detector), an ``array('q')`` column of the
#: snapshot's :class:`NodeTable`, a ``RunResult.total_<name>`` and a
#: total in the aggregated ``node_summary``.
NODE_COUNTERS: Tuple[str, ...] = tuple(
    f.name for f in fields(NodeStats)
    if _ROW in f.metadata and f.type == "int"
)

#: ``NodeStats`` field names, in field (and :class:`NodeTable` column)
#: order.
_NODE_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(NodeStats))
_NODE_COLUMN = {name: i for i, name in enumerate(_NODE_FIELDS)}
_row_values = attrgetter(*_NODE_FIELDS)


def _same_column(a: Sequence[Any], b: Sequence[Any]) -> bool:
    # Columns of one field can differ in type (a snapshot's ``array``, a
    # converted table's tuple); compare their values as rows would, with
    # the list comparison's identity shortcut for the ``_NAN`` singleton.
    return a == b or list(a) == list(b)


class NodeTable(SequenceABC):
    """The per-node results of one run: an immutable sequence of
    :class:`NodeStats` rows, held as one column per field.

    A fleet snapshot builds no per-node objects: the index column is a
    ``range``, the signal means are ``array('d')`` columns and the
    counters ``array('q')`` copies of the collector's lists (a table
    converted from rows keeps each column as a tuple of the row values).
    A row is built only when one is asked for -- by indexing or by
    iterating, 3-5 us per row -- and consumers that fold over the nodes
    read :meth:`column` instead.  Equality, ``repr`` and pickling
    behave as for the list of rows, so a table equals the rows it holds
    and ``repr(table) == repr(list(table))``.
    """

    __slots__ = ("_columns",)

    def __init__(self, *columns: Sequence[Any]) -> None:
        if len(columns) != len(_NODE_FIELDS):
            raise ValueError(
                f"expected {len(_NODE_FIELDS)} columns, got {len(columns)}"
            )
        if len(set(map(len, columns))) > 1:
            raise ValueError("node table columns differ in length")
        self._columns = columns

    @classmethod
    def from_rows(cls, rows: Iterable[NodeStats]) -> "NodeTable":
        """The table holding ``rows``, in order."""
        columns = tuple(zip(*map(_row_values, rows)))
        return cls(*(columns or ((),) * len(_NODE_FIELDS)))

    def column(self, name: str) -> Sequence[Any]:
        """The values of the ``NodeStats`` field ``name``, in node order.

        The column itself, not a copy: read it, do not mutate it.
        """
        return self._columns[_NODE_COLUMN[name]]

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[NodeStats]:
        return map(NodeStats, *self._columns)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return NodeTable(*[column[key] for column in self._columns])
        return NodeStats(*[column[key] for column in self._columns])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeTable):
            return all(map(_same_column, self._columns, other._columns))
        if isinstance(other, SequenceABC):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        return (NodeTable, self._columns)


def _node_mean(per_node: NodeTable, name: str) -> float:
    return sum(per_node.column(name)) / len(per_node)


def _mean_active_utilization(per_node: NodeTable) -> float:
    total = 0.0
    for utilization, downtime in zip(
        per_node.column("utilization"), per_node.column("downtime")
    ):
        uptime = 1.0 - downtime
        total += utilization / uptime if uptime > 0.0 else 0.0
    return total / len(per_node)


def _summarize_nodes(per_node: NodeTable) -> Dict[str, Any]:
    """Fold per-node detail into the bounded aggregate record.

    Shares its folds with the ``RunResult`` node properties, so a result
    loaded from the aggregate reports the same numbers bit for bit.
    """
    count = len(per_node)
    if count == 0:
        return {"count": 0}
    # Extrema skip ``nan`` (a node with an empty window).
    utils = [u for u in per_node.column("utilization") if not math.isnan(u)]
    summary = {
        "count": count,
        "utilization_mean": _node_mean(per_node, "utilization"),
        "utilization_min": min(utils, default=math.inf),
        "utilization_max": max(utils, default=-math.inf),
        "active_utilization_mean": _mean_active_utilization(per_node),
        "queue_length_mean": _node_mean(per_node, "mean_queue_length"),
        "downtime_mean": _node_mean(per_node, "downtime"),
    }
    for name in NODE_COUNTERS:
        summary[name] = sum(per_node.column(name))
    return summary


@dataclass(frozen=True)
class RunResult:
    """Everything measured in one simulation run.

    Each per-node counter has a ``total_<name>`` property (see
    :data:`NODE_COUNTERS`): ``total_preemptions``, ``total_crashes``,
    ``total_lost``, ``total_suspicions`` and ``total_dispatched``.
    """

    sim_time: float
    warmup: float
    per_class: Dict[str, ClassStats]
    #: One row per node; a list of :class:`NodeStats` is converted to a
    #: :class:`NodeTable` at construction.
    per_node: NodeTable
    #: Leaf resubmissions by the process manager's retry layer within the
    #: measured window (0 unless a retry-enabled :class:`FaultSpec` is set).
    retries: int = metric(0, fold=SUM, label="retry")
    #: Submits that reached a truly-crashed node and bounced through the
    #: process manager's misroute path (0 unless a detector is enabled).
    misroutes: int = metric(0, fold=SUM, label="misroute")
    #: Detector suspicions of nodes that were actually up (false
    #: positives of the failure detector).
    false_suspicions: int = metric(0, fold=SUM, label="fp")
    #: True down intervals that ended without ever being suspected
    #: (false negatives of the failure detector, counted at recovery).
    missed_detections: int = metric(0, fold=SUM, label="fn")
    #: True crashes the detector suspected while the node was down.
    detections: int = metric(0, fold=SUM)
    #: Mean time from a true crash to its suspicion (``nan`` when no
    #: detection carried a latency sample).
    detection_latency: float = metric(
        _NAN, fold=WEIGHTED, weight="detections", label="detect",
        fmt=".2f", estimate="detect_latency",
    )
    #: Aggregated node statistics, present on results loaded from records
    #: written with ``to_dict(aggregate_nodes=True)`` (fleet-size runs
    #: drop per-node detail from serialized forms).  ``None`` on results
    #: snapshotted in-process, which keep full :attr:`per_node` detail.
    node_summary: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.per_node, NodeTable):
            object.__setattr__(
                self, "per_node", NodeTable.from_rows(self.per_node)
            )

    @property
    def local(self) -> ClassStats:
        return self.per_class[TaskClass.LOCAL.value]

    @property
    def global_(self) -> ClassStats:
        return self.per_class[TaskClass.GLOBAL.value]

    @property
    def md_local(self) -> float:
        """``MD_local``: miss ratio of local tasks."""
        return self.local.miss_ratio

    @property
    def md_global(self) -> float:
        """``MD_global``: miss ratio of global tasks (end-to-end)."""
        return self.global_.miss_ratio

    @property
    def mean_utilization(self) -> float:
        """Average *wall-clock* utilization across nodes.

        The denominator is the full measured window, downtime included:
        a node that is down delivers no service, so its lost capacity
        *should* depress this number -- that keeps the classic sanity
        check against the offered ``load`` meaningful (a fault-free run
        at load 0.8 and a faulty run at load 0.8 with 10% downtime
        genuinely differ in delivered work).  For the complementary
        availability-adjusted view (busy time over *uptime*), see
        :attr:`mean_active_utilization`.
        """
        if self.per_node:
            return _node_mean(self.per_node, "utilization")
        return self._summarized("utilization_mean")

    @property
    def mean_active_utilization(self) -> float:
        """Average utilization over each node's *uptime* (availability-
        adjusted): how hard the node worked while it was alive.  A node
        down for the whole window contributes 0.0.  Equals
        :attr:`mean_utilization` in fault-free runs.
        """
        if self.per_node:
            return _mean_active_utilization(self.per_node)
        return self._summarized("active_utilization_mean")

    @property
    def mean_availability(self) -> float:
        """Average fraction of the window nodes were up (1.0 fault-free)."""
        if self.per_node:
            return 1.0 - _node_mean(self.per_node, "downtime")
        return 1.0 - self._summarized("downtime_mean", 0.0)

    def _summarized(self, key: str, missing: float = _NAN) -> float:
        """``key`` of the aggregated record's ``node_summary`` (``missing``
        when the record predates it; ``nan`` without any node data)."""
        if self.node_summary:
            return self.node_summary.get(key, missing)
        return _NAN

    def _node_total(self, name: str) -> int:
        """One per-node counter summed over the nodes (read from the
        ``node_summary`` of an aggregated record)."""
        if not self.per_node and self.node_summary:
            return self.node_summary.get(name, 0)
        return sum(self.per_node.column(name))

    def to_dict(self, aggregate_nodes: bool = False) -> Dict[str, Any]:
        """JSON-serializable form; exact inverse of :meth:`from_dict`.

        Floats survive a ``json.dumps``/``loads`` round-trip bit for bit
        (``repr`` round-trips doubles, and ``nan`` is emitted as the
        ``NaN`` literal), so a journaled result equals the original.

        ``aggregate_nodes=True`` is the fleet-size form: per-node detail
        is replaced by one bounded ``node_summary`` dict (means/extrema
        of utilization, total dispatch/crash/loss counts), so a 100k-node
        record serializes in O(1) instead of O(n).  The default emits the
        exact historical record, byte for byte.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["per_class"] = {
            name: stats.to_dict() for name, stats in self.per_class.items()
        }
        data["per_node"] = [] if aggregate_nodes else [
            dict(zip(_NODE_FIELDS, values))
            for values in zip(*map(self.per_node.column, _NODE_FIELDS))
        ]
        summary = self.node_summary
        if aggregate_nodes and summary is None:
            summary = _summarize_nodes(self.per_node)
        if summary is None:
            del data["node_summary"]
        else:
            data["node_summary"] = summary
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`, tolerant of older records (see
        :func:`_from_record`)."""
        return _from_record(cls, dict(
            data,
            per_class={
                name: ClassStats.from_dict(stats)
                for name, stats in data["per_class"].items()
            },
            per_node=[NodeStats.from_dict(stats) for stats in data["per_node"]],
        ))

    __setstate__ = _setstate


for _name in NODE_COUNTERS:
    setattr(RunResult, f"total_{_name}", property(
        lambda self, name=_name: self._node_total(name),
        doc=f"``{_name}`` events across all nodes in the measured window.",
    ))
del _name

#: The metric table: one row per reported metric, in class, node, run
#: field order.
METRICS: Tuple[Metric, ...] = (
    _rows(ClassStats, CLASS) + _rows(NodeStats, NODE) + _rows(RunResult, RUN)
)

#: The rows folded over replications into ``PointEstimate`` fields.
FOLDS: Tuple[Metric, ...] = tuple(row for row in METRICS if row.fold)

_RUN_ROWS = tuple(row for row in METRICS if row.scope == RUN)

#: The collector's run counters and their zeros: one per run row, a
#: ``WEIGHTED`` row accumulating its ``<name>_sum``.
_RUN_COUNTERS: Tuple[Tuple[str, Any], ...] = tuple(
    (f"{row.name}_sum", 0.0) if row.weight else (row.name, row.default)
    for row in _RUN_ROWS
)


class _ClassAccumulator:
    """Mutable per-class counters behind :class:`ClassStats`."""

    __slots__ = (
        "completed",
        "missed",
        "aborted",
        "failed",
        "response",
        "lateness",
        "waiting",
        "response_sketch",
        "lateness_sketch",
    )

    def __init__(self, label: str) -> None:
        self.completed = 0
        self.missed = 0
        self.aborted = 0
        self.failed = 0
        self.response = MeanTally(f"{label}/response")
        self.lateness = MeanTally(f"{label}/lateness")
        self.waiting = MeanTally(f"{label}/waiting")
        # O(1)-memory streaming percentiles (p50/p95/p99), updated inline
        # on the completion hot path next to the mean tallies.
        self.response_sketch = QuantileSketch(name=f"{label}/response")
        self.lateness_sketch = QuantileSketch(name=f"{label}/lateness")

    def reset(self) -> None:
        self.completed = 0
        self.missed = 0
        self.aborted = 0
        self.failed = 0
        self.response.reset()
        self.lateness.reset()
        self.waiting.reset()
        self.response_sketch.reset()
        self.lateness_sketch.reset()

    def snapshot(self) -> ClassStats:
        response_sketch = self.response_sketch
        lateness_sketch = self.lateness_sketch
        return ClassStats(
            completed=self.completed,
            missed=self.missed,
            aborted=self.aborted,
            mean_response=self.response.mean,
            mean_lateness=self.lateness.mean,
            mean_waiting=self.waiting.mean,
            failed=self.failed,
            p50_response=response_sketch.quantile(0.5),
            p95_response=response_sketch.quantile(0.95),
            p99_response=response_sketch.quantile(0.99),
            p50_lateness=lateness_sketch.quantile(0.5),
            p95_lateness=lateness_sketch.quantile(0.95),
            p99_lateness=lateness_sketch.quantile(0.99),
        )


_LOCAL = TaskClass.LOCAL

#: ``count & _CHUNK_MASK == 0`` on every ``CHUNK``-th observation
#: (``CHUNK`` is a power of two).
_CHUNK_MASK = CHUNK - 1


class MetricsCollector:
    """Central sink for task outcomes and node load signals.

    It holds no node: :meth:`reset` and :meth:`snapshot` read the signal
    slots of the nodes their caller passes, in index order.
    """

    def __init__(self, node_count: int) -> None:
        self._classes: Dict[TaskClass, _ClassAccumulator] = {
            cls: _ClassAccumulator(cls.value) for cls in TaskClass
        }
        # Bound once: accumulators are reset in place, never replaced.
        self._local_acc = self._classes[TaskClass.LOCAL]
        self._global_acc = self._classes[TaskClass.GLOBAL]
        self.node_count = node_count
        #: Per-node event counters, one ``node_<name>`` list per entry of
        #: :data:`NODE_COUNTERS` (``node_dispatched``, ``node_crashes``,
        #: ...).  Nodes, the fault injector and the detector increment
        #: their slot inline and hold references, so ``reset`` zeroes the
        #: lists in place.
        for name in NODE_COUNTERS:
            setattr(self, f"node_{name}", [0] * node_count)
        #: Run-scope counters, one attribute per run row of the metric
        #: table (``retries``, ``misroutes``, the detector's counters and
        #: its ``detection_latency_sum``), incremented by their owners.
        for name, zero in _RUN_COUNTERS:
            setattr(self, name, zero)
        self._warmup_end = 0.0
        self._tracer = None

    @property
    def tracer(self):
        """Optional execution tracer (see :mod:`repro.system.tracing`).

        ``None`` (the default) keeps the hot path free of tracing
        overhead: the node loops read the backing ``_tracer`` field and
        guard every trace point with an ``is None`` check, so tracing off
        costs one pointer comparison per trace point.
        """
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer

    def trace(self, time: float, kind: str, unit, node_index: int) -> None:
        """Forward one scheduling event to the tracer, if attached."""
        if self._tracer is not None:
            self._tracer.record(time, kind, unit, node_index)

    # -- recording ---------------------------------------------------------

    def record_unit_completion(self, unit: WorkUnit) -> None:
        """Record the outcome of a finished *local* work unit.

        Global subtasks are not recorded here: the paper's ``MD_global`` is
        an end-to-end measure, recorded once per global task by
        :meth:`record_global_completion`.

        The body inlines the equivalents of ``timing.missed`` /
        ``.response_time`` / ``.lateness`` / ``.waiting_time`` plus the
        three ``MeanTally.observe`` calls (Welford's mean update, same
        arithmetic; ``response``/``lateness`` hoisted left-associatively,
        so the floats are bit-identical).  This runs once per completed
        unit, and the property chain plus the call frames cost more than
        the whole update.  A node only records after stamping
        ``completed_at``, so the property guards cannot fire here.
        """
        if unit.task_class is not _LOCAL:
            return
        acc = self._local_acc
        timing = unit.timing
        if timing.aborted:
            acc.aborted += 1
            acc.missed += 1
            return
        acc.completed += 1
        completed_at = timing.completed_at
        deadline = timing.dl
        if completed_at > deadline:
            acc.missed += 1
        arrival = timing.ar
        response = completed_at - arrival
        lateness = completed_at - deadline

        tally = acc.response
        count = tally.count + 1
        tally.count = count
        tally._mean += (response - tally._mean) / count

        tally = acc.lateness
        count = tally.count + 1
        tally.count = count
        tally._mean += (lateness - tally._mean) / count

        # The sketches' ``observe``, inlined: both hold one value per
        # tally count, so every CHUNK-th completion fills both buffers.
        acc.response_sketch._buffer.append(response)
        acc.lateness_sketch._buffer.append(lateness)
        if not count & _CHUNK_MASK:
            acc.response_sketch.commit_chunk()
            acc.lateness_sketch.commit_chunk()

        started_at = timing.started_at
        if started_at is not None:
            tally = acc.waiting
            count = tally.count + 1
            tally.count = count
            tally._mean += (started_at - arrival - tally._mean) / count

    def record_global_completion(
        self,
        timing_missed: bool,
        aborted: bool,
        response_time: Optional[float] = None,
        lateness: Optional[float] = None,
        failed: bool = False,
    ) -> None:
        """Record the end-to-end outcome of one global task.

        An aborted task never completed, so it has no response time or
        lateness; callers pass ``None`` (the default) and only the
        aborted/missed counters move.  ``failed`` marks the retry-budget-
        exhausted disposition (a subset of aborted).
        """
        acc = self._global_acc
        if aborted:
            acc.aborted += 1
            acc.missed += 1
            if failed:
                acc.failed += 1
            return
        acc.completed += 1
        if timing_missed:
            acc.missed += 1
        acc.response.observe(response_time)
        acc.lateness.observe(lateness)
        # Inlined sketch ``observe``, as in ``record_unit_completion``.
        acc.response_sketch._buffer.append(response_time)
        acc.lateness_sketch._buffer.append(lateness)
        if not acc.response.count & _CHUNK_MASK:
            acc.response_sketch.commit_chunk()
            acc.lateness_sketch.commit_chunk()

    # -- warm-up and snapshots ----------------------------------------------

    def reset(self, now: float, nodes: Sequence[Any]) -> None:
        """Discard the transient phase; statistics, the signals of
        ``nodes`` included, restart at ``now``."""
        for acc in self._classes.values():
            acc.reset()
        # Signal resets keep the current value: a node busy -- or down --
        # across the warm-up boundary stays so in the measured window.
        # The window start of every signal is ``_warmup_end``.
        for node in nodes:
            node._b_area = node._q_area = node._d_area = 0.0
            node._b_last = node._q_last = node._d_last = now
        # In place: node server loops hold references to these lists.
        zeros = [0] * self.node_count
        for name in NODE_COUNTERS:
            getattr(self, f"node_{name}")[:] = zeros
        for name, zero in _RUN_COUNTERS:
            setattr(self, name, zero)
        self._warmup_end = now

    def snapshot(self, now: float, nodes: Sequence[Any]) -> RunResult:
        """Freeze current statistics into a :class:`RunResult`, with one
        ``per_node`` row for each of ``nodes`` (in index order)."""
        count = len(nodes)
        # Every signal's window starts at the warm-up end.
        elapsed = now - self._warmup_end
        if elapsed <= 0:
            # ``_NAN`` is the shared empty-window singleton.
            utilization = mean_queue = downtime = (_NAN,) * count
        else:
            # ``TimeWeighted.mean_at``'s arithmetic, term for term.  A
            # generator reading the slots builds a column about twice as
            # fast as ``map`` over ``attrgetter``s and a mean function;
            # a list comprehension's temporary list would raise the
            # run's peak memory, which a fleet run reaches here.
            utilization = array("d", (
                (n._b_area + n._b_value * (now - n._b_last)) / elapsed
                for n in nodes
            ))
            mean_queue = array("d", (
                (n._q_area + n._q_value * (now - n._q_last)) / elapsed
                for n in nodes
            ))
            downtime = array("d", (
                (n._d_area + n._d_value * (now - n._d_last)) / elapsed
                for n in nodes
            ))
        columns: Dict[str, Sequence[Any]] = {
            "index": range(count),
            "utilization": utilization,
            "mean_queue_length": mean_queue,
            "downtime": downtime,
        }
        for name in NODE_COUNTERS:
            counter = getattr(self, f"node_{name}")
            columns[name] = array(
                "q", counter if len(counter) == count else counter[:count]
            )
        per_node = NodeTable(*map(columns.__getitem__, _NODE_FIELDS))
        per_class = {
            cls.value: acc.snapshot() for cls, acc in self._classes.items()
        }
        run = {}
        for row in _RUN_ROWS:
            if row.weight is None:
                run[row.name] = getattr(self, row.name)
            else:
                weight = getattr(self, row.weight)
                run[row.name] = (
                    getattr(self, f"{row.name}_sum") / weight if weight
                    else _NAN
                )
        return RunResult(
            sim_time=now,
            warmup=self._warmup_end,
            per_class=per_class,
            per_node=per_node,
            **run,
        )
