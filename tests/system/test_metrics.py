"""Unit tests for metrics collection (repro.system.metrics)."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.system.metrics import ClassStats, MetricsCollector
from repro.system.node import Node
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.work import WorkUnit


def finished_unit(env, task_class=TaskClass.LOCAL, ar=0.0, ex=1.0, dl=5.0,
                  started=1.0, completed=2.0, aborted=False):
    timing = TimingRecord(ar=ar, ex=ex, dl=dl)
    timing.started_at = started
    timing.completed_at = None if aborted else completed
    timing.aborted = aborted
    return WorkUnit(name="u", task_class=task_class,
                    node_index=0, timing=timing)


def make_nodes(env, collector, count):
    """Build ``count`` real nodes recording into ``collector``."""
    return [Node(env, i, EarliestDeadlineFirst(), collector)
            for i in range(count)]


def keep_busy(env, node, ex=1000.0):
    """Submit one long unit at the current time and let it enter service."""
    timing = TimingRecord(ar=env.now, ex=ex, dl=env.now + ex)
    node.submit(WorkUnit(name="long", task_class=TaskClass.LOCAL,
                         node_index=node.index, timing=timing))
    env.run(until=env.now)


class TestClassStats:
    def test_miss_ratio(self):
        stats = ClassStats(completed=8, missed=2, aborted=2,
                           mean_response=1.0, mean_lateness=0.0, mean_waiting=0.0)
        assert stats.miss_ratio == 0.2  # 2 / (8 + 2)

    def test_miss_ratio_empty_is_nan(self):
        stats = ClassStats(completed=0, missed=0, aborted=0,
                           mean_response=math.nan, mean_lateness=math.nan,
                           mean_waiting=math.nan)
        assert math.isnan(stats.miss_ratio)


class TestUnitRecording:
    def test_met_deadline(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env, completed=2.0, dl=5.0))
        stats = collector.snapshot(10.0, []).local
        assert stats.completed == 1
        assert stats.missed == 0
        assert stats.mean_response == pytest.approx(2.0)
        assert stats.mean_lateness == pytest.approx(-3.0)
        assert stats.mean_waiting == pytest.approx(1.0)

    def test_missed_deadline(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env, completed=9.0, dl=5.0))
        stats = collector.snapshot(10.0, []).local
        assert stats.missed == 1

    def test_aborted_unit(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env, aborted=True))
        stats = collector.snapshot(10.0, []).local
        assert stats.aborted == 1
        assert stats.missed == 1
        assert stats.completed == 0

    def test_global_units_ignored(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(
            finished_unit(env, task_class=TaskClass.GLOBAL)
        )
        snapshot = collector.snapshot(10.0, [])
        assert snapshot.local.completed == 0
        assert snapshot.global_.completed == 0


class TestGlobalRecording:
    def test_met(self):
        collector = MetricsCollector(node_count=1)
        collector.record_global_completion(
            timing_missed=False, aborted=False, response_time=4.0, lateness=-1.0
        )
        stats = collector.snapshot(10.0, []).global_
        assert stats.completed == 1
        assert stats.missed == 0
        assert stats.mean_response == pytest.approx(4.0)

    def test_missed(self):
        collector = MetricsCollector(node_count=1)
        collector.record_global_completion(
            timing_missed=True, aborted=False, response_time=9.0, lateness=2.0
        )
        stats = collector.snapshot(10.0, []).global_
        assert stats.missed == 1
        assert stats.miss_ratio == 1.0

    def test_aborted(self):
        collector = MetricsCollector(node_count=1)
        collector.record_global_completion(
            timing_missed=True, aborted=True, response_time=0.0, lateness=0.0
        )
        stats = collector.snapshot(10.0, []).global_
        assert stats.aborted == 1
        assert stats.missed == 1
        assert stats.completed == 0


class TestWarmupReset:
    def test_reset_discards_counts(self, env):
        collector = MetricsCollector(node_count=2)
        nodes = make_nodes(env, collector, 2)
        collector.record_unit_completion(finished_unit(env))
        keep_busy(env, nodes[0])
        env.run(until=100.0)
        collector.reset(now=100.0, nodes=nodes)
        snapshot = collector.snapshot(200.0, nodes)
        assert snapshot.local.completed == 0
        assert snapshot.warmup == 100.0
        # Busy signal keeps its current value but restarts integration.
        assert snapshot.per_node[0].utilization == pytest.approx(1.0)

    def test_dispatch_counters_reset(self, env):
        collector = MetricsCollector(node_count=1)
        nodes = make_nodes(env, collector, 1)
        collector.node_dispatched[0] += 1
        collector.reset(now=10.0, nodes=nodes)
        assert collector.snapshot(20.0, nodes).per_node[0].dispatched == 0


class TestRunResult:
    def test_md_properties(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env, completed=9.0, dl=5.0))
        collector.record_global_completion(
            timing_missed=False, aborted=False, response_time=1.0, lateness=-1.0
        )
        result = collector.snapshot(10.0, [])
        assert result.md_local == 1.0
        assert result.md_global == 0.0
        assert result.sim_time == 10.0

    def test_mean_utilization_averages_nodes(self, env):
        collector = MetricsCollector(node_count=2)
        nodes = make_nodes(env, collector, 2)
        keep_busy(env, nodes[0])   # busy whole window
        # node 1 stays idle
        env.run(until=10.0)
        result = collector.snapshot(10.0, nodes)
        assert result.mean_utilization == pytest.approx(0.5)


class TestStreamingPercentiles:
    """ClassStats p50/p95/p99 from the inline P² sketches."""

    def test_percentiles_track_completions(self, env):
        collector = MetricsCollector(node_count=1)
        for i in range(1, 101):
            collector.record_unit_completion(
                finished_unit(env, ar=0.0, completed=float(i), dl=50.0)
            )
        stats = collector.snapshot(200.0, []).local
        # Responses are exactly 1..100: small-n P² stays close to exact.
        assert abs(stats.p50_response - 50.0) <= 5.0
        assert abs(stats.p95_response - 95.0) <= 5.0
        assert stats.p50_response <= stats.p95_response <= stats.p99_response
        # Lateness is response - 50 shifted.
        assert abs(stats.p50_lateness - 0.0) <= 5.0

    def test_empty_percentiles_are_nan_and_snapshots_compare_equal(self):
        collector = MetricsCollector(node_count=1)
        a = collector.snapshot(1.0, [])
        b = collector.snapshot(1.0, [])
        assert math.isnan(a.local.p99_response)
        # The nan singleton keeps dataclass equality working.
        assert a == b

    def test_warmup_reset_clears_sketches(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env))
        collector.reset(5.0, [])
        assert math.isnan(collector.snapshot(10.0, []).local.p50_response)


class TestFromDictTolerance:
    """Journals written before a field existed must stay loadable."""

    #: A faithful result record from the PR-7-era journal format (before
    #: the percentile fields landed): ClassStats had through "failed",
    #: NodeStats through "downtime", RunResult through "retries".
    PR7_RECORD = {
        "sim_time": 2500.0,
        "warmup": 250.0,
        "per_class": {
            "local": {
                "completed": 5136, "missed": 1204, "aborted": 0,
                "mean_response": 1.783879225470131,
                "mean_lateness": -0.581420252394006,
                "mean_waiting": 0.7793337698086901,
                "failed": 0,
            },
            "global": {
                "completed": 402, "missed": 163, "aborted": 0,
                "mean_response": 8.579486447843847,
                "mean_lateness": -0.9237181639001631,
                "mean_waiting": float("nan"),
                "failed": 0,
            },
        },
        "per_node": [
            {
                "index": 0, "utilization": 0.5153333521237488,
                "mean_queue_length": 0.4392931486126085,
                "dispatched": 1155, "preemptions": 0, "crashes": 0,
                "lost": 0, "downtime": 0.0,
            },
        ],
        "retries": 0,
    }

    def test_pr7_era_record_loads_with_nan_percentiles(self):
        from repro.system.metrics import RunResult

        result = RunResult.from_dict(self.PR7_RECORD)
        assert result.local.completed == 5136
        assert result.local.failed == 0
        assert math.isnan(result.local.p99_response)
        assert math.isnan(result.global_.p50_lateness)

    def test_pre_retries_record_loads(self):
        from repro.system.metrics import RunResult

        record = {k: v for k, v in self.PR7_RECORD.items() if k != "retries"}
        assert RunResult.from_dict(record).retries == 0

    def test_pre_fault_node_record_loads(self):
        from repro.system.metrics import NodeStats

        stats = NodeStats.from_dict({
            "index": 1, "utilization": 0.5,
            "mean_queue_length": 0.25, "dispatched": 10,
        })
        assert stats.preemptions == 0
        assert stats.crashes == 0
        assert stats.lost == 0
        assert stats.downtime == 0.0

    def test_pre_failed_class_record_loads(self):
        stats = ClassStats.from_dict({
            "completed": 5, "missed": 1, "aborted": 0,
            "mean_response": 1.0, "mean_lateness": -0.5,
            "mean_waiting": 0.25,
        })
        assert stats.failed == 0
        assert math.isnan(stats.p95_response)

    def test_unknown_future_keys_ignored(self):
        stats = ClassStats.from_dict({
            "completed": 5, "missed": 1, "aborted": 0,
            "mean_response": 1.0, "mean_lateness": -0.5,
            "mean_waiting": 0.25, "some_future_field": 123,
        })
        assert stats.completed == 5

    def test_round_trip_still_exact(self, env):
        from repro.system.metrics import RunResult

        collector = MetricsCollector(node_count=2)
        collector.record_unit_completion(finished_unit(env))
        result = collector.snapshot(10.0, [])
        assert RunResult.from_dict(result.to_dict()) == result


def _faulty_detected_result():
    """A short run with crash losses and a lossy failure detector, so
    crashes, lost units, suspicions and downtime are all non-zero."""
    from repro.system.config import baseline_config
    from repro.system.detector import DetectorSpec
    from repro.system.faults import FaultSpec
    from repro.system.simulation import Simulation

    config = baseline_config(
        strategy="EQF", sim_time=1500.0, warmup_time=150.0, seed=4,
        faults=FaultSpec(mttf=300.0, mttr=20.0, in_flight="lost",
                         retry_limit=2, retry_timeout=30.0),
        detector=DetectorSpec(heartbeat_interval=2.0, timeout=6.0,
                              delay_mean=0.5, loss_probability=0.1),
    )
    return Simulation(config).run()


@pytest.fixture(scope="module")
def faulty_result():
    return _faulty_detected_result()


class TestAggregatedRecord:
    """The fleet-size form ``to_dict(aggregate_nodes=True)``."""

    def test_counters_are_exercised(self, faulty_result):
        r = faulty_result
        assert r.total_crashes > 0
        assert r.total_lost > 0
        assert r.total_suspicions > 0
        assert 0.0 < 1.0 - r.mean_availability < 1.0

    def test_loaded_aggregate_reports_the_per_node_values(
        self, faulty_result
    ):
        import json

        from repro.system.metrics import NODE_COUNTERS, RunResult

        r = faulty_result
        record = json.loads(json.dumps(r.to_dict(aggregate_nodes=True)))
        assert record["per_node"] == []
        loaded = RunResult.from_dict(record)
        assert loaded.per_node == []
        for name in NODE_COUNTERS:
            assert getattr(loaded, f"total_{name}") == getattr(
                r, f"total_{name}"
            ), name
        assert loaded.total_crashes == r.total_crashes
        assert loaded.total_lost == r.total_lost
        assert loaded.total_suspicions == r.total_suspicions
        assert loaded.total_preemptions == r.total_preemptions
        assert loaded.mean_utilization == r.mean_utilization
        assert loaded.mean_active_utilization == r.mean_active_utilization
        assert loaded.mean_availability == r.mean_availability
        assert json.dumps(loaded.to_dict()["per_class"]) == json.dumps(
            r.to_dict()["per_class"]
        )
        assert loaded.detections == r.detections

    def test_reserializing_the_aggregate_is_stable(self, faulty_result):
        import json

        from repro.system.metrics import RunResult

        first = faulty_result.to_dict(aggregate_nodes=True)
        loaded = RunResult.from_dict(json.loads(json.dumps(first)))
        second = loaded.to_dict(aggregate_nodes=True)
        assert json.dumps(second) == json.dumps(first)


def _rows_with_defaults():
    from dataclasses import MISSING

    from repro.system.metrics import METRICS

    return [row for row in METRICS if row.default is not MISSING]


class TestMetricTable:
    @pytest.mark.parametrize(
        "row", _rows_with_defaults(), ids=lambda row: f"{row.scope}.{row.name}"
    )
    def test_record_missing_the_key_loads_the_default(
        self, row, faulty_result
    ):
        from repro.system.metrics import CLASS, NODE, RunResult

        record = faulty_result.to_dict()
        if row.scope == CLASS:
            holders = list(record["per_class"].values())
        elif row.scope == NODE:
            holders = record["per_node"]
        else:
            holders = [record]
        for holder in holders:
            del holder[row.name]
        loaded = RunResult.from_dict(record)
        if row.scope == CLASS:
            values = [getattr(s, row.name) for s in loaded.per_class.values()]
        elif row.scope == NODE:
            values = [getattr(n, row.name) for n in loaded.per_node]
        else:
            values = [getattr(loaded, row.name)]
        assert values
        for value in values:
            assert value is row.default or value == row.default

    def test_required_keys_are_required(self):
        from repro.system.metrics import NodeStats

        with pytest.raises(KeyError, match="dispatched"):
            NodeStats.from_dict({"index": 0, "utilization": 0.5,
                                 "mean_queue_length": 0.1})

    def test_every_fold_lands_in_a_point_estimate_field(self):
        from dataclasses import fields

        from repro.experiments.runner import PointEstimate
        from repro.system.metrics import FOLDS

        names = [f.name for f in fields(PointEstimate)]
        assert [row.estimate for row in FOLDS if row.estimate not in names] == []
        defaults = {f.name: f.default for f in fields(PointEstimate)}
        for row in FOLDS:
            default = defaults[row.estimate]
            assert default == 0 or math.isnan(default), row.name

    def test_report_columns_keep_their_order(self):
        from repro.experiments import REPORT_COLUMNS

        assert [row.label for row in REPORT_COLUMNS] == [
            "p99_late", "preempt", "crash", "lost", "retry", "fail",
            "misroute", "fp", "fn", "detect",
        ]

    def test_node_counters_are_the_int_node_rows(self, faulty_result):
        from repro.system.metrics import NODE_COUNTERS

        assert NODE_COUNTERS == (
            "dispatched", "preemptions", "crashes", "lost", "suspicions",
        )
        assert faulty_result.total_dispatched == sum(
            n.dispatched for n in faulty_result.per_node
        )

    def test_replication_folds(self, faulty_result):
        """Sums add, the weighted mean weights by detections, the tail
        mean skips replications without a value."""
        import dataclasses

        from repro.experiments.runner import _aggregate

        r = faulty_result
        empty = dataclasses.replace(
            r, detections=0, detection_latency=math.nan,
            per_class={
                name: dataclasses.replace(stats, p99_lateness=math.nan)
                for name, stats in r.per_class.items()
            },
        )
        estimate = _aggregate(None, [r, empty])
        assert estimate.crashes == 2 * r.total_crashes
        assert estimate.detections == r.detections
        assert estimate.detect_latency == pytest.approx(
            r.detection_latency, rel=1e-12
        )
        assert estimate.p99_late == r.global_.p99_lateness

    def test_snapshot_and_reset_cover_every_counter(self, env):
        """Each per-node counter list and run counter the table creates
        reaches the snapshot, and the warm-up reset zeroes it."""
        from repro.system.metrics import NODE_COUNTERS, METRICS, RUN

        collector = MetricsCollector(node_count=2)
        nodes = make_nodes(env, collector, 2)
        for k, name in enumerate(NODE_COUNTERS, start=1):
            getattr(collector, f"node_{name}")[1] = k
        run_counters = [row.name for row in METRICS
                        if row.scope == RUN and row.weight is None]
        for k, name in enumerate(run_counters, start=1):
            setattr(collector, name, k)
        collector.detection_latency_sum = 12.0
        snapshot = collector.snapshot(1.0, nodes)
        node = snapshot.per_node[1]
        assert [getattr(node, name) for name in NODE_COUNTERS] == list(
            range(1, len(NODE_COUNTERS) + 1)
        )
        assert [getattr(snapshot, name) for name in run_counters] == list(
            range(1, len(run_counters) + 1)
        )
        assert snapshot.detection_latency == 12.0 / snapshot.detections
        collector.reset(1.0, nodes)
        cleared = collector.snapshot(2.0, nodes)
        assert all(getattr(cleared.per_node[1], name) == 0
                   for name in NODE_COUNTERS)
        assert all(getattr(cleared, name) == 0 for name in run_counters)
        assert math.isnan(cleared.detection_latency)


class TestNodeTable:
    """The snapshot's columnar ``per_node`` behaves as its list of rows."""

    def test_repr_is_the_row_list_repr(self, faulty_result):
        table = faulty_result.per_node
        assert repr(table) == repr(list(table))

    def test_equals_its_rows_both_ways(self, faulty_result):
        table = faulty_result.per_node
        rows = list(table)
        assert table == rows
        assert rows == table
        assert table == tuple(rows)
        changed = rows[:-1] + [
            dataclasses.replace(rows[-1], dispatched=rows[-1].dispatched + 1)
        ]
        assert table != changed
        assert changed != table
        assert table != rows[:-1]
        assert table != "not rows"

    def test_int_negative_and_slice_indexing(self, faulty_result):
        from repro.system.metrics import NodeStats, NodeTable

        table = faulty_result.per_node
        rows = list(table)
        assert type(table[0]) is NodeStats
        assert table[2] == rows[2]
        assert table[-1] == rows[-1]
        assert table[-len(rows)] == rows[0]
        with pytest.raises(IndexError):
            table[len(rows)]
        assert type(table[1:4]) is NodeTable
        assert table[1:4] == rows[1:4]
        assert table[::-2] == rows[::-2]
        assert len(table[5:]) == len(rows[5:])

    def test_columns_hold_the_row_values(self, faulty_result):
        table = faulty_result.per_node
        for f in dataclasses.fields(table[0]):
            assert list(table.column(f.name)) == [
                getattr(row, f.name) for row in table
            ], f.name

    def test_pickle_round_trip(self, faulty_result):
        import pickle

        table = faulty_result.per_node
        loaded = pickle.loads(pickle.dumps(table))
        assert loaded == table
        assert repr(loaded) == repr(table)
        result = pickle.loads(pickle.dumps(faulty_result))
        assert result.per_node == table
        assert result == faulty_result

    def test_record_round_trip(self, faulty_result):
        import json

        from repro.system.config import baseline_config
        from repro.system.metrics import RunResult
        from repro.system.simulation import Simulation

        record = faulty_result.to_dict()
        assert record["per_node"] == [row.to_dict() for row in faulty_result.per_node]
        assert RunResult.from_dict(record) == faulty_result
        # Through JSON text too, as a journal stores it: the global
        # class's ``mean_waiting`` is ``nan``, and ``json`` loads it as
        # another object than the snapshot's.
        baseline = Simulation(
            baseline_config(sim_time=300.0, warmup_time=30.0, seed=3)
        ).run()
        assert math.isnan(baseline.global_.mean_waiting)
        for result in (faulty_result, baseline):
            text = json.dumps(result.to_dict())
            assert RunResult.from_dict(json.loads(text)) == result

    def test_result_built_from_rows_holds_a_table(self, faulty_result):
        from repro.system.metrics import NodeTable, RunResult

        rows = list(faulty_result.per_node)
        result = dataclasses.replace(faulty_result, per_node=rows)
        assert type(result.per_node) is NodeTable
        assert result == faulty_result
        assert result.mean_utilization == faulty_result.mean_utilization
        assert result.total_crashes == faulty_result.total_crashes
        empty = RunResult(sim_time=1.0, warmup=0.0, per_class={}, per_node=[])
        assert type(empty.per_node) is NodeTable
        assert len(empty.per_node) == 0 and empty.per_node == []

    def test_empty_window_rows_carry_the_nan_singleton(self, env):
        from repro.system.metrics import _NAN, NodeStats

        collector = MetricsCollector(node_count=3)
        nodes = make_nodes(env, collector, 3)
        collector.reset(5.0, nodes)
        collector.node_dispatched[2] = 4
        table = collector.snapshot(5.0, nodes).per_node
        assert table == [
            NodeStats(i, _NAN, _NAN, 4 if i == 2 else 0, 0, 0, 0, _NAN, 0)
            for i in range(3)
        ]
        assert all(row.utilization is _NAN for row in table)
        assert collector.snapshot(5.0, nodes) == collector.snapshot(5.0, nodes)


class TestCountTriggeredSketchCommit:
    """The completion paths append to the sketch buffers and commit every
    ``CHUNK``-th completion: the same state as ``observe``."""

    def test_chunk_is_a_power_of_two(self):
        from repro.sim.sketch import CHUNK

        assert CHUNK > 1 and CHUNK & (CHUNK - 1) == 0

    def _reference(self, values):
        from repro.sim.sketch import QuantileSketch

        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        return sketch.state()

    def test_local_path_matches_observe(self, env):
        from repro.sim.sketch import CHUNK

        collector = MetricsCollector(node_count=1)
        responses, lateness = [], []
        for i in range(2 * CHUNK + 37):
            ar, done, dl = float(i), i + 1.0 + (i * 7919 % 13), i + 6.0
            collector.record_unit_completion(
                finished_unit(env, ar=ar, started=ar, completed=done, dl=dl)
            )
            responses.append(done - ar)
            lateness.append(done - dl)
        acc = collector._local_acc
        assert acc.response_sketch.state() == self._reference(responses)
        assert acc.lateness_sketch.state() == self._reference(lateness)
        assert acc.response_sketch._committed == 2 * CHUNK

    def test_global_path_matches_observe(self):
        from repro.sim.sketch import CHUNK

        collector = MetricsCollector(node_count=1)
        responses, lateness = [], []
        for i in range(CHUNK + 5):
            response, late = 1.0 + (i * 104729 % 17), (i % 11) - 5.0
            collector.record_global_completion(
                timing_missed=late > 0, aborted=False,
                response_time=response, lateness=late,
            )
            if i % 3 == 0:
                collector.record_global_completion(
                    timing_missed=True, aborted=True
                )
            responses.append(response)
            lateness.append(late)
        acc = collector._global_acc
        assert acc.response_sketch.state() == self._reference(responses)
        assert acc.lateness_sketch.state() == self._reference(lateness)
        assert acc.response_sketch._committed == CHUNK
