"""Unit tests for execution tracing (repro.system.tracing)."""

from __future__ import annotations

import pytest

from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.system.config import baseline_config
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.simulation import Simulation
from repro.system.tracing import (
    COMPLETE,
    DISPATCH,
    PREEMPT,
    SUBMIT,
    JsonlTraceSink,
    TraceLog,
    load_trace_events,
)
from repro.system.work import WorkUnit


def submit(env, node, ex, dl, name):
    timing = TimingRecord(ar=env.now, ex=ex, dl=dl)
    unit = WorkUnit(name=name, task_class=TaskClass.LOCAL,
                    node_index=node.index, timing=timing)
    node.submit(unit)
    return unit


@pytest.fixture
def traced_node(env):
    metrics = MetricsCollector(node_count=1)
    metrics.tracer = TraceLog()
    node = Node(env=env, index=0, policy=EarliestDeadlineFirst(), metrics=metrics)
    return node, metrics.tracer


class TestRecording:
    def test_lifecycle_events_in_order(self, env, traced_node):
        node, log = traced_node
        submit(env, node, ex=2.0, dl=10.0, name="a")
        env.run()
        kinds = [event.kind for event in log.filter(unit_name="a")]
        assert kinds == [SUBMIT, DISPATCH, COMPLETE]

    def test_event_payload(self, env, traced_node):
        node, log = traced_node
        submit(env, node, ex=2.0, dl=10.0, name="a")
        env.run()
        complete = log.filter(kind=COMPLETE)[0]
        assert complete.time == 2.0
        assert complete.node_index == 0
        assert complete.task_class == "local"
        assert complete.deadline == 10.0

    def test_unknown_kind_rejected(self, env, traced_node):
        node, log = traced_node
        unit = submit(env, node, ex=1.0, dl=5.0, name="a")
        with pytest.raises(ValueError):
            log.record(0.0, "explode", unit, 0)

    def test_limit_caps_events(self, env):
        metrics = MetricsCollector(node_count=1)
        metrics.tracer = TraceLog(limit=4)
        node = Node(env=env, index=0, policy=EarliestDeadlineFirst(),
                    metrics=metrics)
        for i in range(5):
            submit(env, node, ex=0.5, dl=50.0, name=f"u{i}")
        env.run()
        assert len(metrics.tracer) == 4

    def test_preemption_recorded(self, env, script):
        metrics = MetricsCollector(node_count=1)
        metrics.tracer = TraceLog()
        node = PreemptiveNode(env=env, index=0, policy=EarliestDeadlineFirst(),
                              metrics=metrics)
        submit(env, node, ex=10.0, dl=100.0, name="long")

        script(2.0, lambda: submit(env, node, ex=1.0, dl=4.0, name="urgent"))
        env.run()
        preempts = metrics.tracer.filter(kind=PREEMPT)
        assert len(preempts) == 1
        assert preempts[0].unit_name == "long"
        assert preempts[0].time == 2.0


class TestQueriesAndRendering:
    def test_busy_intervals(self, env, traced_node):
        node, log = traced_node
        submit(env, node, ex=2.0, dl=10.0, name="a")
        submit(env, node, ex=3.0, dl=20.0, name="b")
        env.run()
        intervals = log.busy_intervals(0)
        assert intervals == [(0.0, 2.0, "a"), (2.0, 5.0, "b")]

    def test_busy_intervals_across_preemption(self, env, script):
        metrics = MetricsCollector(node_count=1)
        metrics.tracer = TraceLog()
        node = PreemptiveNode(env=env, index=0, policy=EarliestDeadlineFirst(),
                              metrics=metrics)
        submit(env, node, ex=4.0, dl=100.0, name="long")

        script(1.0, lambda: submit(env, node, ex=1.0, dl=3.0, name="urgent"))
        env.run()
        intervals = metrics.tracer.busy_intervals(0)
        # long [0,1] (preempted), urgent [1,2], long [2,5].
        assert intervals == [
            (0.0, 1.0, "long"), (1.0, 2.0, "urgent"), (2.0, 5.0, "long"),
        ]

    def test_render_events_listing(self, env, traced_node):
        node, log = traced_node
        submit(env, node, ex=1.0, dl=5.0, name="a")
        env.run()
        text = log.render_events()
        assert "dispatch" in text
        assert "a" in text

    def test_render_events_truncation_note(self, env, traced_node):
        node, log = traced_node
        for i in range(4):
            submit(env, node, ex=0.1, dl=50.0, name=f"u{i}")
        env.run()
        text = log.render_events(limit=2)
        assert "more events" in text

    def test_render_timeline(self, env, traced_node):
        node, log = traced_node
        submit(env, node, ex=5.0, dl=50.0, name="a")
        env.run()
        text = log.render_timeline(node_count=1, width=20)
        assert "node 0" in text
        assert "#" in text

    def test_render_empty_timeline(self):
        assert "(empty trace)" in TraceLog().render_timeline(node_count=1)


class TestSimulationIntegration:
    def test_trace_flag_attaches_log(self):
        sim = Simulation(baseline_config(trace=True, sim_time=100.0,
                                         warmup_time=0.0))
        sim.run()
        assert sim.trace_log is not None
        assert len(sim.trace_log) > 0

    def test_no_trace_by_default(self):
        sim = Simulation(baseline_config(sim_time=100.0, warmup_time=0.0))
        sim.run()
        assert sim.trace_log is None
        assert sim.metrics.tracer is None

    def test_global_subtasks_traced(self):
        sim = Simulation(baseline_config(trace=True, sim_time=300.0,
                                         warmup_time=0.0, seed=3))
        sim.run()
        classes = {event.task_class for event in sim.trace_log.events}
        assert classes == {"local", "global"}


class TestTruncationAccounting:
    def test_dropped_counts_everything_past_the_cap(self, env):
        metrics = MetricsCollector(node_count=1)
        metrics.tracer = TraceLog(limit=4)
        node = Node(env=env, index=0, policy=EarliestDeadlineFirst(),
                    metrics=metrics)
        for i in range(5):
            submit(env, node, ex=0.5, dl=50.0, name=f"u{i}")
        env.run()
        log = metrics.tracer
        # 5 units x (submit, dispatch, complete) = 15 events, 4 kept.
        assert len(log) == 4
        assert log.dropped == 11
        assert log.truncated

    def test_fresh_log_is_not_truncated(self):
        log = TraceLog(limit=10)
        assert not log.truncated
        assert log.dropped == 0

    def test_render_events_notes_the_drop(self, env, traced_node_small):
        node, log = traced_node_small
        for i in range(5):
            submit(env, node, ex=0.5, dl=50.0, name=f"u{i}")
        env.run()
        rendered = log.render_events()
        assert "trace truncated" in rendered
        assert f"{log.dropped} events dropped" in rendered

    def test_repr_mentions_truncation(self, env, traced_node_small):
        node, log = traced_node_small
        for i in range(5):
            submit(env, node, ex=0.5, dl=50.0, name=f"u{i}")
        env.run()
        assert "truncated" in repr(log)
        assert str(log.dropped) in repr(log)

    def test_untruncated_render_has_no_note(self, env, traced_node):
        node, log = traced_node
        submit(env, node, ex=1.0, dl=5.0, name="a")
        env.run()
        assert "truncated" not in log.render_events()
        assert "truncated" not in repr(log)


@pytest.fixture
def traced_node_small(env):
    metrics = MetricsCollector(node_count=1)
    metrics.tracer = TraceLog(limit=4)
    node = Node(env=env, index=0, policy=EarliestDeadlineFirst(),
                metrics=metrics)
    return node, metrics.tracer


class TestJsonlTraceSink:
    def test_records_full_lifecycle_to_disk(self, env, tmp_path):
        path = tmp_path / "trace.jsonl"
        metrics = MetricsCollector(node_count=1)
        metrics.tracer = JsonlTraceSink(path)
        node = Node(env=env, index=0, policy=EarliestDeadlineFirst(),
                    metrics=metrics)
        submit(env, node, ex=2.0, dl=10.0, name="a")
        env.run()
        metrics.tracer.close()
        events = load_trace_events(path)
        assert [e.kind for e in events] == [SUBMIT, DISPATCH, COMPLETE]
        complete = events[-1]
        assert complete.time == 2.0
        assert complete.unit_name == "a"
        assert complete.node_index == 0
        assert complete.task_class == "local"
        assert complete.deadline == 10.0

    def test_unknown_kind_rejected(self, env, tmp_path):
        metrics = MetricsCollector(node_count=1)
        sink = JsonlTraceSink(tmp_path / "trace.jsonl")
        metrics.tracer = sink
        node = Node(env=env, index=0, policy=EarliestDeadlineFirst(),
                    metrics=metrics)
        unit = submit(env, node, ex=1.0, dl=5.0, name="a")
        with pytest.raises(ValueError):
            sink.record(0.0, "explode", unit, 0)

    def test_no_cap_unlike_trace_log(self, env, tmp_path):
        path = tmp_path / "trace.jsonl"
        metrics = MetricsCollector(node_count=1)
        metrics.tracer = JsonlTraceSink(path)
        node = Node(env=env, index=0, policy=EarliestDeadlineFirst(),
                    metrics=metrics)
        for i in range(40):
            submit(env, node, ex=0.1, dl=500.0, name=f"u{i}")
        env.run()
        metrics.tracer.close()
        assert len(load_trace_events(path)) == 120  # 40 x 3 lifecycle events

    def test_len_and_repr(self, env, tmp_path):
        sink = JsonlTraceSink(tmp_path / "trace.jsonl")
        assert len(sink) == 0
        assert "written=0" in repr(sink)
        metrics = MetricsCollector(node_count=1)
        metrics.tracer = sink
        node = Node(env=env, index=0, policy=EarliestDeadlineFirst(),
                    metrics=metrics)
        submit(env, node, ex=1.0, dl=5.0, name="a")
        env.run()
        assert len(sink) == 3

    def test_attaches_to_a_full_simulation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        config = baseline_config(sim_time=100.0, warmup_time=0.0, seed=5)
        simulation = Simulation(config)
        simulation.metrics.tracer = JsonlTraceSink(path)
        result = simulation.run()
        simulation.metrics.tracer.close()
        events = load_trace_events(path)
        assert len(events) > 0
        completes = [e for e in events if e.kind == COMPLETE]
        assert len(completes) >= result.local.completed
