"""Incremental metric emission (repro.system.emission) and JSONL plumbing.

The load-bearing claims: emission is determinism-invisible (same
RunResult with it on or off), the final record's cumulative payload
equals the returned result exactly, and the append path tolerates a
torn tail the way a killed run leaves one.
"""

import json
import math

import pytest

from repro.files import CorruptFileError, JsonlAppender, read_jsonl
from repro.sim._engine import Environment
from repro.system import emission
from repro.system.config import baseline_config
from repro.system.emission import (
    EmissionPolicy,
    read_metrics_series,
    render_series_tail,
    summarize_series,
)
from repro.system.metrics import RunResult, WindowedSignals
from repro.system.simulation import Simulation, simulate


def quick_config(**overrides):
    base = dict(sim_time=400.0, warmup_time=50.0, seed=42)
    base.update(overrides)
    return baseline_config(**base)


class TestJsonlAppender:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        appender = JsonlAppender(path)
        appender.write({"a": 1})
        appender.write({"b": math.nan})
        appender.close()
        records = read_jsonl(path)
        assert records[0] == {"a": 1}
        assert math.isnan(records[1]["b"])

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "records.jsonl"
        appender = JsonlAppender(path)
        appender.write({"a": 1})
        appender.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": tru')  # killed mid-write
        assert read_jsonl(path) == [{"a": 1}]

    def test_torn_tail_reported_via_callback(self, tmp_path):
        path = tmp_path / "records.jsonl"
        appender = JsonlAppender(path)
        appender.write({"a": 1})
        appender.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": tru')  # killed mid-write
        messages = []
        assert read_jsonl(path, on_torn=messages.append) == [{"a": 1}]
        assert len(messages) == 1
        assert "torn final record" in messages[0]
        # An intact file never fires the callback.
        clean = tmp_path / "clean.jsonl"
        appender = JsonlAppender(clean)
        appender.write({"a": 1})
        appender.close()
        untouched = []
        read_jsonl(clean, on_torn=untouched.append)
        assert untouched == []

    def test_corruption_before_tail_raises(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\nnot json at all\n{"b": 2}\n')
        with pytest.raises(CorruptFileError):
            read_jsonl(path)

    def test_write_after_close_rejected(self, tmp_path):
        appender = JsonlAppender(tmp_path / "records.jsonl")
        appender.close()
        with pytest.raises(ValueError):
            appender.write({})


class TestEmissionPolicy:
    def test_needs_a_trigger(self):
        with pytest.raises(ValueError):
            EmissionPolicy(path="x.jsonl")

    def test_rejects_negative_triggers(self):
        with pytest.raises(ValueError):
            EmissionPolicy(path="x.jsonl", every_events=-1)
        with pytest.raises(ValueError):
            EmissionPolicy(path="x.jsonl", every_seconds=-1.0)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            EmissionPolicy(path="x.jsonl", every_events=1, tau=0.0)


def _noop(_event) -> None:
    pass


class TestTrigger:
    """The slice-boundary trigger the sliced run loop checks."""

    def test_event_trigger_waits_for_that_many_events(self):
        """Events are counted by the sequence numbers they consume."""
        env = Environment()
        trigger = emission._Trigger(
            EmissionPolicy(path="x.jsonl", every_events=3), env
        )
        env._sleep(1.0, _noop)
        env._sleep(2.0, _noop)
        env.run(until=2.5)
        assert not trigger.due()
        env._sleep(1.0, _noop)
        assert trigger.due()

    def test_reset_restarts_the_event_count(self):
        env = Environment()
        trigger = emission._Trigger(
            EmissionPolicy(path="x.jsonl", every_events=2), env
        )
        env._sleep(1.0, _noop)
        env._sleep(2.0, _noop)
        assert trigger.due()
        trigger.reset()
        assert not trigger.due()

    def test_wall_clock_trigger_fires_after_its_interval(self, monkeypatch):
        clock = [100.0]
        monkeypatch.setattr(emission.time, "monotonic", lambda: clock[0])
        trigger = emission._Trigger(
            EmissionPolicy(path="x.jsonl", every_seconds=5.0), Environment()
        )
        clock[0] = 104.9
        assert not trigger.due()
        clock[0] = 105.0
        assert trigger.due()
        trigger.reset()
        assert not trigger.due()

    def test_wall_clock_trigger_emits_intervals(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        config = quick_config()
        result = simulate(
            config, emit=EmissionPolicy(path=path, every_seconds=1e-9)
        )
        assert result == simulate(config)
        kinds = [record["type"] for record in read_metrics_series(path)]
        assert kinds.count("interval") > 0
        assert kinds[-1] == "final"


class TestEmittedSeries:
    def test_emission_is_determinism_invisible(self, tmp_path):
        config = quick_config()
        plain = simulate(config)
        emitted = simulate(
            config,
            emit=EmissionPolicy(
                path=str(tmp_path / "m.jsonl"), every_events=500
            ),
        )
        assert emitted == plain

    def test_final_record_equals_run_result(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        result = simulate(
            quick_config(),
            emit=EmissionPolicy(path=path, every_events=500),
        )
        records = read_metrics_series(path)
        final = records[-1]
        assert final["type"] == "final"
        # json round-trips repr-exact floats; NaN == NaN fails under ==,
        # so compare the canonical dumps.
        assert json.dumps(final["cumulative"], sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )
        # Object equality holds between two parsed records (both carry
        # the json decoder's NaN singleton for the empty fields).
        round_tripped = RunResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert RunResult.from_dict(final["cumulative"]) == round_tripped

    def test_series_shape(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        simulate(
            quick_config(),
            emit=EmissionPolicy(path=path, every_events=300),
        )
        records = read_metrics_series(path)
        header = records[0]
        assert header["type"] == "header"
        assert header["seed"] == 42
        assert "kernel" not in header
        intervals = [r for r in records if r["type"] == "interval"]
        assert intervals, "expected at least one interval record"
        last_events = 0
        for record in intervals:
            assert record["events"] > last_events
            last_events = record["events"]
            assert "per_class" in record["window"]
            assert "local" in record["window"]["per_class"]
            RunResult.from_dict(record["cumulative"])  # parses

    def test_intervals_only_in_measured_phase(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        config = quick_config(sim_time=400.0, warmup_time=200.0)
        simulate(config, emit=EmissionPolicy(path=path, every_events=200))
        records = read_metrics_series(path)
        for record in records:
            if record["type"] == "interval":
                assert record["now"] > 200.0

    def test_invalid_series_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"type": "interval"}\n')
        with pytest.raises(CorruptFileError):
            read_metrics_series(path)

    def test_render_and_summarize(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        simulate(
            quick_config(),
            emit=EmissionPolicy(path=path, every_events=500),
        )
        records = read_metrics_series(path)
        tail = render_series_tail(records, last=5)
        assert "MD_global" in tail
        summary = summarize_series(records)
        assert "seed=42" in summary
        assert "final:" in summary
        assert "kernel" not in summary
        # Older series files still carry a ``kernel`` header field; they
        # summarize the same way.
        old_header = dict(records[0], kernel="python")
        assert summarize_series([old_header, *records[1:]]) == summary


class TestWindowedSignals:
    def test_attach_and_snapshot(self):
        simulation = Simulation(quick_config())
        window = simulation.metrics.enable_windows(tau=100.0, now=0.0)
        assert simulation.metrics.window is window
        result = simulation.run()
        snapshot = window.snapshot(simulation.env.now)
        assert snapshot["tau"] == 100.0
        local = snapshot["per_class"]["local"]
        # The run completed local work recently, so the current signals
        # are live numbers, not the empty-window nan.
        assert local["throughput"] > 0.0
        assert 0.0 <= local["miss_rate"] <= 1.0
        assert local["mean_response"] > 0.0
        assert len(snapshot["per_node"]) == simulation.config.node_count
        # Windows never perturb the result.
        assert simulate(quick_config()) == result

    def test_windowed_miss_rate_tracks_recent_regime(self):
        window = WindowedSignals(node_count=1, tau=10.0)
        for t in range(100):
            window.record_global(0.0, 1.0, float(t))
        for t in range(100, 200):
            window.record_global(1.0, 1.0, float(t))
        snapshot = window.snapshot(200.0)
        assert snapshot["per_class"]["global"]["miss_rate"] > 0.99

    def test_enable_is_idempotent_per_tau(self):
        simulation = Simulation(quick_config())
        first = simulation.metrics.enable_windows(tau=50.0, now=0.0)
        assert simulation.metrics.enable_windows(tau=50.0, now=1.0) is first
        replaced = simulation.metrics.enable_windows(tau=99.0, now=1.0)
        assert replaced is not first

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            WindowedSignals(node_count=1, tau=0.0)
