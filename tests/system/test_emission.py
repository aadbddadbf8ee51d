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
from repro.system.metrics import RunResult
from repro.system.simulation import simulate


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
            assert "window" not in record
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


def _tail_cells(records, last=0):
    """``render_series_tail`` rows as lists of cells (header dropped)."""
    lines = render_series_tail(records, last=last).splitlines()
    return [line.split() for line in lines[1:]]


def _expected_interval_miss(rows, name):
    """Δmissed / Δ(completed + aborted) of one class between consecutive
    ``cumulative`` records, formatted as the tail prints it."""
    cells = []
    missed_before = finished_before = 0
    for record in rows:
        stats = record["cumulative"]["per_class"][name]
        missed = stats["missed"]
        finished = stats["completed"] + stats["aborted"]
        delta = finished - finished_before
        cells.append(
            f"{(missed - missed_before) / delta:.4f}" if delta else "-"
        )
        missed_before, finished_before = missed, finished
    return cells


class TestIntervalMissColumns:
    """``metrics tail``'s ``win_miss_*`` columns are exact interval miss
    ratios derived from consecutive ``cumulative`` records."""

    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("series") / "m.jsonl")
        simulate(
            quick_config(sim_time=1_500.0, overload_policy="abort-tardy"),
            emit=EmissionPolicy(path=path, every_events=300),
        )
        return read_metrics_series(path)

    def test_columns_difference_consecutive_cumulative_records(self, records):
        rows = [r for r in records if r["type"] in ("interval", "final")]
        assert len(rows) > 3
        # Aborts count as finished (and missed) in both classes.
        per_class = rows[-1]["cumulative"]["per_class"]
        assert per_class["local"]["aborted"] > 0
        assert per_class["global"]["aborted"] > 0
        cells = _tail_cells(records)
        assert len(cells) == len(rows)
        assert [row[5] for row in cells] == _expected_interval_miss(
            rows, "local"
        )
        assert [row[6] for row in cells] == _expected_interval_miss(
            rows, "global"
        )
        # An interval ratio is not the cumulative one past the first row.
        assert [row[5] for row in cells] != [row[2] for row in cells]

    def test_tail_rows_keep_their_predecessor(self, records):
        assert _tail_cells(records, last=3) == _tail_cells(records)[-3:]

    def test_series_with_window_keys_renders_the_same(self, records):
        legacy = [
            dict(record, window={
                "tau": 500.0,
                "per_class": {
                    "local": {"miss_rate": 0.5},
                    "global": {"miss_rate": 0.5},
                },
                "per_node": [],
            })
            if record["type"] != "header" else record
            for record in records
        ]
        assert render_series_tail(legacy) == render_series_tail(records)

    def test_interval_where_nothing_finished_renders_dash(self, records):
        final = records[-1]
        repeated = [*records, dict(final, interval=final["interval"] + 1)]
        assert _tail_cells(repeated, last=1)[0][5:] == ["-", "-"]


def _record(kind, local=(0, 0, 0), global_=(0, 0, 0), **fields):
    """A hand-built series record: ``(completed, aborted, missed)`` per
    class in a minimal ``cumulative`` payload."""
    per_class = {
        name: {"completed": completed, "aborted": aborted, "missed": missed}
        for name, (completed, aborted, missed) in (
            ("local", local), ("global", global_)
        )
    }
    return {"type": kind, "cumulative": {"per_class": per_class}, **fields}


@pytest.fixture(scope="module")
def run_dict():
    """A real ``RunResult.to_dict()`` that hand-built records extend."""
    return simulate(quick_config(sim_time=100.0, warmup_time=10.0)).to_dict()


def _full_record(run_dict, kind, local=(0, 0, 0), global_=(0, 0, 0), **fields):
    """:func:`_record` with a ``cumulative`` that ``RunResult`` parses."""
    record = _record(kind, local, global_, **fields)
    cumulative = json.loads(json.dumps(run_dict))
    for name, counts in record["cumulative"]["per_class"].items():
        cumulative["per_class"][name].update(counts)
    return dict(record, cumulative=cumulative)


class TestIntervalMissRatios:
    """``_interval_miss_ratios`` on hand-built cumulative counts."""

    @pytest.mark.parametrize(
        "rows, expected",
        [
            pytest.param(
                [_record("interval", local=(10, 0, 2), global_=(4, 0, 1))],
                [[0.2, 0.25]],
                id="first-row-against-zero",
            ),
            pytest.param(
                [
                    _record("interval", local=(10, 0, 2)),
                    _record("interval", local=(30, 0, 12)),
                ],
                [[0.2, None], [0.5, None]],
                id="consecutive-differences",
            ),
            pytest.param(
                [
                    _record("interval", local=(5, 0, 0)),
                    _record("interval", local=(5, 5, 5)),
                ],
                [[0.0, None], [1.0, None]],
                id="aborts-count-as-finished",
            ),
            pytest.param(
                [
                    _record("interval", local=(8, 0, 4), global_=(2, 0, 0)),
                    _record("final", local=(8, 0, 4), global_=(6, 0, 4)),
                ],
                [[0.5, 0.0], [None, 1.0]],
                id="classes-difference-independently",
            ),
            pytest.param(
                [
                    _record("interval", local=(4, 0, 1)),
                    _record("interval", local=(4, 0, 1)),
                    _record("interval", local=(8, 0, 1)),
                ],
                [[0.25, None], [None, None], [0.0, None]],
                id="empty-interval-keeps-the-predecessor",
            ),
            pytest.param(
                [{"type": "interval", "cumulative": {}}],
                [[None, None]],
                id="no-class-counts",
            ),
        ],
    )
    def test_ratios(self, rows, expected):
        assert emission._interval_miss_ratios(rows) == expected

    def test_other_record_types_are_not_differenced(self, run_dict):
        records = [
            {"type": "header", "magic": "repro-metrics", "version": 1},
            _full_record(run_dict, "interval", local=(10, 0, 5), now=1.0,
                         events=1),
            _full_record(run_dict, "marker", local=(1000, 0, 0)),
            _full_record(run_dict, "final", local=(20, 0, 5), now=2.0,
                         events=2),
        ]
        cells = _tail_cells(records)
        assert [row[0] for row in cells] == ["1.0", "2.0"]
        assert [row[5] for row in cells] == ["0.5000", "0.0000"]


class TestRenderSeriesTail:
    @pytest.fixture(scope="class")
    def records(self, run_dict):
        return [{"type": "header"}] + [
            _full_record(
                run_dict, "interval", local=(10 * i, 0, i), global_=(5 * i, 0, i),
                now=float(i), events=100 * i,
            )
            for i in range(1, 6)
        ]

    def test_header_row_names_the_columns(self, records):
        assert render_series_tail(records).splitlines()[0].split() == [
            "now", "events", "MD_local", "MD_global",
            "p99_resp", "win_miss_l", "win_miss_g",
        ]

    def test_header_only_series_renders_the_column_row(self):
        lines = render_series_tail([{"type": "header"}]).splitlines()
        assert len(lines) == 1

    @pytest.mark.parametrize(
        "last, shown", [(0, 5), (1, 1), (2, 2), (5, 5), (9, 5)]
    )
    def test_last_bounds_the_rows(self, records, last, shown):
        cells = _tail_cells(records, last=last)
        assert len(cells) == shown
        assert cells == _tail_cells(records)[-shown:]

    def test_rows_are_aligned(self, records):
        lines = render_series_tail(records).splitlines()
        assert len({len(line) for line in lines}) == 1


class TestEmissionPolicyTriggers:
    @pytest.mark.parametrize(
        "triggers",
        [
            {"every_events": 1},
            {"every_seconds": 0.5},
            {"every_events": 10, "every_seconds": 2.0},
        ],
    )
    def test_accepts_any_set_trigger(self, triggers):
        policy = EmissionPolicy(path="x.jsonl", **triggers)
        for name, value in triggers.items():
            assert getattr(policy, name) == value

    def test_is_frozen(self):
        policy = EmissionPolicy(path="x.jsonl", every_events=1)
        with pytest.raises(AttributeError):
            policy.every_events = 2


class TestEmittedRecordShape:
    @pytest.fixture(scope="class")
    def emitted(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("shape") / "m.jsonl")
        result = simulate(
            quick_config(), emit=EmissionPolicy(path=path, every_events=300)
        )
        return result, read_metrics_series(path)

    def test_records_carry_one_copy_of_the_state(self, emitted):
        _, records = emitted
        for record in records[1:]:
            assert set(record) == {
                "type", "interval", "now", "events", "cumulative"
            }

    def test_intervals_are_numbered_consecutively(self, emitted):
        _, records = emitted
        numbers = [r["interval"] for r in records[1:]]
        intervals = numbers[:-1]
        assert intervals == list(range(1, len(intervals) + 1))
        assert numbers[-1] == intervals[-1]

    def test_counts_never_decrease(self, emitted):
        _, records = emitted
        for name in ("local", "global"):
            counts = [
                [r["cumulative"]["per_class"][name][key]
                 for key in ("completed", "aborted", "missed")]
                for r in records[1:]
            ]
            for before, after in zip(counts, counts[1:]):
                assert all(a >= b for a, b in zip(after, before))

    def test_aggregated_final_record_equals_run_result(
        self, tmp_path, monkeypatch
    ):
        """Above the per-node detail threshold every record carries the
        ``node_summary`` form, and the final one equals the aggregated
        ``RunResult``."""
        monkeypatch.setattr(emission, "PER_NODE_DETAIL_THRESHOLD", 2)
        path = str(tmp_path / "m.jsonl")
        config = quick_config()
        result = simulate(
            config, emit=EmissionPolicy(path=path, every_events=500)
        )
        records = read_metrics_series(path)
        for record in records[1:]:
            assert "window" not in record
            assert record["cumulative"]["per_node"] == []
            assert (
                record["cumulative"]["node_summary"]["count"]
                == config.node_count
            )
        assert json.dumps(records[-1]["cumulative"], sort_keys=True) == (
            json.dumps(result.to_dict(aggregate_nodes=True), sort_keys=True)
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"overload_policy": "abort-tardy"},
            {"overload_policy": "abort-virtual"},
            {"preemptive": True},
            {"strategy": "EQF", "task_structure": "parallel"},
        ],
        ids=["abort-tardy", "abort-virtual", "preemptive", "eqf-parallel"],
    )
    def test_emission_is_invisible_across_configs(self, tmp_path, overrides):
        config = quick_config(**overrides)
        path = str(tmp_path / "m.jsonl")
        emitted = simulate(
            config, emit=EmissionPolicy(path=path, every_events=200)
        )
        assert emitted == simulate(config)
        assert json.dumps(
            read_metrics_series(path)[-1]["cumulative"], sort_keys=True
        ) == json.dumps(emitted.to_dict(), sort_keys=True)


class TestSeriesReading:
    def _write(self, path, records):
        appender = JsonlAppender(path)
        for record in records:
            appender.write(record)
        appender.close()

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        self._write(path, [{"type": "header", "magic": "repro-metrics",
                            "version": 2}])
        with pytest.raises(CorruptFileError, match="version 2"):
            read_metrics_series(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        with pytest.raises(CorruptFileError):
            read_metrics_series(path)

    def test_torn_tail_reported(self, tmp_path):
        path = tmp_path / "m.jsonl"
        header = {"type": "header", "magic": "repro-metrics", "version": 1}
        self._write(path, [header])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "interv')
        messages = []
        assert read_metrics_series(path, on_torn=messages.append) == [header]
        assert len(messages) == 1

    def test_summary_of_an_unfinished_run(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        simulate(
            quick_config(), emit=EmissionPolicy(path=path, every_events=500)
        )
        unfinished = read_metrics_series(path)[:-1]
        summary = summarize_series(unfinished)
        assert "latest (run incomplete)" in summary
        assert "final:" not in summary

    def test_summary_of_a_header_only_series(self):
        summary = summarize_series([{"type": "header", "seed": 7}])
        assert summary.splitlines() == [
            "series: seed=7",
            "config: None",
            "records: 0 interval(s), 0 final",
        ]
