"""Tests for restart-safe sweep journals (runner.run_grid).

A journal makes a sweep resumable: completed runs land in a JSON file
(written atomically per cell) and a re-run with the same journal skips
them and reproduces the identical report.  These tests cover the skip
logic (counting actual runner invocations), the fingerprint guard
against mixing different sweeps, corruption handling, and the
acceptance scenario: SIGKILL a sweep mid-flight, re-run with the same
journal, and get a byte-identical report while re-running only the
unfinished cells.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.experiments.runner import (
    JournalError,
    RunScale,
    run_config,
    run_grid,
)
from repro.system.config import baseline_config

#: Tiny cells: journal mechanics do not need statistics.
def _configs(seeds=(201, 202)):
    return [
        baseline_config(sim_time=250.0, warmup_time=50.0, seed=seed)
        for seed in seeds
    ]


class TestJournalRoundtrip:
    def test_fresh_run_writes_journal(self, tmp_path):
        journal = str(tmp_path / "sweep.json")
        report = run_grid(_configs(), replications=2, journal=journal)
        assert report.journal_path == journal
        assert report.journal_restored == 0
        data = json.loads(open(journal).read())
        assert data["magic"] == "repro-sweep-journal"
        assert len(data["cells"]) == 4  # 2 cells x 2 replications

    def test_rerun_restores_everything_and_runs_nothing(self, tmp_path):
        journal = str(tmp_path / "sweep.json")
        first = run_grid(_configs(), replications=2, journal=journal)

        calls = []

        def forbidden(config):
            calls.append(config.seed)
            raise AssertionError("journal should have skipped this run")

        second = run_grid(
            _configs(), replications=2, runner=forbidden, journal=journal
        )
        assert calls == []
        assert second.journal_restored == 4
        assert second.estimates == first.estimates

    def test_partial_journal_reruns_only_missing_cells(self, tmp_path):
        journal = str(tmp_path / "sweep.json")
        first = run_grid(_configs(), replications=2, journal=journal)

        data = json.loads(open(journal).read())
        data["cells"] = {
            k: v for k, v in data["cells"].items() if int(k) < 2
        }
        open(journal, "w").write(json.dumps(data))

        calls = []

        def counting(config):
            calls.append(config.seed)
            return run_config(config)

        second = run_grid(
            _configs(), replications=2, runner=counting, journal=journal
        )
        assert len(calls) == 2  # only the two deleted entries
        assert second.journal_restored == 2
        assert second.estimates == first.estimates
        # The journal is whole again afterwards.
        data = json.loads(open(journal).read())
        assert len(data["cells"]) == 4

    def test_journal_works_through_the_process_pool(self, tmp_path):
        journal = str(tmp_path / "pooled.json")
        serial = run_grid(_configs(), replications=2)
        pooled = run_grid(
            _configs(),
            replications=2,
            workers=2,
            journal=journal,
        )
        assert pooled.estimates == serial.estimates
        assert len(json.loads(open(journal).read())["cells"]) == 4
        resumed = run_grid(
            _configs(), replications=2, workers=2, journal=journal
        )
        assert resumed.journal_restored == 4
        assert resumed.estimates == serial.estimates


class TestJournalGuards:
    def test_different_grid_is_refused(self, tmp_path):
        journal = str(tmp_path / "sweep.json")
        run_grid(_configs(), replications=2, journal=journal)
        with pytest.raises(JournalError, match="different sweep"):
            run_grid(
                _configs(seeds=(301, 302)), replications=2, journal=journal
            )

    def test_different_replication_count_is_refused(self, tmp_path):
        journal = str(tmp_path / "sweep.json")
        run_grid(_configs(), replications=2, journal=journal)
        with pytest.raises(JournalError, match="different sweep"):
            run_grid(_configs(), replications=3, journal=journal)

    def test_unreadable_file_is_refused(self, tmp_path):
        journal = tmp_path / "sweep.json"
        journal.write_text("{not json")
        with pytest.raises(JournalError, match="unreadable"):
            run_grid(_configs(), replications=1, journal=str(journal))

    def test_foreign_json_is_refused(self, tmp_path):
        journal = tmp_path / "sweep.json"
        journal.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(JournalError, match="not a sweep journal"):
            run_grid(_configs(), replications=1, journal=str(journal))

    def test_future_version_is_refused(self, tmp_path):
        journal = str(tmp_path / "sweep.json")
        run_grid(_configs(), replications=1, journal=journal)
        data = json.loads(open(journal).read())
        data["version"] = 999
        open(journal, "w").write(json.dumps(data))
        with pytest.raises(JournalError, match="version"):
            run_grid(_configs(), replications=1, journal=journal)


#: Sweeps two scenarios x two strategies serially with a journal, and
#: SIGKILLs itself when the third cell starts -- the journal holds
#: exactly the two finished runs.
_KILLED_SWEEP_DRIVER = """
import os, signal, sys
import repro.experiments.runner as runner_mod
from repro.experiments import run
from repro.experiments.runner import RunScale, run_config
from repro.scenarios import get_scenario, sweep_experiment

scale = RunScale(sim_time=250.0, warmup_time=50.0, replications=1)
count = [0]

def killing(config):
    if count[0] == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    count[0] += 1
    return run_config(config)

runner_mod.run_config = killing
run(
    sweep_experiment(
        [get_scenario("baseline"), get_scenario("steady-churn")],
        strategies=["UD", "EQF"],
        seed=17,
    ),
    scale,
    journal=sys.argv[1],
)
raise SystemExit("unreachable: cell 3 must have killed us")
"""

#: Finishes (or freshly runs) the same sweep and prints the rendered
#: table plus how many runs the journal restored.
_FINISH_SWEEP_DRIVER = """
import json, sys
import repro.experiments.runner as runner_mod
from repro.experiments import render, run
from repro.experiments.runner import RunScale, run_config
from repro.scenarios import get_scenario, sweep_experiment

scale = RunScale(sim_time=250.0, warmup_time=50.0, replications=1)
calls = [0]

def counting(config):
    calls[0] += 1
    return run_config(config)

runner_mod.run_config = counting
result = run(
    sweep_experiment(
        [get_scenario("baseline"), get_scenario("steady-churn")],
        strategies=["UD", "EQF"],
        seed=17,
    ),
    scale,
    journal=sys.argv[1] if len(sys.argv) > 1 else None,
)
print(json.dumps({
    "table": render(result),
    "restored": result.grid.journal_restored,
    "ran": calls[0],
}))
"""


class TestKillMinusNineSweepResume:
    """SIGKILL a journaled sweep mid-flight; the re-run must skip the
    completed cells and render the byte-identical report."""

    def _run(self, script, *argv, check=True):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, check=check,
        )

    def test_killed_sweep_resumes_byte_identically(self, tmp_path):
        journal = str(tmp_path / "sweep.json")
        killed = self._run(_KILLED_SWEEP_DRIVER, journal, check=False)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert len(json.loads(open(journal).read())["cells"]) == 2

        resumed = json.loads(self._run(_FINISH_SWEEP_DRIVER, journal).stdout)
        straight = json.loads(self._run(_FINISH_SWEEP_DRIVER).stdout)
        assert resumed["restored"] == 2
        assert resumed["ran"] == 2  # only the unfinished half
        assert straight["restored"] == 0
        assert straight["ran"] == 4
        assert resumed["table"] == straight["table"]
