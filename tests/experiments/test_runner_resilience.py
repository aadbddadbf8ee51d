"""Regression tests for sweep-pool resilience to worker death.

A process-pool worker that dies mid-batch (OOM killer, a segfaulting
extension) poisons the whole :class:`ProcessPoolExecutor` and raises
:class:`BrokenProcessPool` for every outstanding future.  ``run_grid``
must degrade gracefully: keep the batches that finished, resubmit the
unfinished ones once on a fresh pool, and as a last resort run the
remainder in-process -- with results positionally identical to a serial
run on every path.

Mechanics: the pool executes ``runner.run_config_batch``, which these
tests monkeypatch with :func:`_killing_batch`.  The multiprocessing
start method on Linux is ``fork``, so workers inherit the patched module
state; the killer takes ``os._exit`` (un-catchable, exactly what a
SIGKILL looks like to the executor) only when

* it is running in a *forked child* (``os.getpid() != _MAIN_PID`` --
  the in-process fallback must never kill the test process), and
* an atomic marker-file slot is still free (``O_CREAT | O_EXCL``), so
  each test controls exactly how many kills happen across rounds.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import runner
from repro.experiments.runner import run_config_batch, run_grid
from repro.system.config import baseline_config

#: The pytest process; forked pool workers see a different getpid().
_MAIN_PID = os.getpid()

#: The real batch executor, captured before any monkeypatching.
_REAL_BATCH = run_config_batch


def _killing_batch(configs):
    """``run_config_batch`` with a self-destruct: claim a kill slot and
    die, or (slots exhausted / not in a worker) run the real batch."""
    kill_dir = os.environ.get("REPRO_TEST_KILL_DIR")
    limit = int(os.environ.get("REPRO_TEST_KILL_LIMIT", "0"))
    if kill_dir and os.getpid() != _MAIN_PID:
        for slot in range(limit):
            try:
                fd = os.open(
                    os.path.join(kill_dir, f"kill-{slot}"),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                continue
            os.close(fd)
            os._exit(1)
    return _REAL_BATCH(configs)


def _grid_configs():
    """Four tiny, distinct cells: enough batches that some finish before
    the kill and some are still pending when the pool breaks."""
    return [
        baseline_config(sim_time=300.0, warmup_time=50.0, seed=seed)
        for seed in (101, 102, 103, 104)
    ]


@pytest.fixture
def kill_switch(monkeypatch, tmp_path):
    """Arm the killer for a test; returns a setter for the kill budget."""
    monkeypatch.setattr(runner, "run_config_batch", _killing_batch)
    # run_grid clamps the pool to the CPU count; on a single-core runner
    # that would silently skip the pool path these tests exist to cover.
    monkeypatch.setattr(runner.multiprocessing, "cpu_count", lambda: 2)
    monkeypatch.setenv("REPRO_TEST_KILL_DIR", str(tmp_path))

    def arm(limit: int) -> None:
        monkeypatch.setenv("REPRO_TEST_KILL_LIMIT", str(limit))

    return arm


class TestWorkerDeathResilience:
    def test_single_worker_death_resubmits_and_matches_serial(
        self, kill_switch
    ):
        configs = _grid_configs()
        expected = run_grid(configs, replications=1, workers=1)
        kill_switch(1)
        with pytest.warns(RuntimeWarning, match="sweep worker died"):
            survived = run_grid(configs, replications=1, workers=2)
        assert survived.estimates == expected.estimates

    def test_double_pool_break_falls_back_in_process(self, kill_switch):
        """A single-worker pool killed in both rounds: the remaining
        batches must complete in-process (where the killer stands down --
        the pid guard -- exactly like a healthy interpreter would)."""
        batches = [[config] for config in _grid_configs()]
        expected = [_REAL_BATCH(batch) for batch in batches]
        kill_switch(2)
        with pytest.warns(RuntimeWarning) as record:
            survived, recovered = runner._run_batches_resilient(
                batches, processes=1
            )
        messages = [str(w.message) for w in record]
        assert any("sweep worker died" in m for m in messages)
        assert any("broke twice" in m for m in messages)
        assert survived == expected
        # Every fallback-touched run is surfaced with its identity.
        assert recovered
        assert {cell.mode for cell in recovered} <= {
            "resubmitted", "in-process"
        }
        assert all(f"seed={cell.seed}" in cell.description for cell in recovered)

    def test_no_kill_is_warning_free(self, kill_switch):
        """The patched pool path without any kill must stay silent and
        positionally identical to the serial run."""
        configs = _grid_configs()
        expected = run_grid(configs, replications=1, workers=1)
        kill_switch(0)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            survived = run_grid(configs, replications=1, workers=2)
        assert survived == expected
