"""Experiment runner: replications, sweeps, and run-scale presets.

One *data point* of a paper figure is the miss ratio of each task class at
one parameter setting.  The paper estimates each point from two independent
runs of one million time units; at Python speed that costs minutes per
point, so the harness supports three scales:

* ``SMOKE``  -- for unit/integration tests: tiny runs, single replication;
* ``QUICK``  -- the default for benchmarks: the miss-ratio *orderings* of
  the paper are stable at this scale (tens of thousands of time units,
  two replications);
* ``FULL``   -- the paper's own setting (two runs of 1e6 time units); hours
  of wall clock in pure Python, available for final validation.

Every result the paper reports compares deadline-assignment strategies
across a grid of rows (a load or ``frac_local`` value, a model variation,
a scenario); :func:`strategy_grid` builds that (row x strategy) grid for
figures, variations and scenario sweeps alike, and owns the seed rule.
Each replication gets an independent seed derived from its cell's seed,
and every estimate carries a 95% Student-t confidence interval.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..files import atomic_write
from ..stats.confidence import IntervalEstimate, interval_from_samples
from ..system.config import SystemConfig
from ..system.metrics import FOLDS, RunResult
from ..system.simulation import Simulation


def run_config(config: SystemConfig) -> RunResult:
    """Build and run one simulation (module-level so it pickles for
    multiprocessing workers)."""
    return Simulation(config).run()


def run_config_batch(configs: Sequence[SystemConfig]) -> List[RunResult]:
    """Run a batch of simulations back to back in one worker process.

    The in-process batch executor behind :func:`run_grid`: one pool task
    carries a whole slice of the grid, so the worker's warm interpreter
    is amortized over the slice and the pool exchanges one pickled
    config list and one result vector per batch instead of one round
    trip per run.  Module-level so it pickles for multiprocessing
    workers; runs strictly in order, which keeps grid results positional.
    """
    return [Simulation(config).run() for config in configs]


def resolve_workers(workers: int) -> int:
    """Normalize a ``workers`` argument: ``0`` means "all CPU cores"."""
    if workers == 0:
        return multiprocessing.cpu_count()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


@dataclass(frozen=True)
class RunScale:
    """How long and how often to run each data point."""

    sim_time: float
    warmup_time: float
    replications: int
    label: str = "custom"

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"need >= 1 replication, got {self.replications}")
        if not 0 <= self.warmup_time < self.sim_time:
            raise ValueError(
                f"need 0 <= warmup < sim_time, got {self.warmup_time}, "
                f"{self.sim_time}"
            )

    def apply(self, config: SystemConfig) -> SystemConfig:
        """Stamp this scale's run lengths onto a config."""
        return config.with_(
            sim_time=self.sim_time, warmup_time=self.warmup_time
        )


#: Tiny runs for tests: enough tasks to see gross orderings, fast enough
#: for a wide test suite.
SMOKE = RunScale(sim_time=2_500.0, warmup_time=250.0, replications=1, label="smoke")

#: Benchmark default: stable orderings, seconds per point.
QUICK = RunScale(sim_time=24_000.0, warmup_time=2_400.0, replications=2, label="quick")

#: The paper's setting: two runs of one million time units.
FULL = RunScale(
    sim_time=1_000_000.0, warmup_time=50_000.0, replications=2, label="full"
)

SCALES: Dict[str, RunScale] = {s.label: s for s in (SMOKE, QUICK, FULL)}


@dataclass(frozen=True)
class PointEstimate:
    """Replicated measurement of one parameter setting."""

    config: SystemConfig
    md_local: IntervalEstimate
    md_global: IntervalEstimate
    utilization: float
    local_completed: int
    global_completed: int
    #: The replication folds of the metric table
    #: (:data:`repro.system.metrics.FOLDS`), one field per folded row:
    #: node and run counters and the global class's ``failed`` summed
    #: over nodes and replications (all 0 in fault-free, oracle-mode,
    #: non-preemptive configurations); ``detect_latency``, the mean
    #: crash-to-suspicion latency weighted by each replication's
    #: detection count; ``p99_late``, the mean over replications of the
    #: global-class p99 lateness.  Both means are ``nan`` when nothing
    #: was observed.
    preemptions: int = 0
    crashes: int = 0
    lost: int = 0
    retries: int = 0
    failed: int = 0
    misroutes: int = 0
    false_suspicions: int = 0
    missed_detections: int = 0
    detections: int = 0
    detect_latency: float = math.nan
    p99_late: float = math.nan

    @property
    def gap(self) -> float:
        """``MD_global - MD_local``: the discrimination the paper studies."""
        return self.md_global.mean - self.md_local.mean


def _replication_configs(
    config: SystemConfig, replications: int
) -> List[SystemConfig]:
    """The per-replication configs of one data point.

    Replication ``i`` uses seed ``config.seed * 10_000 + i`` so that points
    of a sweep never share streams.
    """
    return [
        config.with_(seed=config.seed * 10_000 + i) for i in range(replications)
    ]


def _aggregate(
    config: SystemConfig, results: Sequence[RunResult]
) -> PointEstimate:
    """Fold the replications of one data point into a :class:`PointEstimate`
    (95% intervals)."""
    md_locals: List[float] = []
    md_globals: List[float] = []
    utilizations: List[float] = []
    local_completed = 0
    global_completed = 0
    for result in results:
        md_locals.append(result.md_local)
        md_globals.append(result.md_global)
        utilizations.append(result.mean_utilization)
        local_completed += result.local.completed
        global_completed += result.global_.completed
    return PointEstimate(
        config=config,
        md_local=interval_from_samples(md_locals),
        md_global=interval_from_samples(md_globals),
        utilization=sum(utilizations) / len(utilizations),
        local_completed=local_completed,
        global_completed=global_completed,
        **{row.estimate: row.fold_over(results) for row in FOLDS},
    )


@dataclass(frozen=True)
class RecoveredCell:
    """One run re-executed by the resilient pool's fallback paths.

    ``mode`` is ``"resubmitted"`` (the run's batch was lost with a dying
    worker and resubmitted on a fresh pool) or ``"in-process"`` (the
    pool broke twice and the run fell back to the parent process).
    """

    mode: str
    seed: int
    description: str


class JournalError(RuntimeError):
    """A sweep journal is corrupt or belongs to a different sweep."""


#: Identifies a sweep journal file (JSON, written atomically per cell).
JOURNAL_MAGIC = "repro-sweep-journal"
JOURNAL_VERSION = 1


def _grid_fingerprint(flat: Sequence[SystemConfig]) -> str:
    """Digest of the flattened (cell x replication) config list.

    ``SystemConfig`` is a frozen dataclass with a deterministic repr
    covering every field (seeds included), so two sweeps share a
    fingerprint iff they would run exactly the same runs in the same
    order -- the condition for journal entries to be interchangeable.
    """
    digest = hashlib.sha256()
    for config in flat:
        digest.update(repr(config).encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


def _load_journal(path: str, fingerprint: str) -> Dict[int, RunResult]:
    """Completed runs recorded in the journal at ``path`` (may be empty)."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise JournalError(f"{path}: unreadable sweep journal ({exc})")
    if not isinstance(data, dict) or data.get("magic") != JOURNAL_MAGIC:
        raise JournalError(f"{path}: not a sweep journal")
    if data.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"{path}: journal version {data.get('version')} is not "
            f"supported (this build reads version {JOURNAL_VERSION})"
        )
    if data.get("fingerprint") != fingerprint:
        raise JournalError(
            f"{path}: journal belongs to a different sweep (its "
            "spec/seed/scale fingerprint does not match this one); "
            "delete it or point --journal somewhere else instead of "
            "mixing results"
        )
    return {
        int(index): RunResult.from_dict(result)
        for index, result in data["cells"].items()
    }


def _write_journal(
    path: str, fingerprint: str, runs: int, completed: Dict[int, RunResult]
) -> None:
    data = {
        "magic": JOURNAL_MAGIC,
        "version": JOURNAL_VERSION,
        "fingerprint": fingerprint,
        "runs": runs,
        "cells": {
            str(index): completed[index].to_dict()
            for index in sorted(completed)
        },
    }
    atomic_write(path, json.dumps(data, sort_keys=True).encode())


def _run_batches_resilient(
    batches: List[List[SystemConfig]],
    processes: int,
    on_batch: Optional[Callable[[int, List[RunResult]], None]] = None,
) -> Tuple[List[List[RunResult]], List[RecoveredCell]]:
    """Run config batches on a process pool, surviving worker death.

    A worker that dies mid-batch (OOM kill, a segfaulting extension, a
    stray ``os._exit``) raises :class:`BrokenProcessPool` for its future
    and poisons the whole executor, which would lose the entire sweep.
    Graceful degradation instead: collect every batch that did finish,
    resubmit the unfinished ones once on a fresh executor, and if that
    breaks too, run the remainder in-process.  Each path emits a
    :class:`RuntimeWarning` naming what happened, and every run touched
    by a fallback is returned as a :class:`RecoveredCell` so reports can
    surface what degraded.  Results are positionally identical on every
    path -- a batch is a pure function of its configs (fixed seeds), so
    *where* it runs cannot change *what* it returns.

    ``on_batch(index, results)`` fires once per batch as its results
    arrive (journaling hook).
    """
    results: List[Optional[List[RunResult]]] = [None] * len(batches)
    recovered: List[RecoveredCell] = []
    pending = list(range(len(batches)))
    for round_ in range(2):
        broken = False
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [
                (index, pool.submit(run_config_batch, batches[index]))
                for index in pending
            ]
            for index, future in futures:
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    broken = True
                else:
                    if on_batch is not None:
                        on_batch(index, results[index])
        if not broken:
            return results, recovered
        pending = [index for index in pending if results[index] is None]
        if round_ == 0:
            recovered.extend(
                RecoveredCell("resubmitted", config.seed, config.describe())
                for index in pending
                for config in batches[index]
            )
            warnings.warn(
                f"a sweep worker died; resubmitting {len(pending)} "
                f"unfinished batch(es) on a fresh pool",
                RuntimeWarning,
                stacklevel=3,
            )
    recovered.extend(
        RecoveredCell("in-process", config.seed, config.describe())
        for index in pending
        for config in batches[index]
    )
    warnings.warn(
        f"the process pool broke twice; running the remaining "
        f"{len(pending)} batch(es) in-process",
        RuntimeWarning,
        stacklevel=3,
    )
    for index in pending:
        results[index] = run_config_batch(batches[index])
        if on_batch is not None:
            on_batch(index, results[index])
    return results, recovered


@dataclass(frozen=True)
class GridRunReport:
    """Estimates of one grid run plus how resiliently it got there."""

    estimates: List[PointEstimate]
    #: Runs re-executed by the pool's degradation paths (empty normally).
    recovered: Tuple[RecoveredCell, ...] = ()
    #: The journal file used, if any.
    journal_path: Optional[str] = None
    #: Runs restored from the journal instead of being re-run.
    journal_restored: int = 0


def run_grid(
    configs: Sequence[SystemConfig],
    replications: int,
    workers: int = 1,
    runner: Optional[Callable[[SystemConfig], RunResult]] = None,
    journal: Optional[str] = None,
) -> GridRunReport:
    """Run every grid cell in ``configs``, each ``replications`` times.

    This is the shared engine behind :func:`replicate` and
    :func:`strategy_grid`.  With ``workers > 1`` the *entire*
    (cell x replication) grid is flattened into one process pool and
    sliced into about four batches per worker: each batch executes back
    to back in one warm worker interpreter (:func:`run_config_batch`),
    so the pool pays one dispatch and one result vector per batch
    instead of one IPC round trip per run, while heterogeneous cell
    costs still balance across the pool.  Results are deterministic
    regardless of ``workers``: every run's seed is fixed up front,
    results are collected in submission order, and batches are
    contiguous slices of the flattened grid.  A worker dying mid-sweep
    does not lose the grid: the failed batches are resubmitted once,
    then fall back to in-process execution (see
    :func:`_run_batches_resilient`); the report lists every run a
    fallback touched.

    ``journal`` makes the grid *restart-safe*: each completed run is
    appended to the JSON journal at that path (written atomically, so a
    SIGKILL never leaves a corrupt file), and a re-run with the same
    journal skips the recorded runs and reproduces the identical
    estimates.  A journal written by a *different* grid (any config or
    seed differs) raises :class:`JournalError` instead of silently
    mixing results.

    An injected ``runner`` cannot cross process boundaries (closures
    generally do not pickle), so ``workers > 1`` with a runner emits a
    :class:`RuntimeWarning` and runs serially in-process.
    """
    workers = resolve_workers(workers)
    if workers > 1 and runner is not None:
        warnings.warn(
            "workers > 1 requires picklable work; the injected runner runs "
            "serially in-process",
            RuntimeWarning,
            stacklevel=3,
        )
    flat = [
        replication
        for config in configs
        for replication in _replication_configs(config, replications)
    ]
    fingerprint = ""
    completed: Dict[int, RunResult] = {}
    if journal is not None:
        fingerprint = _grid_fingerprint(flat)
        completed = _load_journal(journal, fingerprint)
    restored = len(completed)
    flat_results: List[Optional[RunResult]] = [
        completed.get(index) for index in range(len(flat))
    ]
    pending = [index for index in range(len(flat)) if index not in completed]

    def journal_runs(indices: Sequence[int], results: Sequence[RunResult]):
        for index, result in zip(indices, results):
            completed[index] = result
        _write_journal(journal, fingerprint, len(flat), completed)

    recovered: List[RecoveredCell] = []
    # Never fork more processes than runs or CPU cores: oversubscribing a
    # CPU-bound pool only adds fork/IPC overhead.
    processes = min(workers, len(pending), multiprocessing.cpu_count())
    if processes > 1 and runner is None:
        # About four batches per worker (rounded up).
        size = -(-len(pending) // (processes * 4))
        index_slices = [
            pending[i:i + size] for i in range(0, len(pending), size)
        ]
        batches = [[flat[index] for index in slice_] for slice_ in index_slices]
        on_batch = None
        if journal is not None:
            def on_batch(batch_index: int, results: List[RunResult]) -> None:
                journal_runs(index_slices[batch_index], results)
        batch_results, recovered = _run_batches_resilient(
            batches, processes, on_batch
        )
        for indices, results in zip(index_slices, batch_results):
            for index, result in zip(indices, results):
                flat_results[index] = result
    else:
        run = runner or run_config
        for index in pending:
            result = run(flat[index])
            flat_results[index] = result
            if journal is not None:
                journal_runs([index], [result])
    estimates = [
        _aggregate(config, flat_results[i * replications:(i + 1) * replications])
        for i, config in enumerate(configs)
    ]
    return GridRunReport(
        estimates=estimates,
        recovered=tuple(recovered),
        journal_path=journal,
        journal_restored=restored,
    )


def replicate(
    config: SystemConfig,
    replications: int = 2,
    runner: Optional[Callable[[SystemConfig], RunResult]] = None,
    workers: int = 1,
    journal: Optional[str] = None,
) -> PointEstimate:
    """Estimate one data point from ``replications`` independent runs.

    Replication ``i`` uses seed ``config.seed * 10_000 + i`` so that points
    of a sweep never share streams.  ``runner`` may be injected for testing
    (it defaults to building and running a real :class:`Simulation`).

    ``workers > 1`` (``0`` = all cores) runs the replications in a process
    pool -- worthwhile at FULL scale where each replication takes minutes.
    Results are deterministic either way (each replication's seed is fixed
    up front).  Parallelism here is inherently bounded by ``replications``:
    with a single replication there is nothing to fan out and the run
    proceeds serially -- parallelize across the whole grid with
    ``strategy_grid(workers=...)`` instead.  ``workers > 1`` with an injected
    ``runner`` emits a :class:`RuntimeWarning` and runs serially, since
    closures generally do not pickle.
    """
    return run_grid(
        [config], replications, workers=workers, runner=runner,
        journal=journal,
    ).estimates[0]


@dataclass(frozen=True)
class GridCell:
    """One (row, strategy) cell of a :class:`StrategyGrid`."""

    row: Hashable
    strategy: str
    estimate: PointEstimate


@dataclass(frozen=True)
class StrategyGrid:
    """Estimates of every (row x strategy) cell, row-major.

    A row label is whatever the caller named the row: a swept parameter
    value for a figure, a setting for a variation, a scenario name for a
    scenario sweep.
    """

    rows: Sequence[Hashable]
    strategies: Sequence[str]
    cells: Sequence[GridCell]
    #: Runs re-executed by the pool's degradation paths (empty normally).
    recovered: Tuple[RecoveredCell, ...] = ()
    #: Runs restored from a sweep journal instead of being re-run.
    journal_restored: int = 0

    @cached_property
    def _index(self) -> Dict[Tuple[Hashable, str], GridCell]:
        return {(cell.row, cell.strategy): cell for cell in self.cells}

    def cell(self, row: Hashable, strategy: str) -> GridCell:
        try:
            return self._index[(row, strategy)]
        except KeyError:
            raise KeyError(
                f"no cell for row={row!r}, strategy={strategy!r}"
            ) from None

    def series(self, strategy: str, metric: str = "global") -> List[float]:
        """Miss-ratio series of one strategy along the rows.

        ``metric`` is ``"global"`` or ``"local"``.
        """
        estimates = [self.cell(row, strategy).estimate for row in self.rows]
        if metric == "global":
            return [estimate.md_global.mean for estimate in estimates]
        return [estimate.md_local.mean for estimate in estimates]


def strategy_grid(
    rows: Sequence[Tuple[Hashable, SystemConfig]],
    strategies: Sequence[str],
    scale: RunScale = QUICK,
    seed: int = 1,
    workers: int = 1,
    runner: Optional[Callable[[SystemConfig], RunResult]] = None,
    journal: Optional[str] = None,
) -> StrategyGrid:
    """Run every strategy on every row's config.

    ``rows`` is a list of ``(label, config)`` pairs; an empty ``rows`` or
    ``strategies``, or a repeated row label or strategy, raises
    :class:`ValueError`, since a cell is looked up by the pair.  Cell
    ``(ri, si)`` runs ``rows[ri]``'s config under ``strategies[si]`` at
    ``scale``.
    This is the one place the cells' seed rule lives: the base seed
    steps by 1,000 per row and by one per strategy, so the cells are
    statistically independent and any printed number is reproducible
    from the echoed seed.  ``workers`` (``0`` = all cores) fans the whole
    (row x strategy x replication) grid out over one process pool;
    results are identical to a single-worker run.  ``runner`` may be
    injected for tests (serial), and ``journal`` makes the grid
    restart-safe (see :func:`run_grid`).
    """
    if not rows:
        raise ValueError("need at least one row")
    if not strategies:
        raise ValueError("need at least one strategy")
    labels = [label for label, _ in rows]
    for name, keys in (("row labels", labels), ("strategies", strategies)):
        if len(set(keys)) != len(keys):
            raise ValueError(f"{name} must be distinct, got {list(keys)}")
    configs = [
        scale.apply(
            config.with_(strategy=strategy, seed=seed + 1_000 * ri + si)
        )
        for ri, (_, config) in enumerate(rows)
        for si, strategy in enumerate(strategies)
    ]
    report = run_grid(
        configs, scale.replications, workers=workers, runner=runner,
        journal=journal,
    )
    return StrategyGrid(
        rows=labels,
        strategies=list(strategies),
        cells=[
            GridCell(row=label, strategy=strategy, estimate=estimate)
            for (label, strategy), estimate in zip(
                product(labels, strategies), report.estimates
            )
        ],
        recovered=report.recovered,
        journal_restored=report.journal_restored,
    )

