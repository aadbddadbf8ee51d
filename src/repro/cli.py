"""Command-line interface: list and run the paper's experiments.

Usage::

    repro-experiments list
    repro-experiments table1
    repro-experiments run Fig2 --scale quick
    repro-experiments run Fig2 --scale full --workers 0   # all CPU cores
    repro-experiments run V6 --scale smoke
    repro-experiments simulate --strategy EQF --load 0.5 --structure serial
    repro-experiments simulate --metrics-out run.metrics.jsonl
    repro-experiments metrics tail run.metrics.jsonl
    repro-experiments metrics summarize run.metrics.jsonl
    repro-experiments scenarios list
    repro-experiments scenarios run bursty-mmpp --strategy EQF --seed 7
    repro-experiments scenarios run bursty-mmpp --metrics-out rep0.jsonl
    repro-experiments scenarios sweep --scale quick --workers 0
    repro-experiments scenarios sweep --scale smoke --journal sweep.json

Every experiment id in ``repro-experiments list`` maps to one table/figure
of the paper (see :mod:`repro.experiments.paper`); ``scenarios`` drives
the declarative workload library of :mod:`repro.scenarios`.  Every result
printout echoes the resolved seed, so any printed line is reproducible
verbatim.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from .experiments.experiment import render, run
from .experiments.paper import EXPERIMENTS, get_experiment
from .experiments.runner import SCALES, JournalError, resolve_workers
from .files import CorruptFileError
from .scenarios import (
    DEFAULT_STRATEGIES,
    SCENARIOS,
    get_scenario,
    run_scenario,
    sweep_experiment,
)
from .stats.tables import format_percent, render_table
from .system.config import SystemConfig, baseline_config
from .system.emission import (
    EmissionPolicy,
    read_metrics_series,
    render_series_tail,
    summarize_series,
)
from .system.simulation import Simulation, simulate as run_simulation


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-experiments`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "table1": _cmd_table1,
        "run": _cmd_run,
        "simulate": _cmd_simulate,
        "scenarios": _cmd_scenarios,
        "metrics": _cmd_metrics,
    }[args.command]
    return handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce Kao & Garcia-Molina, 'Deadline Assignment in a "
            "Distributed Soft Real-Time System' (ICDCS 1993)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all reproducible experiments")
    sub.add_parser("table1", help="print the Table 1 baseline settings")

    run = sub.add_parser("run", help="run one experiment by id (e.g. Fig2)")
    run.add_argument("experiment_id", help="experiment id from 'list'")
    run.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="run length preset (default: quick)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "process-pool workers for the experiment's simulation grid "
            "(default: 1 = serial, 0 = all CPU cores)"
        ),
    )

    simulate = sub.add_parser(
        "simulate", help="run a single custom simulation and print miss ratios"
    )
    simulate.add_argument("--strategy", default="UD")
    simulate.add_argument("--load", type=float, default=0.5)
    simulate.add_argument("--frac-local", type=float, default=0.75)
    simulate.add_argument(
        "--structure",
        choices=("serial", "parallel", "serial-parallel"),
        default="serial",
    )
    simulate.add_argument("--scheduler", default="EDF")
    simulate.add_argument("--sim-time", type=float, default=20_000.0)
    simulate.add_argument("--warmup", type=float, default=2_000.0)
    simulate.add_argument(
        "--seed",
        type=int,
        default=1,
        help="master random seed (echoed in the output for reproducibility)",
    )
    simulate.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "emit a JSONL metric time series to this file while the run "
            "progresses (interval records plus a final record equal to "
            "the printed result; render with 'metrics tail/summarize')"
        ),
    )
    simulate.add_argument(
        "--metrics-every-events",
        type=int,
        default=0,
        metavar="N",
        help=(
            "emit an interval record every N simulation events (with "
            "--metrics-out; default 100000 when no other trigger is given)"
        ),
    )
    simulate.add_argument(
        "--metrics-every-seconds",
        type=float,
        default=0.0,
        metavar="T",
        help=(
            "emit an interval record every T wall-clock seconds (with "
            "--metrics-out)"
        ),
    )

    metrics = sub.add_parser(
        "metrics",
        help="render a JSONL metric series written by --metrics-out",
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    metrics_tail = metrics_sub.add_parser(
        "tail", help="tabulate the latest interval records of a series"
    )
    metrics_tail.add_argument("path", help="series file from --metrics-out")
    metrics_tail.add_argument(
        "--last",
        type=int,
        default=10,
        metavar="N",
        help="rows to show, newest last (default: 10; 0 = all)",
    )
    metrics_summarize = metrics_sub.add_parser(
        "summarize", help="one-paragraph summary of a series"
    )
    metrics_summarize.add_argument("path", help="series file from --metrics-out")

    scenarios = sub.add_parser(
        "scenarios",
        help="declarative workload scenarios (repro.scenarios library)",
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True
    )

    scenarios_sub.add_parser("list", help="list the scenario library")

    scenario_run = scenarios_sub.add_parser(
        "run", help="run one scenario under one strategy"
    )
    scenario_run.add_argument("scenario", help="scenario name from 'scenarios list'")
    scenario_run.add_argument("--strategy", default="UD")
    scenario_run.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "emit the first replication's JSONL metric series to this "
            "file (replications then run serially in-process; not "
            "compatible with --journal)"
        ),
    )
    _add_grid_arguments(scenario_run)

    scenario_sweep = scenarios_sub.add_parser(
        "sweep",
        help=(
            "run scenarios x strategies through the batched pool and rank "
            "strategies per scenario"
        ),
    )
    scenario_sweep.add_argument(
        "--scenario",
        action="append",
        dest="scenario_names",
        metavar="NAME",
        help="restrict to this scenario (repeatable; default: whole library)",
    )
    scenario_sweep.add_argument(
        "--strategies",
        nargs="+",
        default=list(DEFAULT_STRATEGIES),
        help=f"strategy panel (default: {' '.join(DEFAULT_STRATEGIES)})",
    )
    _add_grid_arguments(scenario_sweep)
    return parser


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The run-control knobs shared by scenario runs and sweeps."""
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="run length preset (default: quick)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="base random seed (echoed in the output for reproducibility)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers (default: 1 = serial, 0 = all CPU cores)",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help=(
            "restart-safe journal: completed runs land in this JSON file "
            "as they finish, and a re-run with the same journal skips "
            "them and reproduces the identical report"
        ),
    )


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [experiment.id, experiment.paper_ref, experiment.description]
        for experiment in EXPERIMENTS.values()
    ]
    print(render_table(["id", "paper artifact", "description"], rows))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    config = baseline_config()
    rows = [
        ["Overload Management Policy", config.overload_policy],
        ["Local Scheduling Algorithm", config.scheduler],
        ["mu_subtask", config.mu_subtask],
        ["mu_local", config.mu_local],
        ["k (# of nodes)", config.node_count],
        ["m (# of subtasks of a global task)", config.subtask_count],
        ["load", config.load],
        ["frac_local", config.frac_local],
        ["[Smin, Smax]", str(list(config.slack_range))],
        ["rel_flex", config.rel_flex],
        ["pex(X)/ex(X)", 1.0 + config.pex_error],
        ["derived lambda_local (per node)", round(config.local_arrival_rate, 6)],
        ["derived lambda_global", round(config.global_arrival_rate, 6)],
    ]
    print(render_table(["parameter", "value"], rows, title="Table 1: baseline setting"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        experiment = get_experiment(args.experiment_id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    scale = SCALES[args.scale]
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"running {experiment.id} ({experiment.paper_ref}) at "
          f"scale={scale.label} workers={workers} ...", file=sys.stderr)
    print(render(run(experiment, scale, workers=workers)))
    return 0


#: Default event interval between emitted records when --metrics-out is
#: given without an explicit trigger (event-based, so the record count
#: is reproducible run to run).
_DEFAULT_METRICS_EVENTS = 100_000


def _emission_policy(args: argparse.Namespace) -> Optional[EmissionPolicy]:
    """Build the ``--metrics-out`` policy, defaulting to an event trigger."""
    if args.metrics_out is None:
        if args.metrics_every_events or args.metrics_every_seconds:
            raise ValueError(
                "--metrics-every-events/--metrics-every-seconds need "
                "--metrics-out PATH to write to"
            )
        return None
    every_events = args.metrics_every_events
    every_seconds = args.metrics_every_seconds
    if not every_events and not every_seconds:
        every_events = _DEFAULT_METRICS_EVENTS
    return EmissionPolicy(
        path=args.metrics_out,
        every_events=every_events,
        every_seconds=every_seconds,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        emit = _emission_policy(args)
        simulation = Simulation(SystemConfig(
            strategy=args.strategy,
            load=args.load,
            frac_local=args.frac_local,
            task_structure=args.structure,
            scheduler=args.scheduler,
            sim_time=args.sim_time,
            warmup_time=args.warmup,
            seed=args.seed,
        ))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = simulation.run(emit=emit)
    config = simulation.config
    rows = [
        ["MD_local", format_percent(result.md_local)],
        ["MD_global", format_percent(result.md_global)],
        ["global p99 response", f"{result.global_.p99_response:.3f}"],
        ["global p99 lateness", f"{result.global_.p99_lateness:.3f}"],
        ["mean node utilization", f"{result.mean_utilization:.3f}"],
        ["local tasks finished", result.local.completed],
        ["global tasks finished", result.global_.completed],
    ]
    print(render_table(["metric", "value"], rows, title=config.describe()))
    print(f"resolved seed: {config.seed}")
    if emit is not None:
        print(f"metrics series: {emit.path}", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    def warn_torn(message: str) -> None:
        print(f"warning: {message}", file=sys.stderr)

    try:
        records = read_metrics_series(args.path, on_torn=warn_torn)
    except FileNotFoundError:
        print(f"error: {args.path}: no such metrics series", file=sys.stderr)
        return 2
    except CorruptFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.metrics_command == "tail":
        print(render_series_tail(records, last=args.last))
    else:
        print(summarize_series(records))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    handler = {
        "list": _cmd_scenarios_list,
        "run": _cmd_scenarios_run,
        "sweep": _cmd_scenarios_sweep,
    }[args.scenarios_command]
    return handler(args)


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    rows = [
        [spec.name, spec.describe(), spec.description]
        for spec in SCENARIOS.values()
    ]
    print(render_table(
        ["scenario", "dimensions", "description"],
        rows,
        title="Scenario library (repro.scenarios)",
    ))
    return 0


def _validate_strategies(names) -> None:
    """Fail fast on a typoed strategy flag, before any simulation runs."""
    from .core.strategies import parse_assigner

    for name in names:
        parse_assigner(name)  # raises ValueError with the offending name


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    try:
        spec = get_scenario(args.scenario)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        scale = SCALES[args.scale]
        workers = resolve_workers(args.workers)
        _validate_strategies([args.strategy])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.metrics_out is not None and args.journal is not None:
        print(
            "error: --metrics-out runs replications in-process and does "
            "not support --journal",
            file=sys.stderr,
        )
        return 2
    try:
        if args.metrics_out is not None:
            estimate = _run_scenario_with_metrics(
                spec, args.strategy, scale, args.seed, args.metrics_out
            )
        else:
            estimate = run_scenario(
                spec,
                strategy=args.strategy,
                scale=scale,
                seed=args.seed,
                workers=workers,
                journal=args.journal,
            )
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        ["MD_global", format_percent(estimate.md_global.mean)],
        ["MD_local", format_percent(estimate.md_local.mean)],
        ["gap (global - local)", format_percent(estimate.gap)],
        ["global p99 lateness", (
            "-" if math.isnan(estimate.p99_late)
            else f"{estimate.p99_late:.3f}"
        )],
        ["mean node utilization", f"{estimate.utilization:.3f}"],
        ["local tasks finished", estimate.local_completed],
        ["global tasks finished", estimate.global_completed],
        ["replications", scale.replications],
    ]
    print(render_table(
        ["metric", "value"],
        rows,
        title=(
            f"scenario {spec.name} strategy={args.strategy} "
            f"scale={scale.label}"
        ),
    ))
    print(f"resolved seed: {args.seed}")
    if args.metrics_out is not None:
        print(f"metrics series: {args.metrics_out}", file=sys.stderr)
        _print_resource_footprint()
    return 0


def _print_resource_footprint() -> None:
    """Footprint line for instrumented (``--metrics-out``) runs.

    Peak RSS is the fleet-scale capacity number (can the config fit on
    this box?).  ``ru_maxrss`` is kibibytes on Linux, bytes on macOS.
    """
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    print(f"peak RSS: {peak / 1024:.1f} MiB", file=sys.stderr)


def _run_scenario_with_metrics(spec, strategy, scale, seed, metrics_out):
    """``scenarios run --metrics-out``: replications serially, rep 0 emits.

    Uses the same per-replication seeds as
    :func:`~repro.experiments.runner.replicate` (``seed * 10_000 + i``)
    and the same aggregation, so the printed estimate is identical to
    the pooled path -- only the first replication additionally writes
    its series (emission is determinism-invisible, so that run's
    result is unchanged too).
    """
    from .experiments.runner import _aggregate, _replication_configs

    config = scale.apply(spec.to_config(strategy=strategy, seed=seed))
    results = []
    for i, rep_config in enumerate(
        _replication_configs(config, scale.replications)
    ):
        emit = (
            EmissionPolicy(
                path=metrics_out, every_events=_DEFAULT_METRICS_EVENTS
            )
            if i == 0
            else None
        )
        results.append(run_simulation(rep_config, emit=emit))
    return _aggregate(config, results)


def _cmd_scenarios_sweep(args: argparse.Namespace) -> int:
    try:
        specs = (
            [get_scenario(name) for name in args.scenario_names]
            if args.scenario_names
            else list(SCENARIOS.values())
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        scale = SCALES[args.scale]
        workers = resolve_workers(args.workers)
        _validate_strategies(args.strategies)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"sweeping {len(specs)} scenario(s) x {len(args.strategies)} "
        f"strategies at scale={scale.label} workers={workers} "
        f"seed={args.seed} ...",
        file=sys.stderr,
    )
    journal = args.journal
    if journal is not None:
        # Echo the resolved path so operators know exactly which file a
        # re-run must point at to skip the completed cells.
        journal = os.path.abspath(journal)
        print(f"journal: {journal}", file=sys.stderr)
    try:
        result = run(
            sweep_experiment(specs, args.strategies, seed=args.seed),
            scale,
            workers=workers,
            journal=journal,
        )
    except (JournalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.grid.journal_restored:
        print(
            f"journal: restored {result.grid.journal_restored} completed "
            "run(s); skipped re-running them",
            file=sys.stderr,
        )
    print(render(result))
    print(f"resolved seed: {args.seed}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
