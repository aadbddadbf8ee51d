"""Microbenchmarks of the preemptive-resume ablation path.

Not a paper artifact: these track the cost of :class:`PreemptiveNode`
service -- dispatch, preemption (timer cancellation + remaining-demand
bookkeeping + re-enqueue), and resume.  ``preemptive_storm`` is the
preemptive-heavy headline: a pure preemption storm where every arrival
preempts, so the run is nothing but the preemption machinery.  The
``simulate()``-based benches put the same machinery in end-to-end
context, where sources, the coordinator, and metrics dilute it
(realistic workloads top out around 0.27 preemptions per dispatch).

The workload functions are module-level so that an interleaved A/B
harness can drive them directly against an alternative
``PreemptiveNode`` implementation (that is how the
``baseline_generator_server`` section of ``BENCH_preemptive.json`` was
recorded: the old generator server at the same commit, with both
preemption bugfixes applied, alternating with the callback server in
paired subprocess rounds -- see PERFORMANCE.md).

Results are merged into ``BENCH_preemptive.json`` at the repo root (see
``benchmarks/_util.record_preemptive_bench``).
"""

from __future__ import annotations

from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.sim.core import Environment
from repro.system.config import baseline_config, parallel_baseline_config
from repro.system.metrics import MetricsCollector
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.simulation import simulate
from repro.system.work import WorkUnit

from _util import record_preemptive_bench

#: Shared run length: long enough for thousands of dispatches and
#: hundreds of preemptions per round, short enough for many rounds.
_RUN = dict(sim_time=1_500.0, warmup_time=150.0, preemptive=True)


class _Storm:
    """Self-rescheduling callback driver feeding one node a stream of
    ever-more-urgent units, so EVERY arrival preempts the unit in
    service.  Deliberately minimal (no sources, no coordinator, no
    deadline strategy): the run is nothing but the preemption machinery
    -- submit, priority comparison, timer cancellation, remaining-demand
    bookkeeping, re-enqueue, re-dispatch."""

    def __init__(self, env: Environment, node: PreemptiveNode, count: int) -> None:
        self.env = env
        self.node = node
        self.left = count
        self.fired = 0
        env._sleep(0.5, self._fire)

    def _fire(self, _event) -> None:
        env = self.env
        self.fired += 1
        timing = TimingRecord(ar=env._now, ex=100.0, dl=1e9 - self.fired)
        self.node.submit(WorkUnit(
            name=None, task_class=TaskClass.LOCAL,
            node_index=0, timing=timing,
        ))
        self.left -= 1
        if self.left:
            env._sleep(0.5, self._fire)


def run_storm(count: int = 10_000) -> int:
    """One preemption-storm round; returns the preemption count."""
    env = Environment()
    metrics = MetricsCollector(node_count=1)
    node = PreemptiveNode(
        env=env, index=0, policy=EarliestDeadlineFirst(), metrics=metrics
    )
    _Storm(env, node, count)
    env.run(until=count * 0.5 + 1)
    return node.preemptions


def run_baseline() -> int:
    """Table 1 baseline with preemptive servers (the golden gate's
    configuration family): plain dispatch/complete cycles with
    occasional preemptions."""
    result = simulate(baseline_config(strategy="EQF", seed=13, **_RUN))
    return result.local.completed


def run_heavy() -> int:
    """Load 0.85 with tight flexibility: long queues, urgent arrivals
    frequently beating the unit in service (~0.15 preemptions per
    dispatch)."""
    result = simulate(
        baseline_config(strategy="EQF", load=0.85, rel_flex=0.25, seed=17, **_RUN)
    )
    return result.local.completed


def run_globals_first() -> int:
    """Parallel fans under Globals-First: every global subtask arrives
    in the elevated class and preempts whatever local work is in
    service -- the highest sustained end-to-end preemption rate."""
    result = simulate(
        parallel_baseline_config(
            strategy="GF", frac_local=0.6, load=0.7, seed=19, **_RUN
        )
    )
    return result.local.completed + result.global_.completed


def test_preemptive_storm(benchmark):
    """The preemptive-heavy bench (the headline before/after number for
    the callback-server rewrite)."""
    preemptions = benchmark(run_storm)
    record_preemptive_bench("preemptive_storm", benchmark)
    # Every arrival after the first preempts: the machinery really is
    # what this bench measures.
    assert preemptions == 10_000 - 1


def test_preemptive_baseline(benchmark):
    completed = benchmark(run_baseline)
    record_preemptive_bench("preemptive_baseline", benchmark)
    assert completed > 1000


def test_preemptive_heavy(benchmark):
    completed = benchmark(run_heavy)
    record_preemptive_bench("preemptive_heavy", benchmark)
    assert completed > 1000


def test_preemptive_globals_first(benchmark):
    completed = benchmark(run_globals_first)
    record_preemptive_bench("preemptive_globals_first", benchmark)
    assert completed > 1000
