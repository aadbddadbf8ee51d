"""Microbenchmarks of the simulation substrate.

Not a paper artifact: these track the performance of the discrete-event
kernel and the ready queue so that regressions in the substrate (which
would silently stretch every experiment) are visible.  Unlike the figure
benches these use multiple rounds, since each round is milliseconds.
"""

from __future__ import annotations

import random

from repro.core.strategies.base import PriorityClass
from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.sim.core import Environment
from repro.system.schedulers import EarliestDeadlineFirst, ReadyQueue
from repro.system.work import WorkUnit

from _util import record_kernel_bench


def test_event_throughput(benchmark):
    """Schedule-and-fire cost of bare pooled sleeps."""

    def noop(_event):
        pass

    def run():
        env = Environment()
        for i in range(10_000):
            env._sleep(i % 97 * 0.1, noop)
        env.run()
        return env.now

    result = benchmark(run)
    record_kernel_bench("event_throughput", benchmark)
    assert result > 0


def test_process_switching(benchmark):
    """Cost of 100 interleaved tickers, each a chain of 100 sleeps
    whose callback arms the next one."""

    def run():
        env = Environment()
        done = []

        def ticker(n):
            left = [n]

            def tick(_event):
                left[0] -= 1
                if left[0]:
                    env._sleep(1.0, tick)
                else:
                    done.append(True)

            env._sleep(1.0, tick)

        for _ in range(100):
            ticker(100)
        env.run()
        return len(done)

    assert benchmark(run) == 100
    record_kernel_bench("process_switching", benchmark)


def test_ready_queue_throughput(benchmark):
    """Push/pop cost of the EDF ready queue at depth ~1000."""
    rng = random.Random(1)
    units = [
        WorkUnit(
            name=f"u{i}",
            task_class=TaskClass.LOCAL,
            node_index=0,
            timing=TimingRecord(ar=0.0, ex=1.0, dl=rng.uniform(0, 100)),
            priority_class=rng.choice(
                [PriorityClass.NORMAL, PriorityClass.ELEVATED]
            ),
        )
        for i in range(1_000)
    ]

    def run():
        queue = ReadyQueue(EarliestDeadlineFirst())
        for unit in units:
            queue.push(unit)
        popped = 0
        while queue:
            queue.pop()
            popped += 1
        return popped

    assert benchmark(run) == 1_000
    record_kernel_bench("ready_queue_throughput", benchmark)


def test_mm1_queue_cycle(benchmark):
    """A complete arrival/service cycle: the simulator's inner loop."""

    def run():
        from repro.system.config import baseline_config
        from repro.system.simulation import simulate

        result = simulate(
            baseline_config(sim_time=1_000.0, warmup_time=100.0, seed=3)
        )
        return result.local.completed

    completed = benchmark(run)
    record_kernel_bench("mm1_queue_cycle", benchmark)
    assert completed > 500
