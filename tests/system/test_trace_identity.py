"""Trace labels belong to the run.

Each simulation numbers its work units from one counter of its own, so a
traced run's event stream -- unit names included -- is a function of its
config alone: not of what else ran in the same interpreter before or
during it.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.runner import run_config_batch
from repro.system.config import baseline_config
from repro.system.faults import FaultSpec
from repro.system.simulation import Simulation

#: No warm-up, so a run can be stopped partway and finished by ``run()``.
CONFIG = baseline_config(
    strategy="EQF", sim_time=200.0, warmup_time=0.0, seed=3, trace=True
)


def traced(config, interlude=None, at=100.0):
    """The trace of one run of ``config``; ``interlude`` (if given) runs
    in the same process when the run's clock reaches ``at``."""
    sim = Simulation(config)
    if interlude is not None:
        sim.env.run(until=at)
        interlude()
    sim.run()
    return sim.trace_log.events


class TestTraceIdentity:
    def test_identical_runs_trace_identically(self):
        first = traced(CONFIG)
        second = traced(CONFIG)
        assert first == second
        assert first[0].unit_name.endswith("-1")

    def test_run_after_a_batch_equals_the_run_made_first(self):
        first = traced(CONFIG)
        run_config_batch([
            baseline_config(sim_time=150.0, warmup_time=15.0, seed=seed)
            for seed in (1, 2)
        ] + [baseline_config(
            sim_time=150.0, warmup_time=15.0, seed=4,
            task_structure="parallel",
        )])
        assert traced(CONFIG) == first


class TestGlobalUnitNames:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"task_structure": "parallel"},
            {"task_structure": "serial-parallel", "stages": 3,
             "stage_width": 2},
            {"preemptive": True},
            # Every retry attempt is a fresh unit with a name of its own.
            {"faults": FaultSpec(
                mttf=150.0, mttr=15.0, in_flight="lost",
                retry_limit=2, retry_timeout=3.0,
            )},
        ],
        ids=["serial", "parallel", "serial-parallel", "preemptive",
             "lossy-retry"],
    )
    def test_every_global_submit_has_its_own_name(self, overrides):
        events = traced(baseline_config(
            sim_time=300.0, warmup_time=0.0, seed=6, trace=True,
            **overrides,
        ))
        names = Counter(
            event.unit_name for event in events
            if event.kind == "submit" and event.task_class == "global"
        )
        assert len(names) > 20
        assert max(names.values()) == 1
        assert all(name.startswith("global-") for name in names)
