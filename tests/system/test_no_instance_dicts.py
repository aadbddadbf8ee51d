"""Guard: the per-node and per-unit objects carry no instance dict."""

from __future__ import annotations

import pytest

from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.sim.core import _Call
from repro.system.metrics import MetricsCollector, NodeStats
from repro.system.node import Node
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import EarliestDeadlineFirst, ReadyQueue
from repro.system.work import WorkUnit


def _noop(_event) -> None:
    pass


def _instances(env):
    metrics = MetricsCollector(node_count=2)
    timing = TimingRecord(ar=0.0, ex=1.0, dl=2.0)
    return {
        "Node": Node(env, 0, EarliestDeadlineFirst(), metrics),
        "PreemptiveNode": PreemptiveNode(
            env, 1, EarliestDeadlineFirst(), metrics
        ),
        "NodeStats": NodeStats(
            index=0, utilization=0.5, mean_queue_length=1.0, dispatched=3
        ),
        "WorkUnit": WorkUnit(
            name="u", task_class=TaskClass.LOCAL, node_index=0,
            timing=timing,
        ),
        "TimingRecord": timing,
        "ReadyQueue": ReadyQueue(EarliestDeadlineFirst()),
        "_Sleep": env._sleep(1.0, _noop),
        "_Call": _Call(_noop),
        "Environment": env,
    }


@pytest.mark.parametrize(
    "name",
    [
        "Node", "PreemptiveNode", "NodeStats", "WorkUnit", "TimingRecord",
        "ReadyQueue", "_Sleep", "_Call", "Environment",
    ],
)
def test_no_instance_dict(env, name):
    # CPython stops sharing instance-dict keys past 30 attributes, and
    # Node once crossed that limit silently (a private dict per node).
    assert not hasattr(_instances(env)[name], "__dict__")
