"""System model: nodes, schedulers, process manager, workload, simulation."""

from .config import (
    PARALLEL,
    SERIAL,
    SERIAL_PARALLEL,
    SystemConfig,
    baseline_config,
    expected_frac_local,
    harmonic,
    parallel_baseline_config,
    serial_parallel_config,
)
from .detector import DetectorSpec, FailureDetector
from .faults import FaultInjector, FaultSpec, LiveSet
from .metrics import (
    ClassStats,
    MetricsCollector,
    NodeStats,
    NodeTable,
    RunResult,
)
from .node import Node
from .preemptive import PreemptiveNode
from .overload import (
    OVERLOAD_POLICIES,
    AbortTardyAtDispatch,
    NoAbort,
    OverloadPolicy,
    get_overload_policy,
)
from .process_manager import ProcessManager
from .schedulers import (
    POLICIES,
    EarliestDeadlineFirst,
    FirstComeFirstServed,
    MinimumLaxityFirst,
    ReadyQueue,
    SchedulingPolicy,
    get_policy,
)
from .simulation import Simulation, simulate
from .tracing import TraceEvent, TraceLog
from .work import WorkUnit
from .workload import (
    GlobalTaskFactory,
    GlobalTaskSource,
    LocalTaskSource,
    StageFactory,
)

__all__ = [
    "AbortTardyAtDispatch",
    "ClassStats",
    "DetectorSpec",
    "EarliestDeadlineFirst",
    "FailureDetector",
    "FaultInjector",
    "FaultSpec",
    "FirstComeFirstServed",
    "GlobalTaskFactory",
    "GlobalTaskSource",
    "LiveSet",
    "LocalTaskSource",
    "MetricsCollector",
    "MinimumLaxityFirst",
    "NoAbort",
    "Node",
    "NodeStats",
    "NodeTable",
    "OVERLOAD_POLICIES",
    "OverloadPolicy",
    "PARALLEL",
    "POLICIES",
    "PreemptiveNode",
    "ProcessManager",
    "ReadyQueue",
    "RunResult",
    "SERIAL",
    "SERIAL_PARALLEL",
    "SchedulingPolicy",
    "Simulation",
    "StageFactory",
    "SystemConfig",
    "TraceEvent",
    "TraceLog",
    "WorkUnit",
    "baseline_config",
    "expected_frac_local",
    "get_overload_policy",
    "get_policy",
    "harmonic",
    "parallel_baseline_config",
    "serial_parallel_config",
    "simulate",
]
