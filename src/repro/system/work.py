"""Work units: what actually sits in a node's ready queue.

A :class:`WorkUnit` is one unit of service demand at one node -- either a
local task or a simple subtask of a global task.  It carries the timing
record the scheduler consults, the priority class (for Globals-First), and
the single completion callback (``on_done``) its submitter installed.

Keeping this as its own small type decouples the node/scheduler machinery
from the task-tree algebra: nodes never see trees, only work units, exactly
as in the paper's model where local schedulers "find themselves scheduling
subtasks, or segments of global tasks, instead of complete tasks".
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.strategies.base import PriorityClass
from ..core.task import TaskClass
from ..core.timing import TimingRecord


class WorkUnit:
    """One schedulable unit of work at one node."""

    __slots__ = (
        "id",
        "_name",
        "task_class",
        "node_index",
        "timing",
        "priority_class",
        "on_done",
        "natural_deadline",
        "lost",
    )

    def __init__(
        self,
        name: Optional[str],
        task_class: TaskClass,
        node_index: int,
        timing: TimingRecord,
        priority_class: int = PriorityClass.NORMAL,
        natural_deadline: Optional[float] = None,
        on_done: Optional[Callable[[Any], None]] = None,
        unit_id: int = 0,
    ) -> None:
        if timing.dl is None:
            raise ValueError(
                f"work unit {name!r} submitted without a deadline; the SDA "
                "strategy must assign one before submission"
            )
        #: Display label only, drawn from its simulation's unit counter
        #: (nothing schedules by it; a unit built alone keeps 0).
        self.id = unit_id
        self._name = name
        self.task_class = task_class
        self.node_index = node_index
        self.timing = timing
        self.priority_class = priority_class
        #: The one completion channel (the process manager's
        #: continuation): when set, the node schedules it as a bare
        #: single-callback event at completion/discard time, with the unit
        #: as the event's ``_value``.  Units without one (the local task
        #: sources' fire-and-forget work) get no callback: the node records
        #: their outcome and drops them.
        self.on_done = on_done
        #: True when a node crash discarded this unit (as opposed to an
        #: overload-policy abort).  The process manager's retry layer only
        #: retries crash losses, never policy aborts.
        self.lost = False
        #: The deadline after which this work is genuinely worthless: for a
        #: local task its own deadline, for a global subtask the *end-to-end*
        #: deadline of its global task.  Firm overload policies that discard
        #: useless work consult this, not the virtual deadline -- a subtask
        #: past its virtual deadline may still finish in time end to end.
        self.natural_deadline = (
            natural_deadline if natural_deadline is not None else timing.dl
        )

    @property
    def name(self) -> str:
        """Display name of the unit.

        ``None`` at construction means "derive one lazily": mass-produced
        local tasks never need their name unless a trace or repr asks, and
        formatting one per unit is measurable at workload rates.
        """
        name = self._name
        if name is None:
            name = self._name = f"{self.task_class.value}-{self.id}"
        return name

    @property
    def is_global_subtask(self) -> bool:
        """True for subtasks of global tasks (vs. locally generated work)."""
        return self.task_class is TaskClass.GLOBAL

    def __repr__(self) -> str:
        return (
            f"<WorkUnit {self.name!r} class={self.task_class.value} "
            f"node={self.node_index} dl={self.timing.dl:.4g}>"
        )

