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

import itertools
from typing import Any, Callable, Optional

from ..core.strategies.base import PriorityClass
from ..core.task import TaskClass
from ..core.timing import TimingRecord

_unit_counter = itertools.count(1)


class UnitPool:
    """Free-list recycler for :class:`WorkUnit` (cf. ``_Sleep`` pooling).

    At fleet scale every simulated task would otherwise allocate (and
    collect) a fresh 12-slot object; the pool keeps released units on a
    plain list and the workload sources re-stamp every slot on acquire.
    ``in_use``/``high_water`` are diagnostics only (surfaced by
    ``scenarios run --metrics-out``); they are approximate after a
    checkpoint restore, where live units re-enter a fresh process-global
    pool that never saw their acquisition.
    """

    __slots__ = ("free", "in_use", "high_water")

    def __init__(self) -> None:
        self.free: list = []
        self.in_use = 0
        self.high_water = 0

    def __reduce__(self):
        # Pickle by reference, like the ``_FAILED`` singleton: units in a
        # checkpoint point at the restoring process's pool, and the free
        # list itself is never serialized.
        return "UNIT_POOL"

    def __repr__(self) -> str:
        return (
            f"<UnitPool free={len(self.free)} in_use={self.in_use} "
            f"high_water={self.high_water}>"
        )


#: The process-global unit pool.  Single simulation runs recycle through
#: it; sweep workers each have their own (fork/spawn gives each process
#: a fresh module global).
UNIT_POOL = UnitPool()


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
        "global_id",
        "stage",
        "natural_deadline",
        "lost",
        "pool",
    )

    def __init__(
        self,
        name: Optional[str],
        task_class: TaskClass,
        node_index: int,
        timing: TimingRecord,
        priority_class: int = PriorityClass.NORMAL,
        global_id: Optional[int] = None,
        stage: Optional[int] = None,
        natural_deadline: Optional[float] = None,
        on_done: Optional[Callable[[Any], None]] = None,
    ) -> None:
        if timing.dl is None:
            raise ValueError(
                f"work unit {name!r} submitted without a deadline; the SDA "
                "strategy must assign one before submission"
            )
        self.id = next(_unit_counter)
        self._name = name
        self.task_class = task_class
        self.node_index = node_index
        self.timing = timing
        self.priority_class = priority_class
        #: The one completion channel (the process manager's
        #: continuation): when set, the node schedules it as a bare
        #: single-callback event at completion/discard time, with the unit
        #: as the event's ``_value``.  Units without one (the local task
        #: sources' fire-and-forget work) go back to their pool instead.
        self.on_done = on_done
        #: True when a node crash discarded this unit (as opposed to an
        #: overload-policy abort).  The process manager's retry layer only
        #: retries crash losses, never policy aborts.
        self.lost = False
        #: Id of the enclosing global task, if any (for tracing).
        self.global_id = global_id
        #: Stage index within the enclosing global task (for tracing).
        self.stage = stage
        #: The deadline after which this work is genuinely worthless: for a
        #: local task its own deadline, for a global subtask the *end-to-end*
        #: deadline of its global task.  Firm overload policies that discard
        #: useless work consult this, not the virtual deadline -- a subtask
        #: past its virtual deadline may still finish in time end to end.
        self.natural_deadline = (
            natural_deadline if natural_deadline is not None else timing.dl
        )
        #: Owning :class:`UnitPool`, or ``None`` for hand-built units
        #: (tests, blockers) that are never recycled.
        self.pool = None

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

    def release(self) -> None:
        """Return this unit to its pool (single owner only).

        Callable only on pool-acquired units whose outcome nobody still
        needs: the node loops release fire-and-forget units (no
        ``on_done``) right after recording their outcome, and the process
        manager's continuation releases its subtask units after consuming
        theirs.  A parked unit has no timing record, so a double release
        raises instead of corrupting the next tenant.
        """
        if self.timing is None:
            raise RuntimeError(f"work unit {self.id} released twice")
        pool = self.pool
        self.on_done = None
        # Drop the timing record: the outcome was already copied into the
        # metrics/trace layers, and a stale reader failing loudly on None
        # beats silently reading the next tenant's record.
        self.timing = None
        pool.in_use -= 1
        pool.free.append(self)

    def __repr__(self) -> str:
        return (
            f"<WorkUnit {self.name!r} class={self.task_class.value} "
            f"node={self.node_index} dl={self.timing.dl:.4g}>"
        )


def acquire_unit(
    name: Optional[str],
    task_class: TaskClass,
    node_index: int,
    timing: TimingRecord,
    priority_class: int = PriorityClass.NORMAL,
    global_id: Optional[int] = None,
    stage: Optional[int] = None,
    natural_deadline: Optional[float] = None,
    on_done: Optional[Callable[[Any], None]] = None,
) -> WorkUnit:
    """Pool-recycling equivalent of ``WorkUnit(...)``.

    Pops a released unit from :data:`UNIT_POOL` (or allocates on a dry
    pool) and re-stamps every slot, so a recycled unit is
    indistinguishable from a fresh one -- ids stay monotone via the
    shared counter.  The workload sources inline this per-arrival; the
    process manager calls it per subtask.
    """
    if timing.dl is None:
        raise ValueError(
            f"work unit {name!r} submitted without a deadline; the SDA "
            "strategy must assign one before submission"
        )
    pool = UNIT_POOL
    free = pool.free
    if free:
        unit = free.pop()
    else:
        unit = WorkUnit.__new__(WorkUnit)
        unit.pool = pool
    in_use = pool.in_use + 1
    pool.in_use = in_use
    if in_use > pool.high_water:
        pool.high_water = in_use
    unit.id = next(_unit_counter)
    unit._name = name
    unit.task_class = task_class
    unit.node_index = node_index
    unit.timing = timing
    unit.priority_class = priority_class
    unit.on_done = on_done
    unit.lost = False
    unit.global_id = global_id
    unit.stage = stage
    unit.natural_deadline = (
        natural_deadline if natural_deadline is not None else timing.dl
    )
    return unit
