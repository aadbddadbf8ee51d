"""Local real-time scheduling policies (one per node, Sec. 3.2).

Each node services its ready queue *non-preemptively* according to a
policy.  The paper's baseline policy is earliest-deadline-first (EDF);
Sec. 4.3 also exercises minimum-laxity-first (MLF), and FCFS is provided as
a deadline-oblivious control.

Implementation note -- static keys
----------------------------------

With a non-preemptive single server, every policy here admits an
*insertion-time* sort key:

* EDF orders by ``dl``;
* MLF orders by laxity ``dl - now - pex``; since the scheduler compares
  laxities at a common decision instant ``now``, the order is the order of
  ``dl - pex``, which is constant per unit;
* FCFS orders by submission sequence.

So the ready queue is a binary heap and dispatch is O(log n).  Keys are
tuples ``(priority_class, policy_key, seq)``: the leading priority class
implements Globals-First (elevated work always wins), and the trailing
sequence number breaks ties FIFO, keeping runs deterministic.

:class:`ReadyQueue` is the reference implementation of that heap.  The
nodes inline it (see :mod:`repro.system.node`) and draw their sequence
numbers from one ``itertools.count`` per simulation.
"""

from __future__ import annotations

import itertools
import operator
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from .work import WorkUnit


class SchedulingPolicy:
    """Strategy object producing heap keys for work units.

    A policy may additionally define ``fast_key``, a callable equivalent
    to :meth:`key` that the ready queue prefers on its push hot path
    (e.g. a C-level ``attrgetter`` instead of a Python method).
    """

    #: Registry / display name.
    name: str = "abstract"

    def key(self, unit: WorkUnit) -> float:
        """Policy-specific component of the sort key (smaller = sooner)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Policy {self.name}>"


class EarliestDeadlineFirst(SchedulingPolicy):
    """EDF: dispatch the queued unit with the smallest (virtual) deadline."""

    name = "EDF"

    #: C-level key extraction for the push hot path.
    fast_key = operator.attrgetter("timing.dl")

    def key(self, unit: WorkUnit) -> float:
        return unit.timing.dl


class MinimumLaxityFirst(SchedulingPolicy):
    """MLF: dispatch the unit with the least laxity ``dl - now - pex``.

    Uses the *predicted* execution time: the scheduler cannot know the real
    one.  See the module docstring for why ``dl - pex`` is a valid static
    key under non-preemptive service.
    """

    name = "MLF"

    def key(self, unit: WorkUnit) -> float:
        return unit.timing.dl - unit.timing.pex


class FirstComeFirstServed(SchedulingPolicy):
    """FCFS: ignore deadlines entirely (control policy)."""

    name = "FCFS"

    def key(self, unit: WorkUnit) -> float:
        return 0.0  # the sequence-number tiebreak makes this FIFO


#: Policies by name, for configuration files and the CLI.
POLICIES: Dict[str, SchedulingPolicy] = {
    policy.name: policy
    for policy in (
        EarliestDeadlineFirst(),
        MinimumLaxityFirst(),
        FirstComeFirstServed(),
    )
}


def get_policy(name: str) -> SchedulingPolicy:
    """Look up a policy by (case-insensitive) name."""
    try:
        return POLICIES[name.upper()]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown scheduling policy {name!r}; known: {known}")


class ReadyQueue:
    """Priority-ordered ready queue of work units.

    The reference for the ready queue that :class:`~repro.system.node.Node`
    inlines (the node keeps the heap in its own slots and shares one
    ``itertools.count`` with its simulation's other nodes); tests pin the
    nodes' dispatch order against it.  Keys are computed at insertion
    (valid for all shipped policies; see module docstring).
    """

    __slots__ = ("_policy", "_key", "_heap", "_seq")

    def __init__(self, policy: SchedulingPolicy) -> None:
        self._policy = policy
        # Bound once: push runs once per unit; prefer a policy's C-level
        # fast_key when it provides one.
        self._key = getattr(policy, "fast_key", None) or policy.key
        self._heap: List[Tuple[int, float, int, WorkUnit]] = []
        self._seq = itertools.count()

    def push(self, unit: WorkUnit) -> None:
        """Enqueue a unit."""
        heappush(
            self._heap,
            (unit.priority_class, self._key(unit), next(self._seq), unit),
        )

    def pop(self) -> WorkUnit:
        """Dequeue the highest-priority unit."""
        if not self._heap:
            raise IndexError("pop from empty ready queue")
        return heappop(self._heap)[3]

    def peek(self) -> Optional[WorkUnit]:
        """The unit that would be dispatched next, or ``None``."""
        return self._heap[0][3] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def policy(self) -> SchedulingPolicy:
        return self._policy
