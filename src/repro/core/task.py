"""Serial-parallel task model (Sec. 3.1 of the paper).

The paper writes ``T = [T1 T2 ... Tn]`` for a *serial* global task whose
subtasks execute in order, and ``T = [T1 || T2 || ... || Tn]`` for a
*parallel* one whose subtasks all start together; ``T`` finishes when the
last subtask finishes.  These compose: a subtask may itself be a serial or
parallel task (a *complex subtask*), giving the class of serial-parallel
trees.

This module models that algebra:

* :class:`SimpleTask` -- a leaf executed at exactly one node;
* :class:`SerialTask` -- ordered composition;
* :class:`ParallelTask` -- fork/join composition;
* :class:`LocalTask` -- a task generated at (and executed at) one node,
  outside any global task.

Trees are *plans*: the nodes carry execution times and, once the workload
generator or an SDA strategy assigns them, deadlines.  The runtime
(:mod:`repro.system.process_manager`) walks the tree and submits leaves to
nodes.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, List, Optional, Sequence

from .timing import TimingRecord


class TaskClass(Enum):
    """Which population a unit of work belongs to (Sec. 3.1)."""

    LOCAL = "local"
    GLOBAL = "global"


class TaskNode:
    """Base class of the serial-parallel task tree."""

    kind: str = "abstract"

    def __init__(self, name: Optional[str] = None) -> None:
        #: Display name, or ``None``: a work unit built from an unnamed
        #: leaf is labelled by its simulation's unit counter instead.
        self.name = name
        #: Set once a composite node adopts this node as a child.  A flag
        #: rather than a parent link: a back-pointer would make every tree
        #: a reference cycle, which only the garbage collector can free.
        self.owned = False
        #: Timing attributes; ``ar``/``dl`` of inner nodes describe the
        #: node's *window* (assigned recursively by the combined strategy).
        self.timing: Optional[TimingRecord] = None

    # -- structure ---------------------------------------------------------

    @property
    def children(self) -> Sequence["TaskNode"]:
        return ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> Iterator["SimpleTask"]:
        """Yield all simple subtasks, left to right."""
        if self.is_leaf:
            yield self  # type: ignore[misc]
        else:
            for child in self.children:
                yield from child.leaves()

    def subtask_count(self) -> int:
        """Number of simple subtasks in the tree."""
        return sum(1 for _ in self.leaves())

    def depth(self) -> int:
        """Height of the tree (a leaf has depth 1)."""
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self.children)

    # -- predicted / real execution envelopes ------------------------------

    def total_pex(self) -> float:
        """Predicted time to run this (sub)tree in isolation.

        Serial children add; parallel children take the maximum (the group
        is only as slow as its longest member).  This is the ``pex`` an SDA
        strategy uses for a *complex* subtask.
        """
        raise NotImplementedError

    def total_ex(self) -> float:
        """Real time to run this (sub)tree in isolation (no queueing)."""
        raise NotImplementedError

    # -- misc ---------------------------------------------------------------

    def validate(self) -> None:
        """Check structural sanity; raises ``ValueError`` on problems.

        Every child must have been adopted by a composite constructor
        (its ``owned`` flag), and no node may be reached twice: a tree
        that shares a node, or contains itself, was edited behind the
        constructors' back.
        """
        seen = set()
        pending: List[TaskNode] = [self]
        while pending:
            node = pending.pop()
            if id(node) in seen:
                raise ValueError(
                    f"{node!r} is reached twice; task trees must not "
                    "share nodes"
                )
            seen.add(id(node))
            node._check()
            for child in node.children:
                if not child.owned:
                    raise ValueError(
                        f"{child!r} was not adopted by a composite node"
                    )
                pending.append(child)

    def _check(self) -> None:
        """This node's own sanity checks (``validate`` walks the tree)."""

    def notation(self) -> str:
        """Render in the paper's bracket notation."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class SimpleTask(TaskNode):
    """A leaf subtask: one unit of work at exactly one node.

    ``ex`` is the real execution demand; ``node_index`` is filled by the
    workload generator (the paper picks it uniformly at random among the
    ``k`` nodes).
    """

    kind = "simple"

    def __init__(
        self,
        ex: float,
        pex: Optional[float] = None,
        name: Optional[str] = None,
        node_index: Optional[int] = None,
    ) -> None:
        super().__init__(name=name)
        if ex < 0:
            raise ValueError(f"negative execution time: {ex}")
        self.ex = float(ex)
        self.pex = float(pex) if pex is not None else self.ex
        if self.pex < 0:
            raise ValueError(f"negative predicted execution time: {self.pex}")
        self.node_index = node_index

    def total_pex(self) -> float:
        return self.pex

    def total_ex(self) -> float:
        return self.ex

    def notation(self) -> str:
        if self.name is not None:
            return self.name
        return f"{self.ex:g}"

    def _check(self) -> None:
        if self.node_index is not None and self.node_index < 0:
            raise ValueError(f"negative node index: {self.node_index}")


class _CompositeTask(TaskNode):
    """Shared behaviour of serial and parallel composition nodes."""

    def __init__(self, children: Sequence[TaskNode], name: Optional[str] = None) -> None:
        super().__init__(name=name)
        if not children:
            raise ValueError(f"{type(self).__name__} needs at least one child")
        self._children: List[TaskNode] = list(children)
        for child in self._children:
            if child.owned:
                raise ValueError(
                    f"{child!r} already belongs to a task; "
                    "task trees must not share nodes"
                )
            child.owned = True

    @property
    def children(self) -> Sequence[TaskNode]:
        return self._children


class SerialTask(_CompositeTask):
    """Ordered composition ``[T1 T2 ... Tn]``: Ti starts when Ti-1 ends."""

    kind = "serial"

    def total_pex(self) -> float:
        return sum(child.total_pex() for child in self._children)

    def total_ex(self) -> float:
        return sum(child.total_ex() for child in self._children)

    def notation(self) -> str:
        inner = " ".join(child.notation() for child in self._children)
        return f"[{inner}]"


class ParallelTask(_CompositeTask):
    """Fork/join composition ``[T1 || T2 || ... || Tn]``.

    All children become eligible at the same time; the group finishes when
    the *last* child finishes, so its execution envelope is the max over
    children.
    """

    kind = "parallel"

    def total_pex(self) -> float:
        return max(child.total_pex() for child in self._children)

    def total_ex(self) -> float:
        return max(child.total_ex() for child in self._children)

    def notation(self) -> str:
        inner = " || ".join(child.notation() for child in self._children)
        return f"[{inner}]"


class LocalTask:
    """A single-node task generated locally, competing with global subtasks.

    Not part of the tree algebra: a local task is always one unit of work
    with its own end-to-end deadline, at the node that generated it.
    """

    task_class = TaskClass.LOCAL

    def __init__(self, ex: float, node_index: int, name: Optional[str] = None) -> None:
        if ex < 0:
            raise ValueError(f"negative execution time: {ex}")
        self.name = name
        self.ex = float(ex)
        self.node_index = node_index

    def __repr__(self) -> str:
        return f"<LocalTask {self.name!r} node={self.node_index}>"


# -- convenience constructors ------------------------------------------------


def serial(*children: TaskNode, name: Optional[str] = None) -> SerialTask:
    """Build ``[T1 T2 ... Tn]``."""
    return SerialTask(children, name=name)


def parallel(*children: TaskNode, name: Optional[str] = None) -> ParallelTask:
    """Build ``[T1 || T2 || ... || Tn]``."""
    return ParallelTask(children, name=name)


def chain_of(execution_times: Sequence[float], name: Optional[str] = None) -> SerialTask:
    """Build a flat serial task from a list of leaf execution times."""
    leaves = [SimpleTask(ex) for ex in execution_times]
    return SerialTask(leaves, name=name)


def fan_of(execution_times: Sequence[float], name: Optional[str] = None) -> ParallelTask:
    """Build a flat parallel task from a list of leaf execution times."""
    leaves = [SimpleTask(ex) for ex in execution_times]
    return ParallelTask(leaves, name=name)
