"""The process manager (Sec. 3.2): runs global tasks over the nodes.

The process manager is the only component that sees a global task as a
whole.  Its three jobs, quoted from the paper:

1. assign deadlines to simple subtasks (delegated to a
   :class:`~repro.core.strategies.DeadlineAssigner`),
2. submit the simple subtasks to the appropriate nodes for execution,
3. enforce the precedence constraints among the subtasks.

Execution walks the serial-parallel tree:

* a **serial** node runs its children in order; before each child starts,
  the SSP strategy computes the child's virtual deadline *at that moment*,
  so leftover slack (or tardiness) of earlier stages is visible;
* a **parallel** node forks all children at once, giving each a virtual
  deadline from the PSP strategy, and joins on all of them;
* a **leaf** becomes a :class:`~repro.system.work.WorkUnit` at its node.

Aborts: under a firm overload policy a node may discard a unit whose
virtual deadline expired.  A serial chain cannot continue past a discarded
stage, and a parallel group is incomplete if any member was discarded, so
the whole global task is recorded as aborted (and missed).

Hot-path notes
--------------

Coordination is a callback state machine, mirroring the node servers.
Each leaf's completion (the unit's
:attr:`~repro.system.work.WorkUnit.on_done`, which the node calls with
the unit -- in place when nothing else is due at that instant, see
:mod:`repro.system.node`) drives the next serial stage directly
through a chain of small *continuation frames*:

* :class:`_TaskRun` is the root frame -- it records the end-to-end
  outcome when the tree finishes;
* :class:`_SerialFrame` advances one child per completion, computing the
  next virtual deadline at that moment;
* :class:`_ParallelFrame` is a counting join: every branch completion
  decrements it, and the last one continues the parent.

The abort signal is a boolean threaded through ``child_done(aborted)``
rather than an exception: a parallel join must wait for *all* branches
(the group's outcome is decided by the last finisher), so an exception
unwinding through the join would tear it down early.

Retry timeouts: ``retry_timeout`` is one constant per run, so attempt
deadlines fall due in launch order.  The manager keeps them in one FIFO
with the kernel sequence number each would have had as its own timer,
and one timer sits at the oldest live deadline's ``(time, seq)`` key:
attempts time out at the same keys as with a timer each, and a
completion cancels nothing.

The paper does not model the manager's own resource consumption ("this
consumption can be considered as additional subtasks"); neither do we.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Deque, Iterator, Optional, Sequence, Tuple

from ..core.strategies import DeadlineAssigner
from ..core.task import ParallelTask, SerialTask, SimpleTask, TaskClass, TaskNode
from ..core.timing import fast_timing
from ..sim.core import Environment, _Call
from .metrics import MetricsCollector
from .node import Node, defer_continuation
from .work import WorkUnit


class _Continuation:
    """Shared leaf-completion plumbing for the coordination frames.

    Every frame exposes ``child_done(aborted)`` (called directly by child
    frames) and ``_on_unit`` (the continuation attached to leaf work
    units via :attr:`WorkUnit.on_done`, called with the unit).  A frame
    never stores a bound method of itself: the launching code binds
    ``_on_unit`` when it builds a leaf's unit, so a frame is freed by
    reference counting once its last unit completes.
    """

    __slots__ = ()

    def _on_unit(self, unit: WorkUnit) -> None:
        self.child_done(unit.timing.aborted)


class _TaskRun(_Continuation):
    """Root frame: one in-flight global task, start to outcome."""

    __slots__ = (
        "manager",
        "tree",
        "deadline",
        "arrival",
        "failed",
    )

    def __init__(
        self,
        manager: "ProcessManager",
        tree: TaskNode,
        deadline: float,
    ) -> None:
        self.manager = manager
        self.tree = tree
        self.deadline = deadline
        self.arrival = 0.0  # stamped when the start kick fires
        #: Latched by a leaf's retry shim when its budget is exhausted,
        #: turning the recorded outcome into the "failed" disposition.
        self.failed = False

    def _start(self, _event: _Call) -> None:
        """Deferred start kick (scheduled by ``submit``): walk the tree.

        Deferring by one urgent event preserves the classic submission
        semantics the generator coordinator had: work already enqueued at
        the same instant enters service before this task's first subtask
        is pushed.
        """
        manager = self.manager
        arrival = manager.env._now
        self.arrival = arrival
        manager._execute(self.tree, arrival, self.deadline, self, self)

    def child_done(self, aborted: bool) -> None:
        """The whole tree finished (or a subtask was discarded): record."""
        manager = self.manager
        now = manager.env._now
        deadline = self.deadline
        if aborted:
            manager.metrics.record_global_completion(
                timing_missed=True, aborted=True, failed=self.failed
            )
        else:
            manager.metrics.record_global_completion(
                timing_missed=now > deadline,
                aborted=False,
                response_time=now - self.arrival,
                lateness=now - deadline,
            )


class _SerialFrame(_Continuation):
    """One serial group: runs its children in order.

    Each completion advances to the next child; the SSP strategy computes
    that child's virtual deadline *at the moment it starts*, so leftover
    slack (or tardiness) of earlier stages is visible.
    """

    __slots__ = (
        "manager",
        "run",
        "parent",
        "children",
        "pexes",
        "index",
        "window_arrival",
        "window_deadline",
    )

    def __init__(
        self,
        manager: "ProcessManager",
        node: SerialTask,
        run: _TaskRun,
        parent: _Continuation,
        window_arrival: float,
        window_deadline: float,
    ) -> None:
        self.manager = manager
        self.run = run
        self.parent = parent
        children = node.children
        self.children = children
        # The pex envelope of every child, computed once; each stage's
        # context takes the tail slice (current child first).
        self.pexes = tuple(
            child.pex if type(child) is SimpleTask else child.total_pex()
            for child in children
        )
        self.index = 0
        self.window_arrival = window_arrival
        self.window_deadline = window_deadline

    def child_done(self, aborted: bool) -> None:
        if aborted:
            # A serial chain cannot continue past a discarded stage.
            self.parent.child_done(True)
            return
        index = self.index + 1
        if index == len(self.children):
            self.parent.child_done(False)
            return
        self.index = index
        self._advance()

    def _advance(self) -> None:
        """Assign the current child its virtual deadline and launch it."""
        manager = self.manager
        env = manager.env
        i = self.index
        child = self.children[i]
        deadline = manager._serial_deadline(
            self.pexes[i:],
            env._now,
            self.window_arrival,
            self.window_deadline,
        )
        if type(child) is SimpleTask:
            # Direct leaf call: no child frame on the dominant
            # serial-chain-of-leaves structure.
            manager._submit_leaf(child, deadline, self.run, self._on_unit)
        else:
            manager._execute(
                child,
                window_arrival=env._now,
                window_deadline=deadline,
                run=self.run,
                parent=self,
            )


class _ParallelFrame(_Continuation):
    """One parallel group: a counting join over its branches.

    Every branch completion decrements ``remaining``; the last one
    continues the parent.  The join waits for *all* branches even after
    one aborts -- the group's outcome is decided by the last finisher --
    so the abort signal is latched, not propagated early.
    """

    __slots__ = ("parent", "remaining", "aborted")

    def __init__(self, parent: _Continuation, fan_out: int) -> None:
        self.parent = parent
        self.remaining = fan_out
        self.aborted = False

    def child_done(self, aborted: bool) -> None:
        if aborted:
            self.aborted = True
        remaining = self.remaining - 1
        self.remaining = remaining
        if remaining == 0:
            self.parent.child_done(self.aborted)


class _FailedResult:
    """Sentinel delivered to a continuation frame when a leaf's retry
    budget is exhausted.

    Continuation frames read ``unit.timing.aborted`` off whatever they
    are called with; this object satisfies that contract without a real
    work unit (there is no unit -- the last attempt was lost or timed
    out, and no further attempt was made).
    """

    __slots__ = ()

    class _Timing:
        aborted = True
        completed_at = None

    timing = _Timing()
    lost = True


_FAILED = _FailedResult()


class _LeafAttempt:
    """Retry/misroute shim between one leaf and its continuation frame.

    Installed as the leaf's ``on_done`` target when the config carries a
    retry-enabled :class:`~repro.system.faults.FaultSpec` and/or an
    enabled :class:`~repro.system.detector.DetectorSpec`.  Each attempt
    is a fresh work unit; crash losses (``unit.lost``) and completion
    timeouts trigger resubmission to a live node after exponential
    backoff, up to ``retry_limit`` resubmissions, after which the run is
    latched as failed.  Overload-policy aborts pass through untouched --
    the policy judged the work useless, and retrying it would be a bug.

    Under a retry timeout each submitted attempt puts its deadline in
    the manager's FIFO (see :meth:`ProcessManager._expire`) and holds no
    timer: the attempt is live while ``current`` is that attempt's unit,
    so a completion or an earlier timeout settles the deadline without
    touching it.

    Misroute recovery (detector mode): placement routes on the
    detector's *observed* :class:`~repro.system.faults.LiveSet`, so a
    submit can target a node that is truly down but not yet suspected.
    Such a submit bounces: after ``misroute_delay`` (the time it takes
    the manager to notice the dead target) it re-routes to a trusted
    node, at most ``max_redirects`` times per leaf -- after that the
    unit queues at its dead target until recovery (or until the retry
    timeout fires, when one is configured).

    Routing draws ride dedicated streams (``"retry-route"`` for backoff
    re-routes, ``"detector-route"`` for misroute bounces), so enabling
    either layer perturbs no other stream (and plain runs draw nothing).
    """

    __slots__ = (
        "manager",
        "leaf",
        "deadline",
        "run",
        "parent_on_done",
        "node_index",
        "current",
        "attempts",
        "redirects",
    )

    def __init__(
        self,
        manager: "ProcessManager",
        leaf: SimpleTask,
        deadline: float,
        run: _TaskRun,
        parent_on_done,
    ) -> None:
        self.manager = manager
        self.leaf = leaf
        self.deadline = deadline
        self.run = run
        self.parent_on_done = parent_on_done
        self.node_index = leaf.node_index
        self.current: Optional[WorkUnit] = None
        self.attempts = 0
        self.redirects = 0

    def launch(self) -> None:
        self._dispatch(self.node_index)

    def _dispatch(self, node_index: int) -> None:
        """Submit one attempt (a fresh unit, same virtual deadline)."""
        manager = self.manager
        env = manager.env
        detector = manager._detector
        if (
            detector is not None
            and not manager.nodes[node_index]._up
            and self.redirects < detector.max_redirects
        ):
            # Misroute: the observed view let a dead node through.  The
            # manager notices after the detection/bounce delay and
            # re-routes; the leaf remembers the target so an exhausted
            # redirect budget degrades to queue-until-recovery there.
            self.redirects += 1
            manager.metrics.misroutes += 1
            self.node_index = node_index
            if detector.misroute_delay > 0.0:
                env._sleep(detector.misroute_delay, self._bounce)
            else:
                self._bounce(None)
            return
        leaf = self.leaf
        timing = fast_timing(
            ar=env._now, ex=leaf.ex, pex=leaf.pex, dl=self.deadline
        )
        leaf.timing = timing
        # Positional, as in ProcessManager._submit_leaf.
        unit = WorkUnit(
            leaf.name, TaskClass.GLOBAL, node_index, timing,
            manager._priority_class, self.run.deadline, self._unit_done,
            next(manager._unit_ids),
        )
        self.current = unit
        retry = manager._retry
        if retry is not None and retry.retry_timeout > 0.0:
            # The sequence number is drawn where a timer of the attempt's
            # own would have drawn it.
            when = env._now + retry.retry_timeout
            seq = env._next_seq()
            deadlines = manager._deadlines
            if not deadlines:
                env._sleep_at(when, seq, manager._expire)
            deadlines.append((when, seq, self, unit))
        manager.nodes[node_index].submit(unit)

    def _reroute(self, stream) -> None:
        """Dispatch again, drawing the node from ``stream``: uniformly over
        the view's live nodes when some are down, over every node when
        all are up (the fault that sent the unit back may have healed),
        and back to the last target when none is up or there is no view
        -- the unit then queues there until recovery."""
        view = self.manager._live
        node_index = self.node_index
        if view is not None:
            if 0 < view.live_count < view.node_count:
                indices = view.live_indices()
                node_index = indices[stream.randrange(len(indices))]
            elif view.live_count == view.node_count:
                node_index = stream.randrange(view.node_count)
        self._dispatch(node_index)

    def _bounce(self, _event) -> None:
        """Bounce delay elapsed: re-route on the observed view."""
        self._reroute(self.manager._detector_stream)

    def _unit_done(self, unit: WorkUnit) -> None:
        if unit is not self.current:
            # A timed-out attempt completing late: already retried.
            return
        # Settles the attempt's retry deadline, if it has one.
        self.current = None
        if unit.lost and self.manager._retry is not None:
            # The lost unit never reaches the parent frame.  (Without a
            # retry layer -- detector-only mode -- the loss passes through
            # below as the abort it is.)
            self._retry_or_fail()
            return
        self.parent_on_done(unit)

    def _retry_or_fail(self) -> None:
        manager = self.manager
        spec = manager._retry
        attempts = self.attempts
        if attempts >= spec.retry_limit:
            self.run.failed = True
            defer_continuation(manager.env, self.parent_on_done, _FAILED)
            return
        self.attempts = attempts + 1
        delay = spec.backoff_delay(self.attempts)
        if delay > 0.0:
            manager.env._sleep(delay, self._backoff)
        else:
            self._backoff(None)

    def _backoff(self, _event) -> None:
        """Backoff elapsed: resubmit one more attempt."""
        manager = self.manager
        manager.metrics.retries += 1
        self._reroute(manager._retry_stream)


class ProcessManager:
    """Coordinates global tasks across the independent nodes."""

    def __init__(
        self,
        env: Environment,
        nodes: Sequence[Node],
        assigner: DeadlineAssigner,
        metrics: MetricsCollector,
        fault_spec=None,
        live_set=None,
        retry_stream=None,
        detector_spec=None,
        detector_stream=None,
        unit_ids: Optional[Iterator[int]] = None,
    ) -> None:
        self.env = env
        self.nodes = nodes
        self.assigner = assigner
        self.metrics = metrics
        # Bound once for the per-leaf / per-stage hot paths.
        self._priority_class = assigner.psp.priority_class
        self._serial_deadline = assigner.serial_deadline
        self._parallel_deadline = assigner.parallel_deadline
        # Work-unit ids (display labels), shared with the simulation's
        # local sources; a manager built alone numbers its own.
        self._unit_ids = count(1) if unit_ids is None else unit_ids
        # Retry layer: armed only by a retry-enabled FaultSpec; the
        # fault-free (and retry-free) leaf path costs one None check.
        if fault_spec is not None and fault_spec.retries_enabled:
            self._retry = fault_spec
            self._retry_stream = retry_stream
        else:
            self._retry = None
            self._retry_stream = None
        # Misroute layer: armed only by an enabled DetectorSpec.
        if detector_spec is not None and detector_spec.enabled:
            self._detector = detector_spec
            self._detector_stream = detector_stream
        else:
            self._detector = None
            self._detector_stream = None
        # The liveness view both layers re-route on: the oracle LiveSet,
        # or the detector's observed one when a detector is configured.
        self._live = live_set
        #: Retry deadlines in launch order, ``(when, seq, attempt, unit)``;
        #: one timer is pending at the head's key while it is not empty.
        self._deadlines: Deque[
            Tuple[float, int, _LeafAttempt, WorkUnit]
        ] = deque()
        #: Number of global tasks submitted so far (for tracing/tests).
        self.submitted = 0

    # -- public API ----------------------------------------------------------

    def submit(self, tree: TaskNode, deadline: float) -> None:
        """Launch a global task with the given end-to-end deadline.

        The outcome is recorded in the metrics when the task completes
        or aborts; nothing is returned, and there is nothing to wait on.
        A deadline already in the past is permitted -- a soft real-time
        system may receive a task that is already hopeless.

        The tree is not validated here: the composite constructors
        already reject shared nodes, and the workload factories build
        every tree through them.  Call :meth:`TaskNode.validate` on a
        tree edited by hand before submitting it.
        """
        self.submitted += 1
        self.env._schedule_call(_TaskRun(self, tree, deadline)._start)

    def _expire(self, _event) -> None:
        """The oldest retry deadline is due: re-arm at the next live one,
        then time out the due attempt if it is still live.

        Deadlines whose attempt completed or timed out since are dropped
        here rather than cancelled when they settle.  Re-arming at the
        stored ``(when, seq)`` key keeps every expiry where a timer per
        attempt would have fired, including among same-instant events.
        """
        deadlines = self._deadlines
        _when, _seq, attempt, unit = deadlines.popleft()
        while deadlines:
            head = deadlines[0]
            if head[2].current is head[3]:
                self.env._sleep_at(head[0], head[1], self._expire)
                break
            deadlines.popleft()
        if attempt.current is unit:
            # Orphan the in-flight unit: if it completes later anyway,
            # the staleness check in ``_unit_done`` drops it.
            attempt.current = None
            attempt._retry_or_fail()

    # -- tree execution --------------------------------------------------------

    def _execute(
        self,
        node: TaskNode,
        window_arrival: float,
        window_deadline: float,
        run: _TaskRun,
        parent: _Continuation,
    ) -> None:
        """Launch one subtree; ``parent.child_done`` fires when it ends."""
        if isinstance(node, SimpleTask):
            self._submit_leaf(node, window_deadline, run, parent._on_unit)
        elif isinstance(node, SerialTask):
            _SerialFrame(
                self, node, run, parent, window_arrival, window_deadline
            )._advance()
        elif isinstance(node, ParallelTask):
            self._fork_parallel(node, window_deadline, run, parent)
        else:
            raise TypeError(
                f"cannot execute task node of type {type(node).__name__}"
            )

    def _submit_leaf(
        self,
        leaf: SimpleTask,
        deadline: float,
        run: _TaskRun,
        on_done,
    ) -> None:
        """Turn a leaf into a work unit at its node; ``on_done`` fires at
        completion (or discard) with the unit as the event value."""
        node_index = leaf.node_index
        if node_index is None:
            raise ValueError(
                f"leaf {leaf.name!r} has no node assignment; the workload "
                "factory must route every simple subtask"
            )
        if self._retry is not None or self._detector is not None:
            _LeafAttempt(self, leaf, deadline, run, on_done).launch()
            return
        env = self.env
        timing = fast_timing(
            ar=env._now,
            ex=leaf.ex,
            pex=leaf.pex,
            dl=deadline,
        )
        leaf.timing = timing
        # Positional: a keyword call to a class builds a kwargs dict
        # (CPython 3.11), which doubles the cost of this per-subtask call.
        unit = WorkUnit(
            leaf.name, TaskClass.GLOBAL, node_index, timing,
            self._priority_class, run.deadline, on_done,
            next(self._unit_ids),
        )
        self.nodes[node_index].submit(unit)

    def _fork_parallel(
        self,
        node: ParallelTask,
        window_deadline: float,
        run: _TaskRun,
        parent: _Continuation,
    ) -> None:
        """Fork all branches at once under a counting join."""
        children = node.children
        fork_time = self.env._now
        fan_out = len(children)
        parallel_deadline = self._parallel_deadline
        frame = _ParallelFrame(parent, fan_out)
        on_unit = frame._on_unit  # one bound method, shared by the branches
        for i, child in enumerate(children):
            is_leaf = type(child) is SimpleTask
            deadline = parallel_deadline(
                fan_out=fan_out,
                index=i,
                pex=child.pex if is_leaf else child.total_pex(),
                now=fork_time,
                window_deadline=window_deadline,
            )
            if is_leaf:
                self._submit_leaf(child, deadline, run, on_unit)
            else:
                self._execute(
                    child,
                    window_arrival=fork_time,
                    window_deadline=deadline,
                    run=run,
                    parent=frame,
                )
