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
Each leaf's completion (a lightweight kernel callback scheduled by the
node, see :attr:`~repro.system.work.WorkUnit.on_done`) drives the
next serial stage directly through a chain of small *continuation
frames*:

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

The paper does not model the manager's own resource consumption ("this
consumption can be considered as additional subtasks"); neither do we.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.strategies import DeadlineAssigner
from ..core.task import ParallelTask, SerialTask, SimpleTask, TaskClass, TaskNode
from ..core.timing import fast_timing
from ..sim.core import NORMAL, Environment, _Call
from .metrics import MetricsCollector
from .node import Node
from .schedulers import FifoCounter
from .work import WorkUnit


class _Continuation:
    """Shared leaf-completion plumbing for the coordination frames.

    Every frame exposes ``child_done(aborted)`` (called directly by child
    frames) and ``_on_unit`` (the kernel callback attached to leaf work
    units via :attr:`WorkUnit.on_done`; the event's value is the unit).
    """

    __slots__ = ()

    def _on_unit(self, event: _Call) -> None:
        self.child_done(event._value.timing.aborted)


class _TaskRun(_Continuation):
    """Root frame: one in-flight global task, start to outcome."""

    __slots__ = (
        "manager",
        "tree",
        "deadline",
        "arrival",
        "failed",
        "on_unit",
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
        self.on_unit = self._on_unit  # bound once; reused per leaf

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
                timing_missed=True, aborted=True, failed=self.failed, now=now
            )
        else:
            manager.metrics.record_global_completion(
                timing_missed=now > deadline,
                aborted=False,
                response_time=now - self.arrival,
                lateness=now - deadline,
                now=now,
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
        "on_unit",
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
        self.on_unit = self._on_unit  # bound once; reused per stage

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
            manager._submit_leaf(child, deadline, self.run, self.on_unit)
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

    __slots__ = ("parent", "remaining", "aborted", "on_unit")

    def __init__(self, parent: _Continuation, fan_out: int) -> None:
        self.parent = parent
        self.remaining = fan_out
        self.aborted = False
        self.on_unit = self._on_unit  # bound once; shared by all branches

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

    Continuation frames read ``event._value.timing.aborted`` off whatever
    the event carries; this object satisfies that contract without a real
    work unit (there is no unit -- the last attempt was lost or timed
    out, and no further attempt was made).
    """

    __slots__ = ()

    class _Timing:
        aborted = True
        completed_at = None

    timing = _Timing()
    lost = True

    def __reduce__(self) -> str:
        # Pickle by global reference so a restored checkpoint keeps the
        # singleton (frames only read attributes, but exactness is free).
        return "_FAILED"


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

    Misroute recovery (detector mode): placement routes on the
    *observed* :class:`~repro.system.detector.SuspicionView`, so a
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
        "timer",
        "attempts",
        "redirects",
        "on_unit",
        "_on_timeout",
        "_on_backoff",
        "_on_bounce",
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
        self.timer = None
        self.attempts = 0
        self.redirects = 0
        self.on_unit = self._unit_done
        self._on_timeout = self._timeout
        self._on_backoff = self._backoff
        self._on_bounce = self._bounce

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
                env._sleep(detector.misroute_delay, self._on_bounce)
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
            manager._priority_class, self.run.deadline, self.on_unit,
            next(manager._unit_ids),
        )
        self.current = unit
        retry = manager._retry
        if retry is not None and retry.retry_timeout > 0.0:
            self.timer = env._sleep(retry.retry_timeout, self._on_timeout)
        manager.nodes[node_index].submit(unit)

    def _bounce(self, _event) -> None:
        """Bounce delay elapsed: re-route to a trusted node (or back to
        the original target when the whole view is suspected)."""
        manager = self.manager
        view = manager._observed
        node_index = self.node_index
        if 0 < view.live_count < view.node_count:
            indices = view.live_indices()
            node_index = indices[
                manager._detector_stream.randrange(len(indices))
            ]
        elif view.live_count == view.node_count:
            node_index = manager._detector_stream.randrange(view.node_count)
        self._dispatch(node_index)

    def _unit_done(self, event: _Call) -> None:
        unit = event._value
        if unit is not self.current:
            # A timed-out attempt completing late: already retried.
            return
        self.current = None
        timer = self.timer
        if timer is not None:
            timer.cancel()
            self.timer = None
        if unit.lost and self.manager._retry is not None:
            # The lost unit never reaches the parent frame.  (Without a
            # retry layer -- detector-only mode -- the loss passes through
            # below as the abort it is.)
            self._retry_or_fail()
            return
        self.parent_on_done(event)

    def _timeout(self, _event) -> None:
        self.timer = None
        if self.current is None:
            return
        # Orphan the in-flight unit: if it completes later anyway, the
        # staleness check in ``_unit_done`` drops it.
        self.current = None
        self._retry_or_fail()

    def _retry_or_fail(self) -> None:
        manager = self.manager
        spec = manager._retry
        attempts = self.attempts
        if attempts >= spec.retry_limit:
            self.run.failed = True
            manager.env._schedule_call(
                self.parent_on_done, value=_FAILED, priority=NORMAL
            )
            return
        self.attempts = attempts + 1
        delay = spec.backoff_delay(self.attempts)
        if delay > 0.0:
            manager.env._sleep(delay, self._on_backoff)
        else:
            self._backoff(None)

    def _backoff(self, _event) -> None:
        """Backoff elapsed: resubmit to a live node (or the original when
        the whole cluster is down -- the unit queues until recovery)."""
        manager = self.manager
        manager.metrics.retries += 1
        node_index = self.node_index
        live = manager._live
        if live is not None and 0 < live.live_count < live.node_count:
            indices = live.live_indices()
            node_index = indices[
                manager._retry_stream.randrange(len(indices))
            ]
        elif live is not None and live.live_count == live.node_count:
            # All up: spread retries uniformly too (the crash that lost
            # the unit may already have healed).
            node_index = manager._retry_stream.randrange(live.node_count)
        self._dispatch(node_index)


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
        unit_ids: Optional[FifoCounter] = None,
    ) -> None:
        self.env = env
        self.nodes = list(nodes)
        self.assigner = assigner
        self.metrics = metrics
        # Bound once for the per-leaf / per-stage hot paths.
        self._priority_class = assigner.psp.priority_class
        self._serial_deadline = assigner.serial_deadline
        self._parallel_deadline = assigner.parallel_deadline
        # Work-unit ids (display labels), shared with the simulation's
        # local sources; a manager built alone numbers its own.
        self._unit_ids = FifoCounter(1) if unit_ids is None else unit_ids
        # Retry layer: armed only by a retry-enabled FaultSpec; the
        # fault-free (and retry-free) leaf path costs one None check.
        # ``live_set`` is whatever liveness view the simulation routes
        # on: the oracle LiveSet, or the detector's SuspicionView when
        # a detector is configured (observed re-routing).
        if fault_spec is not None and fault_spec.retries_enabled:
            self._retry = fault_spec
            self._live = live_set
            self._retry_stream = retry_stream
        else:
            self._retry = None
            self._live = None
            self._retry_stream = None
        # Misroute layer: armed only by an enabled DetectorSpec.
        if detector_spec is not None and detector_spec.enabled:
            self._detector = detector_spec
            self._observed = live_set
            self._detector_stream = detector_stream
        else:
            self._detector = None
            self._observed = None
            self._detector_stream = None
        #: Number of global tasks submitted so far (for tracing/tests).
        self.submitted = 0

    # -- public API ----------------------------------------------------------

    def submit(self, tree: TaskNode, deadline: float) -> None:
        """Launch a global task with the given end-to-end deadline.

        The outcome is recorded in the metrics when the task completes
        or aborts; nothing is returned, and there is nothing to wait on.
        A deadline already in the past is permitted -- a soft real-time
        system may receive a task that is already hopeless -- but the
        tree must be well formed.
        """
        tree.validate()
        self.submitted += 1
        self.env._schedule_call(_TaskRun(self, tree, deadline)._start)

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
            self._submit_leaf(node, window_deadline, run, parent.on_unit)
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
        on_unit = frame.on_unit
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
