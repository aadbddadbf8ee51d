"""A processing node: one resource with its own real-time scheduler.

Each node (Sec. 3.2) models a system component -- database, expert system,
compute engine, even a network hop -- with a non-preemptive server and a
ready queue ordered by a :class:`~repro.system.schedulers.SchedulingPolicy`.
Nodes are fully independent: they share no state and never coordinate,
matching the paper's "open system" assumption.

The server sleeps while the queue is empty, picks the highest-priority
unit otherwise, optionally consults the overload policy
(abort-at-dispatch), serves the unit for its *real* execution time, and
schedules the unit's ``on_done`` continuation (a unit without one is
dropped once its outcome is recorded).

Hot-path notes
--------------

The server executes once per work unit for the entire run, so it is
written for speed: it is a callback-driven state machine (dispatching
directly from submissions and service-completion events, with no
generator process, no coroutine switch, and no idle-wakeup event),
collaborator state is bound once, the overload hook is skipped entirely
under the ``NoAbort`` baseline, trace calls are guarded by a tracer
``None`` check (tracing off must cost nothing), monitor updates are
inlined, and a completion schedules an event only for units whose
submitter installed an ``on_done`` continuation.  The preemptive
subclass is a callback machine too, built on cancellable kernel timers
(see :mod:`repro.system.preemptive`); no node kind runs a generator
server.

A fleet holds one node per component (100k in the fleet scenarios), so
a node is also written to be small: one object the garbage collector
tracks, the node itself.  What every node of a run reads alike -- the
environment, the collector, the scheduling policy and its queue key,
the FIFO tie-break counter, the overload hook, the outstanding-count
listener and the crash semantics -- lives in one :class:`NodeShared`
that the simulation builds once and each node points at.  The ready
heap is a list only once the node gets work: until its first submit
the node holds the shared empty tuple ``_NO_WORK`` (a fleet under
least-outstanding placement leaves most nodes idle).  The ready queue
is inlined (:class:`~repro.system.schedulers.ReadyQueue` is the
reference), and the node is its own wake-up event: its class-level
``callback`` is the dispatch step, so a wake pushes the node itself
onto the kernel's urgent deque (or, for the preemptive node, the heap).
Every tracked object a node adds is one more object each full
collection walks, and it moves the point where the next full
collection lands.  The node's time-weighted signals (queue length,
busy, down) are float slots on the node itself, which the collector
reads from the node list its caller passes in.

References point outward from a node, to its ``NodeShared`` and the
work it holds, and nothing it reaches lists the nodes.  The one way
back is the service timer the node keeps for a crash or a preemption
to cancel (its callback is the bound ``_complete``); releasing the
environment at the end of a run clears that callback.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from operator import attrgetter
from typing import Iterable, Optional, Set

from ..sim.core import NORMAL, Environment
from .metrics import MetricsCollector
from .overload import NoAbort, OverloadPolicy
from .schedulers import SchedulingPolicy
from .work import WorkUnit

#: The ready heap of a node that has never had work.  Every ``heappush``
#: site swaps in a list on first use; ``len``, truthiness and iteration
#: work on the tuple as they do on an empty list.
_NO_WORK: tuple = ()


class NodeShared:
    """What every node of one run reads alike, held once per run.

    A :class:`~repro.system.simulation.Simulation` builds one and each of
    its nodes points at it; a node built alone makes its own.  The
    outstanding-count listener and the crash semantics are set after
    construction, once per run, by the least-outstanding placement and
    the fault injector.  Apart from that listener, a bound method of the
    placement that is called with the node whose count moved, it reaches
    no simulation, process manager, node list or random stream.
    """

    __slots__ = (
        "env", "metrics", "policy", "queue_key", "queue_seq",
        "abort_check", "outstanding_listener",
        "lose_in_flight", "drop_queued", "preempt_counts",
    )

    def __init__(
        self,
        env: Environment,
        metrics: MetricsCollector,
        policy: SchedulingPolicy,
        overload_policy: Optional[OverloadPolicy] = None,
    ) -> None:
        self.env = env
        self.metrics = metrics
        # The inlined ready queue's policy key (a C-level ``fast_key``
        # when the policy has one) and FIFO tie-break counter.  Heap
        # entries are only compared within one node's heap, and a shared
        # counter is still monotone within each heap, so sharing it
        # leaves every dispatch order unchanged.
        self.policy = policy
        self.queue_key = getattr(policy, "fast_key", None) or policy.key
        self.queue_seq = itertools.count()
        # The overload hook is skipped entirely under the NoAbort baseline.
        self.abort_check = (
            None
            if overload_policy is None or type(overload_policy) is NoAbort
            else overload_policy.should_abort_at_dispatch
        )
        #: Outstanding-count change hook (``None`` keeps the hot path at
        #: one pointer check, the tracer discipline).  An incremental
        #: placement policy (least-outstanding) binds this to learn of
        #: every submit/complete/crash/recover (called with the node).
        self.outstanding_listener = None
        #: Crash semantics (inert unless a FaultInjector attaches).
        self.lose_in_flight = True
        self.drop_queued = False
        #: The collector's measured-window preemption counters (zeroed in
        #: place at the warm-up reset), read by the preemptive node.
        self.preempt_counts = metrics.node_preemptions


def shared_states(nodes: Iterable["Node"]) -> Set[NodeShared]:
    """The distinct per-run objects behind ``nodes``: one for the nodes
    of a simulation, one per node for nodes built alone."""
    return set(map(attrgetter("_shared"), nodes))


def drop_continuations(nodes: Iterable["Node"]) -> None:
    """Clear ``on_done`` on every unit ``nodes`` hold, in service or
    queued, once their run is over: a continuation reaches the process
    manager and through it the node list, a reference cycle.  What the
    nodes report (``queue_length``, ``busy``) does not change."""
    for node in nodes:
        serving = node._serving
        if serving is not None:
            serving.on_done = None
        for entry in node._heap:
            entry[3].on_done = None


class Node:
    """One independent processing component with its own scheduler."""

    # No instance dict: a fleet holds one node per component (100k in the
    # fleet scenarios), and past 30 attributes CPython stops sharing
    # instance-dict keys, so each node would carry a private dict and
    # lose the fast attribute loads on the server hot paths.
    __slots__ = (
        "index", "speed", "_shared", "_heap",
        "_busy", "_serving", "_wake_pending",
        "_up", "_sleep", "_service_end", "_frozen_left",
        "_q_value", "_q_area", "_q_last",
        "_b_value", "_b_area", "_b_last",
        "_d_value", "_d_area", "_d_last",
    )

    def __init__(
        self,
        env: Environment,
        index: int,
        policy: SchedulingPolicy,
        metrics: MetricsCollector,
        overload_policy: Optional[OverloadPolicy] = None,
        speed: float = 1.0,
        *,
        shared: Optional[NodeShared] = None,
    ) -> None:
        if not (math.isfinite(speed) and speed > 0):
            raise ValueError(
                f"node speed must be positive and finite, got {speed}"
            )
        if shared is None:
            shared = NodeShared(env, metrics, policy, overload_policy)
        elif (
            shared.env is not env
            or shared.metrics is not metrics
            or shared.policy is not policy
            or overload_policy is not None
        ):
            raise ValueError(
                "a node built on a NodeShared takes its environment, "
                "collector, policy and overload policy from it"
            )
        self.index = index
        #: Service-speed factor (heterogeneous-hardware scenarios): a unit
        #: with demand ``ex`` occupies the server for ``ex / speed``.  The
        #: homogeneous baseline keeps the exact ``timing.ex`` sleep (no
        #: division), so fixed-seed results are bit-identical.
        self.speed = speed
        self._shared = shared
        # The inlined ready queue (ReadyQueue is the reference); a list
        # from the first submit on.
        self._heap = _NO_WORK
        self._busy = False
        self._serving: Optional[WorkUnit] = None
        self._wake_pending = False
        # Fault machinery (inert unless a FaultInjector attaches): the
        # up/down flag, the retained in-service timer (so a crash can
        # revoke it), and its absolute expiry (so "resume" semantics know
        # the remaining service).
        self._up = True
        self._sleep = None
        self._service_end = 0.0
        self._frozen_left = -1.0  # >= 0 while a frozen unit awaits recovery
        # The node's time-weighted signals (queue length, busy, down) as
        # float slots: value, area since the warm-up end, time of the
        # last update.  The hot loops below update them with the exact
        # arithmetic of the inlined ``TimeWeighted`` updates; the
        # collector reads and resets them on the node list its caller
        # passes to ``reset`` and ``snapshot``.
        self._q_value = self._q_area = self._q_last = 0.0
        self._b_value = self._b_area = self._b_last = 0.0
        self._d_value = self._d_area = self._d_last = 0.0

    # -- submission ---------------------------------------------------------

    def submit(self, unit: WorkUnit) -> None:
        """Enqueue ``unit``; its ``on_done`` (if any) runs when it ends.

        The unit's ``timing.ar`` must be the current time (it is the
        submission instant by definition), and its deadline must already be
        assigned by the SDA strategy.
        """
        if unit.node_index != self.index:
            raise ValueError(
                f"{unit!r} routed to node {self.index}, expected "
                f"{unit.node_index}"
            )
        shared = self._shared
        heap = self._heap
        if heap is _NO_WORK:
            heap = self._heap = []
        # Inlined ReadyQueue.push (see schedulers.py for the reference).
        heappush(
            heap,
            (
                unit.priority_class,
                shared.queue_key(unit),
                next(shared.queue_seq),
                unit,
            ),
        )
        now = shared.env._now
        index = self.index
        # Inlined queue increment(1, now).
        old = self._q_value
        self._q_area += old * (now - self._q_last)
        self._q_last = now
        self._q_value = old + 1.0
        if shared.metrics._tracer is not None:
            shared.metrics._tracer.record(now, "submit", unit, index)
        listener = shared.outstanding_listener
        if listener is not None:
            listener(self)
        # Wake the idle server.  The dispatch is deferred by one urgent
        # event rather than run synchronously so that submissions landing
        # at the same simulation instant are scheduled as a batch -- the
        # policy (EDF, MLF) must order simultaneous arrivals, not
        # submission order.  Urgent priority keeps the classic semantics
        # that an idle server starts earlier-submitted work before
        # bookkeeping scheduled afterwards (e.g. a pre-run blocker must
        # enter service before a process manager launched after it can
        # slip a later unit in front).
        if not self._busy and not self._wake_pending and self._up:
            self._wake_pending = True
            # Inlined urgent _schedule_call with the node as its own wake
            # event: no allocation, no heap entry.
            shared.env._urgent.append(self)

    @property
    def busy(self) -> bool:
        """True while the server is executing a unit."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of units waiting (not including the one in service)."""
        return len(self._heap)

    def _push(self, unit: WorkUnit) -> None:
        """Enqueue ``unit`` in the ready heap (cold paths; ``submit``
        inlines this, and :meth:`ReadyQueue.push` is the reference)."""
        shared = self._shared
        heap = self._heap
        if heap is _NO_WORK:
            heap = self._heap = []
        heappush(
            heap,
            (
                unit.priority_class,
                shared.queue_key(unit),
                next(shared.queue_seq),
                unit,
            ),
        )

    # -- server state machine -------------------------------------------------

    def _dispatch_next(self, _event=None) -> None:
        """Serve the highest-priority queued unit, or go idle.

        Runs from the deferred idle wake (as the node's event callback,
        with the node itself as ``_event``, clearing ``_wake_pending`` on
        entry, which is a no-op on the other paths since a wake is only
        ever pending while the server is idle) and from the completion
        callback; immediate aborts drain in the loop without touching the
        event list.
        """
        self._wake_pending = False
        if not self._up:
            return
        heap = self._heap
        if not heap:
            return
        shared = self._shared
        env = shared.env
        index = self.index
        metrics = shared.metrics
        abort_check = shared.abort_check
        while heap:
            unit = heappop(heap)[3]
            now = env._now
            # Inlined queue increment(-1, now).
            old = self._q_value
            self._q_area += old * (now - self._q_last)
            self._q_last = now
            self._q_value = old - 1.0
            metrics.node_dispatched[index] += 1
            timing = unit.timing

            if abort_check is not None and abort_check(unit, now):
                timing.aborted = True
                if metrics._tracer is not None:
                    metrics._tracer.record(now, "abort", unit, index)
                metrics.record_unit_completion(unit)
                listener = shared.outstanding_listener
                if listener is not None:
                    listener(self)
                on_done = unit.on_done
                if on_done is not None:
                    env._schedule_call(
                        on_done, value=unit, priority=NORMAL
                    )
                continue

            self._busy = True
            self._serving = unit
            # Inlined busy update(1, now): the 0 -> 1 edge adds no area
            # (the signal was 0), so only the bookkeeping fields move.
            self._b_last = now
            self._b_value = 1.0
            timing.started_at = now
            if metrics._tracer is not None:
                metrics._tracer.record(now, "dispatch", unit, index)
            speed = self.speed
            service = timing.ex if speed == 1.0 else timing.ex / speed
            # Inlined env._sleep(service, self._complete): the service
            # timer is armed once per dispatched unit, and the method
            # frame alone is measurable at that rate.
            pool = env._sleep_pool
            if pool and service >= 0.0:
                sleep = pool.pop()
                sleep.callback = self._complete
                sleep._processed = False
                heappush(
                    env._queue,
                    (env._now + service, env._next_seq(), sleep),
                )
            else:
                sleep = env._sleep(service, self._complete)
            # Retained so a crash can revoke the completion; the expiry
            # stamp is what "frozen-and-resumed" semantics restart from.
            self._sleep = sleep
            self._service_end = now + service
            return

    #: The node is its own idle wake-up event: the kernel calls
    #: ``event.callback(event)``, so queueing the node runs
    #: ``self._dispatch_next(self)``.  ``_wake_pending`` guarantees at
    #: most one queued wake per node.
    callback = _dispatch_next

    def _complete(self, _event) -> None:
        """Service interval elapsed: record the outcome, serve the next."""
        unit = self._serving
        self._serving = None
        self._sleep = None
        shared = self._shared
        metrics = shared.metrics
        index = self.index
        env = shared.env
        now = env._now
        timing = unit.timing
        timing.completed_at = now
        self._busy = False
        # Inlined busy update(0, now): the 1 -> 0 edge accumulates one
        # service interval of area (1.0 * dt == dt exactly).
        self._b_area += now - self._b_last
        self._b_last = now
        self._b_value = 0.0
        if metrics._tracer is not None:
            metrics._tracer.record(now, "complete", unit, index)
        metrics.record_unit_completion(unit)
        listener = shared.outstanding_listener
        if listener is not None:
            listener(self)
        on_done = unit.on_done
        if on_done is not None:
            # Deferred as a NORMAL heap entry (one sequence key) so the
            # continuation cannot reorder the node's own next dispatch or
            # any other same-instant event.
            env._schedule_call(on_done, value=unit, priority=NORMAL)
        self._dispatch_next()

    # -- fault machinery ------------------------------------------------------

    @property
    def up(self) -> bool:
        """True while the node is operational (always, without faults)."""
        return self._up

    def configure_fault_semantics(
        self, lose_in_flight: bool, drop_queued: bool
    ) -> None:
        """Set what a crash does to in-flight and queued work, for every
        node that shares this node's :class:`NodeShared`."""
        shared = self._shared
        shared.lose_in_flight = lose_in_flight
        shared.drop_queued = drop_queued

    def crash(self) -> None:
        """Take the node down, revoking the in-service timer.

        The in-flight unit is either discarded (``in_flight="lost"``) or
        frozen with its remaining demand (``"resume"``); queued units are
        discarded when ``queued="dropped"``.  Crash timers are plain heap
        events, so the kernel's urgent deque is empty here and no wake can
        be pending for the base node.
        """
        self._up = False
        shared = self._shared
        now = shared.env._now
        if self._busy:
            self._sleep.cancel()
            self._sleep = None
            self._busy = False
            # Inlined busy update(0, now): the 1 -> 0 edge accumulates the
            # partial service interval of area.
            self._b_area += now - self._b_last
            self._b_last = now
            self._b_value = 0.0
            unit = self._serving
            if shared.lose_in_flight:
                self._serving = None
                self._discard_lost(unit, now)
            else:
                # Freeze: keep ``_serving`` and remember the remaining
                # service so recovery can restart the timer.
                left = self._service_end - now
                self._frozen_left = left if left > 0.0 else 0.0
        if shared.drop_queued:
            heap = self._heap
            if heap:
                count = len(heap)
                for entry in heap:
                    self._discard_lost(entry[3], now)
                heap.clear()
                self._queue_increment(-count, now)
        listener = shared.outstanding_listener
        if listener is not None:
            listener(self)

    def recover(self) -> None:
        """Bring the node back up and resume or re-dispatch work."""
        self._up = True
        shared = self._shared
        env = shared.env
        now = env._now
        if self._frozen_left >= 0.0:
            left = self._frozen_left
            self._frozen_left = -1.0
            self._busy = True
            # Inlined busy update(1, now): 0 -> 1 edge adds no area.
            self._b_last = now
            self._b_value = 1.0
            self._service_end = now + left
            self._sleep = env._sleep(left, self._complete)
        elif self._heap and not self._wake_pending:
            self._wake_pending = True
            env._urgent.append(self)
        listener = shared.outstanding_listener
        if listener is not None:
            listener(self)

    def _queue_increment(self, delta: float, now: float) -> None:
        """Shift the queue-length signal by ``delta`` (cold paths).

        Exact ``TimeWeighted.increment`` arithmetic; the hot loops inline
        this instead of calling it.
        """
        old = self._q_value
        self._q_area += old * (now - self._q_last)
        self._q_last = now
        self._q_value = old + delta

    def set_down_signal(self, value: float, now: float) -> None:
        """Set the 0/1 down signal to ``value`` at ``now``.

        Exact ``TimeWeighted.update`` arithmetic, called by the fault
        injector around ``crash``/``recover``.
        """
        last = self._d_last
        if now < last:
            raise ValueError(
                f"time went backwards: {now} < {last} in node {self.index}"
            )
        self._d_area += self._d_value * (now - last)
        self._d_last = now
        self._d_value = value

    def _discard_lost(self, unit: WorkUnit, now: float) -> None:
        """Account a crash-discarded unit and hand it to its continuation.

        The unit completes as aborted *and* marked ``lost`` so the retry
        layer in the process manager can tell crash losses apart from
        overload aborts (only the former are retried).
        """
        timing = unit.timing
        timing.aborted = True
        unit.lost = True
        shared = self._shared
        metrics = shared.metrics
        index = self.index
        metrics.node_lost[index] += 1
        if metrics._tracer is not None:
            metrics._tracer.record(now, "lost", unit, index)
        metrics.record_unit_completion(unit)
        on_done = unit.on_done
        if on_done is not None:
            shared.env._schedule_call(on_done, value=unit, priority=NORMAL)

    def __repr__(self) -> str:
        return (
            f"<Node {self.index} policy={self._shared.policy.name} "
            f"queued={len(self._heap)} busy={self._busy}>"
        )
