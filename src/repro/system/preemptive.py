"""Preemptive-resume node: an ablation of the paper's non-preemption model.

The paper's system model fixes "some real-time scheduling algorithm with no
preemption" (Sec. 4.1).  Non-preemption is realistic for database
operations or network transmissions, but many components (CPU schedulers)
do preempt.  :class:`PreemptiveNode` implements preemptive-resume service:
when a unit arrives whose priority (per the node's policy, including the
Globals-First class) beats the unit in service, the service timer is
cancelled, the preempted unit returns to the ready queue with only its
*remaining* execution demand, and service continues with the newcomer.

This is an extension, not part of the reproduction proper; the ablation
bench (``benchmarks/bench_preemptive.py``) measures how much of the
paper's story depends on non-preemption.

Semantics:

* ``started_at`` records the *first* time a unit received service (waiting
  time keeps its meaning);
* preemption happens only when the arrival's priority is *strictly* higher
  -- ties never preempt, so FIFO determinism is preserved;
* any burst of same-instant higher-priority arrivals causes exactly ONE
  preemption: the re-dispatch picks the best queued unit, so further
  interrupts would only charge spurious preemptions (this was a real bug
  in the old generator server, which queued one interrupt per arrival);
* remaining demand is clamped at zero: a preemption landing exactly at
  the completion instant can compute ``consumed > demand`` by a float
  ulp, and a negative remainder must not become a negative timer delay;
* with a ``speed`` factor ``s``, a unit with remaining demand ``d``
  occupies the server for ``d / s``; on preemption the demand consumed is
  ``elapsed * s``.  Remaining demand is bookkept in demand units, so a
  unit preempted on one node would re-dispatch correctly at any speed
  (nodes keep their own queues, so in practice it re-dispatches here);
* the overload policy is still consulted only at (re-)dispatch, never
  mid-service.

Like its base class, the server is a callback state machine.  Dispatch
schedules a pooled, *cancellable* completion timer
(:meth:`repro.sim._engine._Sleep.cancel`); preemption cancels it, computes
the remaining demand, re-enqueues the unit, and re-dispatches, all in one
urgent callback.  The node is its own event twice over: the idle
wake-up is the node as a NORMAL-priority heap entry, which consumes one
event-list sequence number, and the preemption poke is the node on the
kernel's urgent deque (see :mod:`repro.sim._engine`); the golden
determinism gate pins that event order.  The two are never queued at
once -- a wake is only pending while the server is idle, a poke only
while it serves -- so ``_preempt_pending`` tells them apart.
"""

from __future__ import annotations

from heapq import heappop, heappush
from types import MappingProxyType
from typing import Mapping, Optional

from ..sim.core import NORMAL, Environment
from .metrics import MetricsCollector
from .node import _NO_WORK, Node, NodeShared
from .overload import OverloadPolicy
from .schedulers import SchedulingPolicy
from .work import WorkUnit


#: The remaining-demand mapping of a node that has never taken a unit
#: out of service: one shared read-only empty mapping (the way
#: ``_NO_WORK`` stands for an empty ready heap), swapped for a dict of
#: the node's own at its first preemption or frozen crash.
_NO_REMAINING: Mapping[WorkUnit, float] = MappingProxyType({})


class PreemptiveNode(Node):
    """A node whose server implements preemptive-resume scheduling."""

    # Only the attributes added here; a subclass without ``__slots__``
    # would give every instance a dict again (see ``Node.__slots__``).
    __slots__ = (
        "_remaining", "_preemptions", "_preempt_pending",
        "_service_began", "_service_demand",
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
        #: Remaining service demand (in demand units, not wall time) of
        #: units that have been preempted at least once, keyed by the
        #: unit.  Units never seen here still need their full ``timing.ex``.
        self._remaining: Mapping[WorkUnit, float] = _NO_REMAINING
        self._preemptions = 0
        #: True between scheduling the urgent preemption poke and handling
        #: it.  Guards against the double-interrupt bug: two same-instant
        #: higher-priority arrivals must cause ONE preemption, not a
        #: second poke that charges a spurious preemption to the unit
        #: dispatched by the first.  It also tells the node's event
        #: callback that it fired as the poke, not as the idle wake.
        self._preempt_pending = False
        #: The cancellable completion timer of the unit in service.
        self._sleep = None
        self._service_began = 0.0
        self._service_demand = 0.0
        super().__init__(
            env, index, policy, metrics, overload_policy, speed,
            shared=shared,
        )

    @property
    def preemptions(self) -> int:
        """Number of preemption events at this node (for diagnostics)."""
        return self._preemptions

    def submit(self, unit: WorkUnit) -> None:
        """Enqueue a unit; wake the idle server or preempt the one in
        service.

        Same inlined enqueue as the base class; the differences are the
        NORMAL-priority idle wake (the generator server's wakeup event
        fired at NORMAL, and the golden gate pins that ordering) and the
        preemption check against the unit in service.
        """
        if unit.node_index != self.index:
            raise ValueError(
                f"{unit!r} routed to node {self.index}, expected "
                f"{unit.node_index}"
            )
        shared = self._shared
        queue_key = shared.queue_key
        heap = self._heap
        if heap is _NO_WORK:
            heap = self._heap = []
        # Inlined ReadyQueue.push (see schedulers.py for the reference).
        heappush(
            heap,
            (
                unit.priority_class,
                queue_key(unit),
                next(shared.queue_seq),
                unit,
            ),
        )
        env = shared.env
        now = env._now
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
        if not self._busy:
            # Deferred dispatch, one NORMAL event: same-instant
            # submissions are scheduled as a batch, ordered by the policy.
            # Inlined NORMAL-priority _schedule_call with the node as its
            # own wake event (the generator server's wakeup fired at
            # NORMAL, and the golden gate pins that ordering): same time
            # and sequence consumption, no allocation.
            if not self._wake_pending and self._up:
                self._wake_pending = True
                heappush(env._queue, (now, env._next_seq(), self))
            return
        serving = self._serving
        if serving is not None and not self._preempt_pending:
            # Strictly-higher priority preempts: lexicographic
            # (priority_class, queue key) comparison -- the same key the
            # ready queue orders by -- short-circuited to skip the key
            # calls on the common class tie-break miss.
            arriving_class = unit.priority_class
            serving_class = serving.priority_class
            if arriving_class < serving_class or (
                arriving_class == serving_class
                and queue_key(unit) < queue_key(serving)
            ):
                # One urgent poke per preemption decision: the re-dispatch
                # re-picks the best queued unit, so further same-instant
                # arrivals need no second poke (see ``_preempt_pending``).
                # Scheduling inlines the urgent ``_schedule_call`` with
                # the node as its own poke event: straight onto the
                # kernel's urgent deque, no allocation, no heap entry.
                self._preempt_pending = True
                self._preemptions += 1
                # Separate measured-window counter (reset at warm-up):
                # feeds NodeStats.preemptions so sweeps can rank by
                # preemption rate; ``self._preemptions`` stays the
                # lifetime diagnostic the node repr shows.
                shared.preempt_counts[index] += 1
                env._urgent.append(self)

    # -- server state machine ------------------------------------------------

    def _dispatch_next(self, _event=None) -> None:
        """Serve the highest-priority queued unit (for its *remaining*
        demand, scaled by the node speed), or go idle.

        Runs from the idle wake (through the node's event ``callback``,
        clearing ``_wake_pending`` on entry like the base class), the
        completion callback, and the preemption poke; immediate aborts
        drain in the loop without touching the event list.
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
        tracer = metrics._tracer
        dispatched = metrics.node_dispatched
        abort_check = shared.abort_check
        remaining = self._remaining
        while heap:
            unit = heappop(heap)[3]
            now = env._now
            # Inlined queue increment(-1, now).
            old = self._q_value
            self._q_area += old * (now - self._q_last)
            self._q_last = now
            self._q_value = old - 1.0
            dispatched[index] += 1
            timing = unit.timing

            if abort_check is not None and abort_check(unit, now):
                timing.aborted = True
                if remaining:
                    remaining.pop(unit, None)
                if tracer is not None:
                    tracer.record(now, "abort", unit, index)
                metrics.record_unit_completion(unit)
                listener = shared.outstanding_listener
                if listener is not None:
                    listener(self)
                on_done = unit.on_done
                if on_done is not None:
                    env._schedule_call(on_done, value=unit, priority=NORMAL)
                continue

            demand = remaining.get(unit, timing.ex)
            if timing.started_at is None:
                timing.started_at = now
            self._busy = True
            self._serving = unit
            # Inlined busy update(1, now): the 0 -> 1 edge adds no area
            # (the signal was 0), so only the bookkeeping fields move.
            self._b_last = now
            self._b_value = 1.0
            if tracer is not None:
                tracer.record(now, "dispatch", unit, index)
            self._service_began = now
            self._service_demand = demand
            speed = self.speed
            # The homogeneous path keeps the exact ``demand`` delay (no
            # division), so fixed-seed results are bit-identical.
            service = demand if speed == 1.0 else demand / speed
            # Inlined env._sleep(service, self._complete), keeping the
            # cancellable timer (cf. Node._dispatch_next).
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
            self._sleep = sleep
            return

    def callback(self, _event) -> None:
        """The node's event step: the preemption poke while one is
        pending, otherwise the idle wake (see ``Node.callback``)."""
        if self._preempt_pending:
            self._preempt()
        else:
            self._dispatch_next()

    def _preempt(self) -> None:
        """Urgent preemption poke: revoke the completion timer, bookkeep
        the remaining demand, re-enqueue the preempted unit, re-dispatch.

        The timer is always still pending here: the poke is an URGENT
        event scheduled at the submission instant, so it runs before a
        completion landing at the same time (and a completion at an
        earlier time would have cleared ``_serving`` first, making the
        submission take the non-preempting path).
        """
        self._preempt_pending = False
        unit = self._serving
        self._serving = None
        shared = self._shared
        now = shared.env._now
        self._sleep.cancel()
        self._sleep = None
        speed = self.speed
        elapsed = now - self._service_began
        consumed = elapsed if speed == 1.0 else elapsed * speed
        self._hold(unit, self._service_demand - consumed)
        self._busy = False
        index = self.index
        # Inlined busy update(0, now): the 1 -> 0 edge accumulates one
        # partial service interval of area (1.0 * dt == dt exactly).
        self._b_area += now - self._b_last
        self._b_last = now
        self._b_value = 0.0
        tracer = shared.metrics._tracer
        if tracer is not None:
            tracer.record(now, "preempt", unit, index)
        # Put the preempted unit back; the newcomer (already queued by
        # submit) wins the re-dispatch.  Preemption is not the per-unit
        # hot path, so this takes the ``_push`` helper rather than
        # submit's inlined copy -- same arithmetic.  The
        # outstanding count is unchanged (busy -1, queue +1), so no
        # listener notification is needed.
        self._push(unit)
        self._queue_increment(1, now)
        self._dispatch_next()

    def _complete(self, _event) -> None:
        """Service interval elapsed: scrub the preemption bookkeeping,
        then record the outcome and serve the next like the base class."""
        self._sleep = None
        remaining = self._remaining
        if remaining:
            remaining.pop(self._serving, None)
        Node._complete(self, _event)

    def _hold(self, unit: WorkUnit, left: float) -> None:
        """Record ``unit``'s demand still to serve as it leaves service."""
        remaining = self._remaining
        if remaining is _NO_REMAINING:
            remaining = self._remaining = {}
        # Clamp: when the preemption lands exactly at the completion
        # instant, ``now - began`` can exceed the demand by a float ulp,
        # and a negative remainder would become a negative timer delay.
        remaining[unit] = left if left > 0.0 else 0.0

    # -- fault machinery ------------------------------------------------------

    def crash(self) -> None:
        """Take the node down; the preemptive freeze converts the in-flight
        unit to remaining-demand bookkeeping.

        ``in_flight="resume"`` here re-queues the frozen unit with its
        remaining demand (the node already knows how to resume partial
        work) *after* the base class applies the queue-drop policy, so
        resume semantics protect the in-flight unit even when the queue is
        dropped.  ``_preempt_pending`` is always False here: crash timers
        are heap events and the urgent deque drains first.
        """
        shared = self._shared
        now = shared.env._now
        held = None
        if self._busy:
            self._sleep.cancel()
            self._sleep = None
            unit = self._serving
            self._serving = None
            self._busy = False
            # Inlined busy update(0, now): 1 -> 0 edge accumulates the
            # partial service interval of area.
            self._b_area += now - self._b_last
            self._b_last = now
            self._b_value = 0.0
            if shared.lose_in_flight:
                self._discard_lost(unit, now)
            else:
                speed = self.speed
                elapsed = now - self._service_began
                consumed = elapsed if speed == 1.0 else elapsed * speed
                self._hold(unit, self._service_demand - consumed)
                held = unit
        Node.crash(self)  # _busy is False now: handles the queue drop only
        if held is not None:
            self._push(held)
            self._queue_increment(1, now)
            # The base-class crash already notified the listener; notify
            # again so the re-queued frozen unit is counted (the touch
            # reconciles against current state, so the repeat is safe).
            listener = shared.outstanding_listener
            if listener is not None:
                listener(self)

    def _discard_lost(self, unit: WorkUnit, now: float) -> None:
        """Scrub the unit's preemption bookkeeping, then discard it like
        the base class.  Covers queued drops too: ``_remaining`` is keyed
        by the unit, so a stale entry would keep a lost unit alive."""
        remaining = self._remaining
        if remaining:
            remaining.pop(unit, None)
        Node._discard_lost(self, unit, now)

    def recover(self) -> None:
        """Bring the node back up; queued work (including any frozen unit,
        now carrying remaining demand) re-dispatches via the NORMAL wake."""
        self._up = True
        shared = self._shared
        if self._heap and not self._wake_pending:
            self._wake_pending = True
            env = shared.env
            heappush(env._queue, (env._now, env._next_seq(), self))
        listener = shared.outstanding_listener
        if listener is not None:
            listener(self)

    def __repr__(self) -> str:
        return (
            f"<PreemptiveNode {self.index} "
            f"policy={self._shared.policy.name} queued={len(self._heap)} "
            f"busy={self._busy} preemptions={self._preemptions}>"
        )
