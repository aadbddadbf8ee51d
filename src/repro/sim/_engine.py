"""Monomorphic discrete-event engine core.

This module is the simulator's event list and run loop: the one engine
every model runs on.  ``repro.sim.core`` re-exports its public names.

Design rules
------------

* **Monomorphic final classes.**  Every class has ``__slots__``; the
  event path touches no properties, no ``**kwargs``, and no dynamic
  dispatch.  Every event carries exactly one callback: a completion
  reaches its consumer through that callback and nothing else -- there
  is no event anything can wait on.
* **What the event lists hold.**  The run loop tells only
  :class:`_Sleep` apart (it recycles those into the pool); any other
  entry is dispatched as ``event.callback(event)``.  So:

  - the heap holds pooled :class:`_Sleep` timers, NORMAL
    :class:`_Call` entries (``on_done`` continuations, the run-horizon
    sentinel), the workload sources, each its own next arrival, and
    preemptive nodes, each its own idle wake-up;
  - the urgent deque holds URGENT :class:`_Call` entries and the
    nodes: a non-preemptive node as its own idle wake-up, a preemptive
    node as its own preemption poke.

  A node or a source is not a :class:`_Sleep` and has a class-level
  ``callback`` (its dispatch or arrival step), so it needs no wrapper
  object and stores no bound method of itself; its owner guarantees
  that it is queued at most once at a time.
* **Plain tuples on the heap.**  An event-list entry is
  ``(time, seq, event)`` — a float, an int, an object — with a bare
  monotone sequence number as the FIFO tie-break.
* **The urgent queue is a deque, not heap entries.**  Kernel
  bookkeeping scheduled "at the current instant, ahead of normal
  events" (node wake-ups, preemption pokes, deferred continuations) never
  touches the heap: it lands on a FIFO deque drained before every heap
  pop.  This is order-equivalent to the old ``(time, URGENT, seq)``
  entries — an urgent event always beat every heap entry at the same
  timestamp, heap entries are never in the past, and the deque
  preserves schedule order — while skipping a heappush/heappop pair
  and a tuple per call.
* **Sleeps are pooled.**  The :class:`_Sleep` timers (service
  intervals, interarrival gaps — the dominant event traffic) are
  recycled by the run loop, so firing one is: pop, stamp the clock,
  recycle into the pool, call.
* **No exception machinery.**  Nothing on the event path raises for
  control flow: preemptive servers revoke service by cancelling a
  pooled sleep, not by interrupting anything.

Determinism contract: this restructuring is *order-equivalent* to the
pre-split kernel.  Urgent events no longer consume sequence numbers,
which relabels the normal events' keys monotonically — every pairwise
comparison between heap entries is unchanged, so fixed-seed runs are
bit-identical (pinned by ``tests/system/test_golden_determinism.py``
with no re-pin).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Deque, List, Optional, final

from .errors import EventLifecycleError, SimulationError, StopSimulation

#: Default priority for scheduled events.  Lower values fire earlier among
#: events scheduled for the same simulation time.
NORMAL = 1

#: Priority used for "urgent" bookkeeping events that must run before any
#: normal event at the same timestamp (e.g., node wake-ups).
URGENT = 0

#: Sequence key of the run-horizon sentinel: above any sequence number
#: the kernel will ever issue, so the sentinel sorts *after* every real
#: entry at the horizon timestamp (events due exactly at the horizon
#: still run, as the pre-split kernel's ``when > stop_at`` test allowed).
_HORIZON_KEY = 1 << 61

_INF = float("inf")

#: Every event calls exactly one callback, with the event itself as the
#: argument (a :class:`_Call` carries its payload in ``_value``).
Callback = Callable[[Any], None]


@final
class _Sleep:
    """A pooled one-shot timer: one callback, ``delay`` time units out.

    Created only via :meth:`Environment._sleep`.  When the run loop fires
    one of these it returns the object to the environment's pool for the
    next ``_sleep`` call, eliminating the allocations per service
    interval / interarrival gap that dominate event traffic.

    A sleep carries exactly **one** callback in the :attr:`callback`
    slot: arming costs one slot store, firing costs one call.  The
    contract: callers must not retain the sleep after it fires -- with
    one exception: the owner of the callback may :meth:`cancel` the sleep
    while it is still pending (this is how preemptive servers revoke a
    scheduled completion).
    """

    __slots__ = ("callback", "_processed")

    def __init__(
        self, env: "Environment", delay: float, callback: Callback
    ) -> None:
        # ``not >=`` rather than ``<``: a NaN delay must not pass.
        if not delay >= 0:
            raise ValueError(f"negative or NaN timeout delay: {delay!r}")
        self.callback: Optional[Callback] = callback
        self._processed = False
        heappush(env._queue, (env._now + delay, env._next_seq(), self))

    def cancel(self) -> None:
        """Defuse this pending sleep: its callback will never run.

        Deleting from the middle of a binary heap is O(n), so the heap
        entry stays where it is; when the run loop pops it at the
        original expiry time, the silenced sleep carries no callback and
        is recycled into the pool exactly like a fired sleep.  The object
        therefore returns to service automatically -- callers just drop
        their reference after cancelling.

        Only legal while the sleep is pending: cancelling a processed
        sleep raises.  That guard is best-effort, though -- it catches a
        stale cancel only until the pool re-issues the object, after
        which a retained reference is indistinguishable from the new
        owner's (a stale cancel would silently clear the new owner's
        callback).  The pool contract is the real protection: drop the
        reference once the sleep has fired or been cancelled.
        """
        if self._processed:
            raise EventLifecycleError(
                f"cannot cancel {self!r}: it has already been processed"
            )
        self.callback = None

    def __repr__(self) -> str:
        return f"<_Sleep {self.callback!r} at {id(self):#x}>"


@final
class _Call:
    """A bare single-callback bookkeeping event (``_schedule_call``).

    The kernel's "call this at the current time" primitive: deferred
    ``on_done`` continuations are one callback with a payload -- no
    lifecycle, no ``env`` backref.  Dispatching one is two slot reads
    and a call.  (Node wake-ups and preemption pokes need no ``_Call``:
    a node is its own event; see the module docstring.)

    Callers receiving a ``_Call`` as their event argument read the
    payload from ``_value``; nothing else is supported.  A long-lived
    caller may pool one instance and re-enqueue it after it fires --
    the callback slot is never detached, so re-arming is free (guard
    against double-enqueueing yourself).
    """

    __slots__ = ("callback", "_value")

    def __init__(self, callback: Callback, value: Any = None) -> None:
        self.callback = callback
        self._value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Call {self.callback!r} at {id(self):#x}>"


@final
class Environment:
    """Simulation clock and event list.

    Typical use::

        env = Environment()

        def done(_sleep):
            print("done at", env.now)

        env._sleep(5, done)
        env.run(until=100)
    """

    __slots__ = ("_now", "_queue", "_next_seq", "_urgent", "_sleep_pool")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        #: The event list: a binary heap of ``(time, seq, event)`` entries.
        self._queue: List[Any] = []
        #: Monotone sequence-key source for heap entries (FIFO among
        #: same-time events); bound ``count().__next__`` is the fastest
        #: interpreted increment.
        self._next_seq: Callable[[], int] = count().__next__
        #: Urgent bookkeeping calls due at the current instant, drained
        #: FIFO before every heap pop (see the module docstring for what
        #: it may hold).
        self._urgent: Deque[Any] = deque()
        self._sleep_pool: List[_Sleep] = []

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def _sleep(self, delay: float, callback: Callback) -> _Sleep:
        """Arm a pooled one-shot timer: ``callback(sleep)`` in ``delay``.

        The returned sleep is recycled by the run loop once it has fired,
        so callers (node servers, workload sources) MUST NOT retain it
        afterwards -- except to :meth:`_Sleep.cancel` it while still
        pending.
        """
        pool = self._sleep_pool
        if not pool:
            return _Sleep(self, delay, callback)
        if not delay >= 0:
            raise ValueError(f"negative or NaN timeout delay: {delay!r}")
        event = pool.pop()
        event.callback = callback
        event._processed = False
        heappush(self._queue, (self._now + delay, self._next_seq(), event))
        return event

    def _sleep_at(self, when: float, seq: int, callback: Callback) -> _Sleep:
        """Arm a pooled one-shot timer at the absolute key ``(when, seq)``.

        ``seq`` is a number the caller drew from ``_next_seq()`` when it
        decided on ``when``, so a timer armed lazily, later than that
        decision, still fires in the FIFO position it would have had if
        armed right away.  Taking ``when`` as given also avoids
        ``now + (when - now)``, which need not round back to ``when``.
        The key must lie after the event being processed; each drawn
        ``seq`` keys at most one pending entry.  Same retention contract
        as :meth:`_sleep`.
        """
        # ``not >=`` rather than ``<``: a NaN time must not pass.
        if not when >= self._now:
            raise ValueError(
                f"sleep time {when!r} is NaN or before now={self._now!r}"
            )
        pool = self._sleep_pool
        event = pool.pop() if pool else _Sleep.__new__(_Sleep)
        event.callback = callback
        event._processed = False
        heappush(self._queue, (when, seq, event))
        return event

    def _schedule_call(
        self,
        callback: Callback,
        value: Any = None,
        priority: int = URGENT,
    ) -> _Call:
        """Schedule a lightweight single-callback event at the current time.

        Internal fast path for kernel bookkeeping (deferred completion
        continuations, a task's start kick): builds a
        bare :class:`_Call` carrying ``value``, by default with
        :data:`URGENT` priority so it runs before any normal event at the
        same timestamp.  Urgent calls land on the FIFO deque (never the
        heap); :data:`NORMAL` calls take a regular heap entry at the
        current time.
        """
        event = _Call.__new__(_Call)
        event.callback = callback
        event._value = value
        if priority == URGENT:
            self._urgent.append(event)
        else:
            heappush(self._queue, (self._now, self._next_seq(), event))
        return event

    def release(self) -> None:
        """Drop every pending event and every pooled sleep.

        Queued events and pooled sleeps hold model callbacks, and the
        model holds this environment, so the event list of a finished
        run ties the whole model into reference cycles; so does a pending
        sleep its owner still holds (a node's service timer), whose
        callback is a bound method of that owner, so every pending
        sleep loses its callback first.  Releasing lets a dropped model
        be freed by reference counting rather than by the garbage
        collector.  The clock keeps its time; anything scheduled
        afterwards runs as usual.
        """
        for _when, _seq, event in self._queue:
            if type(event) is _Sleep:
                event.callback = None
        self._queue.clear()
        self._urgent.clear()
        self._sleep_pool.clear()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent:
            return self._now
        queue = self._queue
        return queue[0][0] if queue else _INF

    def _seq_peek(self) -> int:
        """The next heap sequence number, without consuming it.

        ``count.__next__`` cannot be read non-destructively, so this
        draws the number and rebinds a fresh counter starting at the
        same value -- the following real ``_next_seq()`` call yields
        exactly this number again.  Used by metric emission (the
        interval trigger and each record's event count).
        """
        seq = self._next_seq()
        self._next_seq = count(seq).__next__
        return seq

    def step(self) -> None:
        """Process the single next event.

        The reference implementation of one :meth:`run` loop iteration
        (pinned against the inlined loop by
        ``tests/sim/test_engine_kernels.py``): drain the urgent deque
        first, then pop the heap; a sleep recycles into the pool and
        fires its callback (none once cancelled), a call fires its
        callback.  Raises :class:`SimulationError` when no event is left.
        """
        urgent = self._urgent
        if urgent:
            call = urgent.popleft()
            call.callback(call)
            return
        if not self._queue:
            raise SimulationError("no more events to process")
        when, _seq, event = heappop(self._queue)
        self._now = when
        if type(event) is _Sleep:
            event._processed = True
            self._sleep_pool.append(event)
            sleep_callback = event.callback
            if sleep_callback is not None:
                sleep_callback(event)
            return
        event.callback(event)

    def run(self, until: Optional[float] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` -- run until the event list is exhausted;
        * a number -- run until the clock reaches that time.

        Returns ``None``, or the value of a :class:`StopSimulation`
        raised by model code.
        """
        sentinel: Optional[_Call] = None
        stop_at = _INF
        if until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} lies in the past (now={self._now})"
                )
            # The time horizon is one *sentinel heap entry* instead of a
            # per-event ``when > stop_at`` comparison: the sentinel sorts
            # after every real entry at ``stop_at`` (its key is above any
            # sequence number ever issued), so all events due at or
            # before the horizon run first, then the sentinel advances
            # the clock to ``stop_at`` (the pop does it) and stops the
            # loop.  Events beyond the horizon simply stay in the heap for
            # a later ``run()``.  Its payload is its consumed marker.
            sentinel = _Call(_horizon_reached, False)
            heappush(self._queue, (stop_at, _HORIZON_KEY, sentinel))

        # Inlined copy of step() -- see that method for the commented
        # reference semantics.  Dispatching an event here costs one pop
        # plus the callback call; the method-call version pays a peek(),
        # a step() call, and several attribute lookups per event, which
        # at millions of events per run dominates wall-clock time.
        queue = self._queue
        urgent = self._urgent
        pop = heappop
        pool_append = self._sleep_pool.append
        sleep_cls = _Sleep
        try:
            while True:
                if urgent:
                    call = urgent.popleft()
                    call.callback(call)
                    continue
                if not queue:
                    break
                when, seq, event = pop(queue)
                self._now = when
                if type(event) is sleep_cls:
                    # The dominant event kind: recycle into the pool (the
                    # callback may immediately re-arm this very object)
                    # and fire the single callback slot -- empty when the
                    # sleep was cancelled.
                    event._processed = True
                    pool_append(event)
                    sleep_callback = event.callback
                    if sleep_callback is not None:
                        sleep_callback(event)
                    continue
                # A NORMAL-priority call (deferred completion
                # continuations) -- or the horizon sentinel, which raises
                # StopSimulation from its callback.
                event.callback(event)
        except StopSimulation as stop:
            return stop.value
        finally:
            if sentinel is not None and not sentinel._value:
                # The loop exited by some other means (an error, or a
                # StopSimulation raised by user code) before the horizon:
                # withdraw the unconsumed sentinel so a later run() does
                # not stop at this horizon.  Runs are rare and the heap is
                # small, so the linear remove is irrelevant.
                try:
                    queue.remove((stop_at, _HORIZON_KEY, sentinel))
                except ValueError:  # pragma: no cover - defensive
                    pass
                else:
                    heapify(queue)
        return None


def _horizon_reached(call: _Call) -> None:
    """Callback of the run-horizon sentinel (see :meth:`Environment.run`).

    Marks the sentinel consumed (its ``_value``) so ``run`` knows the
    stop came from the horizon, then stops the loop with a ``None``
    result.
    """
    call._value = True
    raise StopSimulation(None)
