"""Core of the discrete-event simulation kernel.

This module provides the :class:`Environment`: the simulation clock plus
the event list.  It plays the role that the DeNet simulation language
[Livny 1990] played for the original paper: a generic discrete-event
substrate on which the task/node/scheduler model is built.

The engine itself (event list, run loop, pooled sleeps, urgent deque)
lives in :mod:`repro.sim._engine`; this module re-exports its public
names, plus ``_Call``, the bookkeeping event that carries a leaf's
completion to the process manager.

Design notes
------------

* The event list is a binary heap of ``(time, seq, event)`` tuples.  The
  monotonically increasing ``seq`` key guarantees FIFO order among
  events scheduled for the same time, which makes simulations fully
  deterministic for a fixed seed; urgent bookkeeping bypasses the heap
  on a FIFO deque (see the engine module docstring).
* The model is a callback machine: node servers, the coordinator and
  the workload sources arm pooled timers (``_sleep``) and schedule
  single-callback calls (``_schedule_call``); no code on the event path
  runs a coroutine, and nothing waits on an event.
* An exception raised by a callback propagates out of
  :meth:`Environment.run`, so model bugs cannot pass silently.
"""

from __future__ import annotations

from ._engine import NORMAL, URGENT, Callback, Environment, _Call

__all__ = [
    "NORMAL",
    "URGENT",
    "Callback",
    "Environment",
]
