"""Core of the discrete-event simulation kernel.

This module provides the :class:`Environment` (simulation clock plus event
list) and the :class:`Event` family.  It plays the role that the DeNet
simulation language [Livny 1990] played for the original paper: a generic
discrete-event substrate on which the task/node/scheduler model is built.

The engine itself (event list, run loop, pooled sleeps, urgent deque)
lives in :mod:`repro.sim._engine`; this module re-exports its public
names, plus ``_Call``, the bookkeeping event the node servers pool.

Design notes
------------

* The event list is a binary heap of ``(time, seq, event)`` tuples.  The
  monotonically increasing ``seq`` key guarantees FIFO order among
  events scheduled for the same time, which makes simulations fully
  deterministic for a fixed seed; urgent bookkeeping bypasses the heap
  on a FIFO deque (see the engine module docstring).
* The model is a callback machine: node servers, the coordinator and
  the workload sources arm timers and append callbacks to events; no
  code on the event path runs a coroutine.
* Events support success *and* failure.  A failed event that no
  callback defuses re-raises its exception out of the run loop, so
  model bugs cannot pass silently.
"""

from __future__ import annotations

from ._engine import (
    NORMAL,
    URGENT,
    Callback,
    Environment,
    Event,
    Timeout,
    _Call,
)

__all__ = [
    "NORMAL",
    "URGENT",
    "Callback",
    "Environment",
    "Event",
    "Timeout",
]
