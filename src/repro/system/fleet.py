"""Flat array-backed per-node hot state (the fleet-scale storage layer).

Constructing a 100k-node system used to mean 300k :class:`TimeWeighted`
objects (busy / queue / down signals), each a Python object with a name
string and seven slots -- ~0.3 s of pure allocation before the first
event fires, and a pointer-chasing cache miss per signal touch.
:class:`FleetState` replaces that with twelve flat ``float`` lists, one
entry per node, owned in one place.  Node server loops bind the raw
lists once and update them with straight-line float arithmetic
(bit-identical to the inlined ``TimeWeighted`` updates they replace);
everything that still wants a per-signal *object* -- the fault
injector's down signal, external tests -- goes through the
:class:`SignalView` proxy, which implements the exact ``TimeWeighted``
arithmetic against the shared arrays.

The per-signal layout mirrors ``TimeWeighted``'s accumulation fields
(its extrema are not kept: nothing reads them per node):

===========  ===========================================================
``value``    current signal value (piecewise-constant)
``area``     integral of the signal over ``[start, last]``
``last``     time of the most recent update
``start``    start of the current accumulation window (warm-up reset)
===========  ===========================================================
"""

from __future__ import annotations

import math

__all__ = ["FleetState", "SignalView", "SignalViews"]


class FleetState:
    """Owner of every per-node time-weighted signal, as flat parallel lists.

    Three signals per node (``busy``, ``queue``, ``down``).  Nodes and
    the metrics collector view into these lists; nothing copies them.
    (The per-node event counters are the collector's ``node_*`` lists.)
    """

    __slots__ = (
        "node_count",
        "busy_value", "busy_area", "busy_last", "busy_start",
        "queue_value", "queue_area", "queue_last", "queue_start",
        "down_value", "down_area", "down_last", "down_start",
    )

    def __init__(self, node_count: int) -> None:
        self.node_count = node_count
        for kind in ("busy", "queue", "down"):
            for field in ("value", "area", "last", "start"):
                setattr(self, f"{kind}_{field}", [0.0] * node_count)

    # -- warm-up -----------------------------------------------------------

    def reset_signals(self, now: float) -> None:
        """Restart every signal's accumulation at ``now``.

        Same semantics as ``TimeWeighted.reset`` per node: the current
        value is *kept* (a node busy -- or down -- across the warm-up
        boundary stays busy/down in the measured window), and the area
        and window start over.
        """
        for kind in ("busy", "queue", "down"):
            areas = getattr(self, f"{kind}_area")
            lasts = getattr(self, f"{kind}_last")
            starts = getattr(self, f"{kind}_start")
            for i in range(self.node_count):
                areas[i] = 0.0
                lasts[i] = now
                starts[i] = now


class SignalView:
    """A ``TimeWeighted``-compatible view of one node's signal arrays.

    Exists for the cold paths that want a signal *object* -- the fault
    injector's 0/1 down updates, tests poking ``collector.node_busy[i]``
    -- while the hot node loops write the arrays directly.  Every method
    reproduces the ``TimeWeighted`` arithmetic operation for operation,
    so going through a view is bit-identical to the object it replaces.
    """

    __slots__ = ("_values", "_areas", "_lasts", "_starts", "index")

    def __init__(self, values, areas, lasts, starts, index):
        self._values = values
        self._areas = areas
        self._lasts = lasts
        self._starts = starts
        self.index = index

    @property
    def value(self) -> float:
        return self._values[self.index]

    # ``TimeWeighted`` exposes the raw slot; keep the spelling working
    # for callers that bypass the property on the hot path.
    @property
    def _value(self) -> float:
        return self._values[self.index]

    def update(self, value: float, now: float) -> None:
        i = self.index
        last = self._lasts[i]
        if now < last:
            raise ValueError(
                f"time went backwards: {now} < {last} in signal {i}"
            )
        self._areas[i] += self._values[i] * (now - last)
        self._lasts[i] = now
        self._values[i] = value

    def increment(self, delta: float, now: float) -> None:
        i = self.index
        last = self._lasts[i]
        if now < last:
            raise ValueError(
                f"time went backwards: {now} < {last} in signal {i}"
            )
        old = self._values[i]
        self._areas[i] += old * (now - last)
        self._lasts[i] = now
        self._values[i] = old + delta

    def mean_at(self, now: float) -> float:
        i = self.index
        elapsed = now - self._starts[i]
        if elapsed <= 0:
            return math.nan
        area = self._areas[i] + self._values[i] * (now - self._lasts[i])
        return area / elapsed

    def reset(self, now: float) -> None:
        i = self.index
        self._areas[i] = 0.0
        self._lasts[i] = now
        self._starts[i] = now

    def __repr__(self) -> str:
        return f"SignalView({self.index}, value={self._values[self.index]!r})"


class SignalViews:
    """Lazy sequence of :class:`SignalView` over one signal's arrays.

    Views are cheap throwaway handles; nothing caches them, so the
    sequence materializes one on each ``[i]``.
    """

    __slots__ = ("_values", "_areas", "_lasts", "_starts")

    def __init__(self, fleet: FleetState, kind: str) -> None:
        self._values = getattr(fleet, f"{kind}_value")
        self._areas = getattr(fleet, f"{kind}_area")
        self._lasts = getattr(fleet, f"{kind}_last")
        self._starts = getattr(fleet, f"{kind}_start")

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> SignalView:
        if not -len(self._values) <= index < len(self._values):
            raise IndexError(index)
        if index < 0:
            index += len(self._values)
        return SignalView(
            self._values, self._areas, self._lasts, self._starts, index
        )
