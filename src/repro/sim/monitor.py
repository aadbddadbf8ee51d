"""Observation collection for simulations.

Two collector flavors, mirroring classic simulation-language monitors
(DeNet, SIMSCRIPT):

* :class:`MeanTally` -- observation-based mean (one value per completed
  task): count and mean, via Welford's update.
* :class:`TimeWeighted` -- time-weighted statistics for piecewise-constant
  signals such as queue length or server utilization.

Both support a *warm-up reset*: experiments discard the transient start-up
phase by calling :meth:`reset` at the end of the warm-up period.
"""

from __future__ import annotations

import math


class MeanTally:
    """Streaming *mean-only* summary of individual observations.

    For accumulators whose snapshots only ever report a mean (the
    per-class response/lateness/waiting statistics behind
    :class:`~repro.system.metrics.ClassStats`): variance/min/max
    bookkeeping would be real arithmetic on the per-completion hot path,
    maintained for nobody.  The mean update is Welford's, which can lose
    low-order digits when observations cancel; it equals the exact mean
    only where the running sums are exact.
    """

    __slots__ = ("name", "count", "_mean")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        count = self.count + 1
        self.count = count
        self._mean += (value - self._mean) / count

    @property
    def mean(self) -> float:
        """Sample mean (``nan`` with no observations)."""
        return self._mean if self.count else math.nan

    def reset(self) -> None:
        """Discard everything recorded so far (warm-up truncation)."""
        self.count = 0
        self._mean = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MeanTally {self.name!r} n={self.count} mean={self.mean:.6g}>"


class TimeWeighted:
    """Time-weighted statistics of a piecewise-constant signal.

    Call :meth:`update` whenever the signal changes.  The mean is weighted
    by how long each value was held::

        util = TimeWeighted(env_now=0.0)
        util.update(1.0, now=2.0)   # signal was 0 during [0, 2)
        util.update(0.0, now=5.0)   # signal was 1 during [2, 5)
        util.mean_at(10.0)          # -> 3/10
    """

    __slots__ = ("name", "_value", "_last_time", "_area", "_start_time", "min", "max")

    def __init__(self, name: str = "", initial: float = 0.0, start_time: float = 0.0) -> None:
        self.name = name
        self._value = initial
        self._last_time = start_time
        self._start_time = start_time
        self._area = 0.0
        self.min = initial
        self.max = initial

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    def update(self, value: float, now: float) -> None:
        """Change the signal to ``value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time} in {self.name!r}"
            )
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def increment(self, delta: float, now: float) -> None:
        """Shift the signal by ``delta`` (e.g., queue length +1/-1).

        Inlined copy of :meth:`update` -- this runs twice per work unit
        (enqueue/dequeue), and the extra call frame is measurable there.
        """
        last = self._last_time
        if now < last:
            raise ValueError(
                f"time went backwards: {now} < {last} in {self.name!r}"
            )
        old = self._value
        value = old + delta
        self._area += old * (now - last)
        self._last_time = now
        self._value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean_at(self, now: float) -> float:
        """Time-weighted mean over ``[start_time, now]``."""
        elapsed = now - self._start_time
        if elapsed <= 0:
            return math.nan
        area = self._area + self._value * (now - self._last_time)
        return area / elapsed

    def reset(self, now: float) -> None:
        """Restart accumulation at time ``now``, keeping the current value."""
        self._area = 0.0
        self._last_time = now
        self._start_time = now
        self.min = self._value
        self.max = self._value

    def __repr__(self) -> str:
        return f"TimeWeighted({self.name!r}, value={self._value!r})"
