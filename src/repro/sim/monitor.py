"""Observation collection for simulations.

Two collector flavors, mirroring classic simulation-language monitors
(DeNet, SIMSCRIPT):

* :class:`Tally` -- observation-based statistics (one value per completed
  task): count, mean, variance, min/max, via a compensated sum and a
  shifted Welford update.
* :class:`TimeWeighted` -- time-weighted statistics for piecewise-constant
  signals such as queue length or server utilization.

Both support a *warm-up reset*: experiments discard the transient start-up
phase by calling :meth:`reset` at the end of the warm-up period.

For the *"what is the system doing now"* view that end-of-run means cannot
express, :class:`DecayedMean` and :class:`DecayedRate` maintain
exponentially time-decayed estimates (window parameter ``tau`` in
sim-time units): observations older than a few ``tau`` stop mattering, so
the value tracks the current regime instead of the whole history.  Both
are O(1) memory and draw no random numbers.
"""

from __future__ import annotations

import math


class MeanTally:
    """Streaming *mean-only* summary of individual observations.

    The count/mean subset of :class:`Tally`, for accumulators whose
    snapshots only ever report a mean (the per-class response/lateness/
    waiting statistics behind :class:`~repro.system.metrics.ClassStats`):
    the variance/min/max/total bookkeeping is real arithmetic on the
    per-completion hot path, and maintaining it for nobody is the most
    expensive no-op in the engine.  The mean update is Welford's, which
    can lose low-order digits when observations cancel; :class:`Tally`
    keeps a compensated sum instead, so the two agree bit for bit only
    where the running sums are exact.  Use :class:`Tally` anywhere a
    spread statistic or a mean of cancelling values is wanted.
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


class Tally:
    """Streaming summary of individual observations.

    The mean is the compensated (Neumaier) sum over the count: ``total`` is
    the plain running sum and ``_comp`` collects the low-order bits each
    addition rounds away, so a mean of values that cancel keeps its
    digits.  The squared deviations ``_m2`` follow Welford's update on the
    observations shifted by the first one (``_shift``; ``_smean`` is the
    mean of the shifted values), so values that sit close together far
    from zero keep their spread: each ``value - _shift`` is then exact.
    """

    __slots__ = ("name", "count", "_comp", "_shift", "_smean", "_m2", "min", "max", "total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.reset()

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not self.count:
            self._shift = value
        self.count += 1
        self._add(value, 0.0)
        shifted = value - self._shift
        delta = shifted - self._smean
        self._smean += delta / self.count
        self._m2 += delta * (shifted - self._smean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Sample mean (``nan`` with no observations)."""
        return (self.total + self._comp) / self.count if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``nan`` with fewer than 2 observations)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    def reset(self) -> None:
        """Discard everything recorded so far (warm-up truncation)."""
        self.count = 0
        self.total = 0.0
        self._comp = 0.0
        self._shift = 0.0
        self._smean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _add(self, value: float, comp: float) -> None:
        """Add ``value`` (carrying low-order part ``comp``) to the sum."""
        total = self.total
        new = total + value
        if abs(total) >= abs(value):
            self._comp += (total - new) + value + comp
        else:
            self._comp += (value - new) + total + comp
        self.total = new

    def merge(self, other: "Tally") -> None:
        """Fold another tally into this one (parallel-batch combination)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.total = other.total
            self._comp = other._comp
            self._shift = other._shift
            self._smean = other._smean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        n1, n2 = self.count, other.count
        delta = (other._shift - self._shift) + (other._smean - self._smean)
        total_n = n1 + n2
        self._smean += delta * n2 / total_n
        self._m2 += other._m2 + delta * delta * n1 * n2 / total_n
        self.count = total_n
        self._add(other.total, other._comp)
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:
        return (
            f"Tally({self.name!r}, n={self.count}, mean={self.mean:.4g}, "
            f"sd={self.stdev:.4g})"
        )


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


class DecayedMean:
    """Exponentially time-decayed weighted mean of an observation stream.

    Each observation enters with weight 1; all weights decay by
    ``exp(-dt / tau)`` as sim-time advances, so the mean converges to the
    recent stream (half-life ``tau * ln 2``).  Because decay scales every
    weight equally, the *mean itself* is invariant under pure passage of
    time -- a long silence keeps the last regime's value (with shrinking
    total weight) rather than drifting toward zero.

    Used for windowed miss rates (0/1 miss indicators), current response
    times, and current queue depths (sampled at completion instants).
    """

    __slots__ = ("name", "tau", "_weight", "_mean", "_last_time")

    def __init__(self, tau: float, name: str = "", start_time: float = 0.0) -> None:
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.name = name
        self.tau = tau
        self._weight = 0.0
        self._mean = 0.0
        self._last_time = start_time

    def observe(self, value: float, now: float) -> None:
        """Record one observation at sim-time ``now``."""
        dt = now - self._last_time
        if dt > 0.0:
            self._weight *= math.exp(-dt / self.tau)
            self._last_time = now
        elif dt < 0.0:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time} in {self.name!r}"
            )
        weight = self._weight + 1.0
        self._weight = weight
        self._mean += (value - self._mean) / weight

    @property
    def value(self) -> float:
        """Current decayed mean (``nan`` before the first observation)."""
        return self._mean if self._weight > 0.0 else math.nan

    def weight_at(self, now: float) -> float:
        """Total decayed weight at ``now`` (an effective sample size)."""
        dt = now - self._last_time
        if dt <= 0.0:
            return self._weight
        return self._weight * math.exp(-dt / self.tau)

    def reset(self, now: float) -> None:
        """Forget everything; restart the window at sim-time ``now``."""
        self._weight = 0.0
        self._mean = 0.0
        self._last_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecayedMean({self.name!r}, tau={self.tau}, value={self.value:.6g})"


class DecayedRate:
    """Exponentially time-decayed event rate (events per unit sim-time).

    Each :meth:`tick` adds one unit of mass; mass decays by
    ``exp(-dt / tau)``.  For a Poisson stream of rate ``r`` the decayed
    mass converges to ``r * tau``, so :meth:`rate_at` (mass divided by
    ``tau``) is an unbiased estimate of the *current* event rate,
    discounting anything older than a few ``tau``.
    """

    __slots__ = ("name", "tau", "_mass", "_last_time")

    def __init__(self, tau: float, name: str = "", start_time: float = 0.0) -> None:
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.name = name
        self.tau = tau
        self._mass = 0.0
        self._last_time = start_time

    def tick(self, now: float, weight: float = 1.0) -> None:
        """Record one event (of optional ``weight``) at sim-time ``now``."""
        dt = now - self._last_time
        if dt > 0.0:
            self._mass *= math.exp(-dt / self.tau)
            self._last_time = now
        elif dt < 0.0:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time} in {self.name!r}"
            )
        self._mass += weight

    def rate_at(self, now: float) -> float:
        """Current decayed event rate at sim-time ``now``."""
        dt = now - self._last_time
        mass = self._mass
        if dt > 0.0:
            mass *= math.exp(-dt / self.tau)
        return mass / self.tau

    def reset(self, now: float) -> None:
        """Forget everything; restart the window at sim-time ``now``."""
        self._mass = 0.0
        self._last_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecayedRate({self.name!r}, tau={self.tau})"

