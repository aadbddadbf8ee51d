"""Random-variate distributions used by the workload model.

The paper's workload draws from three families:

* exponential execution times (local tasks and subtasks of global tasks;
  the total execution time of a global task is then Erlang);
* Poisson arrival processes (equivalently, exponential interarrival times);
* uniform slack.

We implement these plus a few extras used by the Sec. 4.3 variations
(deterministic values, bounded uniform error multipliers, discrete uniform
choice of subtask counts).  Every distribution takes an explicit
:class:`random.Random` stream at sampling time, so distribution objects are
immutable descriptions and all randomness flows through named streams
(:mod:`repro.sim.rng`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


def _require_finite(name: str, value: float) -> None:
    """Reject NaN/inf parameters uniformly across the library."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _require_positive(name: str, value: float) -> None:
    _require_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _require_integer(name: str, value) -> None:
    """Reject non-integral counts (``Erlang(k=2.5)`` used to pass silently)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class Distribution:
    """Base class: a described distribution sampled via an explicit stream."""

    def sample(self, stream: random.Random) -> float:
        """Draw one variate using ``stream``."""
        raise NotImplementedError

    def bind(self, stream: random.Random):
        """Return a zero-argument sampler bound to ``stream``.

        Hot loops draw millions of variates; a bound sampler skips the
        per-draw method dispatch (and lets subclasses pre-compute constant
        parameters).  Draws are identical to ``sample(stream)`` -- binding
        never changes the consumed random numbers.
        """
        sample = self.sample
        return lambda: sample(stream)

    @property
    def mean(self) -> float:
        """Analytic mean of the distribution."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution with the given *mean* (not rate).

    The paper parameterizes by rate (``1/mu``); we store the mean because
    every formula in the paper divides by the rate anyway.
    """

    mean_value: float

    def __post_init__(self) -> None:
        _require_positive("exponential mean", self.mean_value)

    def sample(self, stream: random.Random) -> float:
        return stream.expovariate(1.0 / self.mean_value)

    def bind(self, stream: random.Random):
        # Inlined random.Random.expovariate (pure Python in CPython):
        # identical arithmetic, one call frame less per draw.
        uniform01 = stream.random
        rate = 1.0 / self.mean_value
        log = math.log
        return lambda: -log(1.0 - uniform01()) / rate

    @property
    def mean(self) -> float:
        return self.mean_value

    @property
    def rate(self) -> float:
        """Rate parameter lambda = 1 / mean."""
        return 1.0 / self.mean_value


@dataclass(frozen=True)
class Uniform(Distribution):
    """Continuous uniform distribution on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        _require_finite("uniform low", self.low)
        _require_finite("uniform high", self.high)
        if self.high < self.low:
            raise ValueError(f"uniform needs low <= high, got [{self.low}, {self.high}]")

    def sample(self, stream: random.Random) -> float:
        return stream.uniform(self.low, self.high)

    def bind(self, stream: random.Random):
        # Inlined random.Random.uniform: ``low + (high - low) * random()``
        # with the constant span pre-computed.  Identical arithmetic.
        uniform01 = stream.random
        low = self.low
        span = self.high - low
        return lambda: low + span * uniform01()

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def scaled(self, factor: float) -> "Uniform":
        """Return a copy with both endpoints multiplied by ``factor``.

        Used to derive the global-task slack range from the local one via
        ``rel_flex`` (see :mod:`repro.system.workload`).
        """
        _require_finite("scale factor", factor)
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative: {factor}")
        return Uniform(self.low * factor, self.high * factor)


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Degenerate distribution: always returns ``value``."""

    value: float

    def __post_init__(self) -> None:
        _require_finite("deterministic value", self.value)

    def sample(self, stream: random.Random) -> float:
        return self.value

    @property
    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Erlang(Distribution):
    """Erlang distribution: sum of ``k`` exponentials with the given stage mean.

    The total execution time of an ``m``-subtask global task is Erlang with
    ``k = m`` stages; we expose the distribution mainly for analytical
    checks in tests.
    """

    k: int
    stage_mean: float

    def __post_init__(self) -> None:
        _require_integer("Erlang stage count k", self.k)
        if self.k < 1:
            raise ValueError(f"Erlang needs k >= 1 stages, got {self.k}")
        _require_positive("Erlang stage mean", self.stage_mean)

    def sample(self, stream: random.Random) -> float:
        rate = 1.0 / self.stage_mean
        return sum(stream.expovariate(rate) for _ in range(self.k))

    @property
    def mean(self) -> float:
        return self.k * self.stage_mean


@dataclass(frozen=True)
class DiscreteUniform(Distribution):
    """Uniform choice over the integers ``low..high`` inclusive.

    Used by the "variable number of subtasks" variation (Sec. 4.3).
    """

    low: int
    high: int

    def __post_init__(self) -> None:
        _require_integer("discrete uniform low", self.low)
        _require_integer("discrete uniform high", self.high)
        if self.high < self.low:
            raise ValueError(
                f"discrete uniform needs low <= high, got [{self.low}, {self.high}]"
            )

    def sample(self, stream: random.Random) -> int:
        return stream.randint(self.low, self.high)

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class UniformErrorFactor(Distribution):
    """Multiplicative estimation-error factor ``U[1 - e, 1 + e]``.

    Models the Sec. 4.3 "random error is introduced into the task execution
    time estimate" variation: ``pex(X) = ex(X) * factor``.  ``error = 0``
    reproduces the baseline's perfect prediction.
    """

    error: float

    def __post_init__(self) -> None:
        _require_finite("relative error", self.error)
        if not 0.0 <= self.error < 1.0:
            raise ValueError(f"relative error must lie in [0, 1), got {self.error}")

    def sample(self, stream: random.Random) -> float:
        if self.error == 0.0:
            return 1.0
        return stream.uniform(1.0 - self.error, 1.0 + self.error)

    @property
    def mean(self) -> float:
        return 1.0


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto (power-law) distribution parameterized by *mean* and shape.

    Heavy-tailed service times for the scenario subsystem: the scale
    ``x_m`` is derived from the requested mean so that swapping the
    baseline's exponential service for a Pareto one keeps the load
    arithmetic exact (``mean = x_m * shape / (shape - 1)``).  ``shape``
    must exceed 1 for the mean to exist; shapes in ``(1, 2]`` have
    infinite variance -- the interesting heavy-tail regime.
    """

    mean_value: float
    shape: float

    def __post_init__(self) -> None:
        _require_positive("Pareto mean", self.mean_value)
        _require_finite("Pareto shape", self.shape)
        if self.shape <= 1.0:
            raise ValueError(
                f"Pareto shape must exceed 1 for a finite mean, got {self.shape}"
            )

    @property
    def scale(self) -> float:
        """Minimum value ``x_m`` implied by the mean and shape."""
        return self.mean_value * (self.shape - 1.0) / self.shape

    def sample(self, stream: random.Random) -> float:
        # Inverse CDF: x_m * U^(-1/shape).  Use 1 - random() like the
        # stdlib's paretovariate: random() can return exactly 0.0, which
        # would raise ZeroDivisionError on the negative power.
        return self.scale * (1.0 - stream.random()) ** (-1.0 / self.shape)

    def bind(self, stream: random.Random):
        uniform01 = stream.random
        scale = self.scale
        neg_inv_shape = -1.0 / self.shape
        return lambda: scale * (1.0 - uniform01()) ** neg_inv_shape

    @property
    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class Lognormal(Distribution):
    """Lognormal distribution parameterized by *mean* and log-space sigma.

    The underlying normal's location is ``ln(mean) - sigma^2 / 2`` so the
    arithmetic mean is exactly ``mean_value`` -- load arithmetic stays
    valid when a scenario swaps this in for exponential service.  Larger
    ``sigma`` gives a heavier right tail (CV^2 = exp(sigma^2) - 1).
    """

    mean_value: float
    sigma: float

    def __post_init__(self) -> None:
        _require_positive("lognormal mean", self.mean_value)
        _require_positive("lognormal sigma", self.sigma)

    @property
    def mu(self) -> float:
        """Location of the underlying normal."""
        return math.log(self.mean_value) - self.sigma ** 2 / 2.0

    def sample(self, stream: random.Random) -> float:
        return stream.lognormvariate(self.mu, self.sigma)

    def bind(self, stream: random.Random):
        lognormvariate = stream.lognormvariate
        mu = self.mu
        sigma = self.sigma
        return lambda: lognormvariate(mu, sigma)

    @property
    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class Hyperexponential(Distribution):
    """Two-phase hyperexponential with the given mean and CV^2 >= 1.

    Bursty interarrival times: a mixture of a fast and a slow exponential
    phase using the balanced-means parameterization, so ``(mean, cv2)``
    pins the first two moments.  ``cv2 = 1`` degenerates to the plain
    exponential (both phases equal).
    """

    mean_value: float
    cv2: float

    def __post_init__(self) -> None:
        _require_positive("hyperexponential mean", self.mean_value)
        _require_finite("hyperexponential cv2", self.cv2)
        if self.cv2 < 1.0:
            raise ValueError(
                f"hyperexponential cv2 must be >= 1, got {self.cv2}"
            )

    @property
    def phase_probability(self) -> float:
        """Probability of the fast phase (balanced means)."""
        return 0.5 * (1.0 + math.sqrt((self.cv2 - 1.0) / (self.cv2 + 1.0)))

    @property
    def rates(self) -> tuple:
        """Rates ``(rate_fast, rate_slow)`` of the two phases."""
        p = self.phase_probability
        return (2.0 * p / self.mean_value, 2.0 * (1.0 - p) / self.mean_value)

    def sample(self, stream: random.Random) -> float:
        p = self.phase_probability
        rate_fast, rate_slow = self.rates
        rate = rate_fast if stream.random() < p else rate_slow
        return stream.expovariate(rate)

    def bind(self, stream: random.Random):
        uniform01 = stream.random
        expovariate = stream.expovariate
        p = self.phase_probability
        rate_fast, rate_slow = self.rates

        def draw() -> float:
            return expovariate(rate_fast if uniform01() < p else rate_slow)

        return draw

    @property
    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class MMPP2Interarrival(Distribution):
    """Interarrival times of a 2-state Markov-modulated Poisson process.

    The process alternates between a *calm* and a *burst* state; state
    sojourns are exponential and arrivals within a state are Poisson.
    Parameterized so the long-run arrival rate is ``1 / mean_value``:

    * ``burst_ratio``    -- arrival-rate multiplier of the burst state
      relative to the calm state (``1`` degenerates to Poisson);
    * ``burst_fraction`` -- stationary fraction of time spent bursting;
    * ``cycle_time``     -- mean duration of one calm+burst cycle (sets
      how long bursts last, not how intense they are).

    The sampler is *stateful* (the modulating chain persists between
    draws), so this distribution must be used through :meth:`bind`; the
    state lives in the bound closure, giving each bound stream its own
    independent chain.
    """

    mean_value: float
    burst_ratio: float
    burst_fraction: float
    cycle_time: float

    def __post_init__(self) -> None:
        _require_positive("MMPP mean", self.mean_value)
        _require_finite("MMPP burst_ratio", self.burst_ratio)
        if self.burst_ratio < 1.0:
            raise ValueError(
                f"MMPP burst_ratio must be >= 1, got {self.burst_ratio}"
            )
        _require_finite("MMPP burst_fraction", self.burst_fraction)
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError(
                f"MMPP burst_fraction must lie in (0, 1), got "
                f"{self.burst_fraction}"
            )
        _require_positive("MMPP cycle_time", self.cycle_time)

    @property
    def arrival_rates(self) -> tuple:
        """Rates ``(rate_calm, rate_burst)`` with the stationary mix equal
        to ``1 / mean_value``."""
        f = self.burst_fraction
        rate_calm = (1.0 / self.mean_value) / (
            f * self.burst_ratio + (1.0 - f)
        )
        return (rate_calm, rate_calm * self.burst_ratio)

    @property
    def sojourn_means(self) -> tuple:
        """Mean state sojourns ``(calm, burst)``."""
        f = self.burst_fraction
        return ((1.0 - f) * self.cycle_time, f * self.cycle_time)

    def sample(self, stream: random.Random) -> float:
        raise TypeError(
            "MMPP2Interarrival is stateful; draw through bind(stream)"
        )

    def bind(self, stream: random.Random):
        return _MMPP2Sampler(stream, self.arrival_rates, self.sojourn_means)

    @property
    def mean(self) -> float:
        """Long-run mean interarrival time."""
        return self.mean_value


class _MMPP2Sampler:
    """Bound, stateful MMPP(2) interarrival sampler.

    Carries the modulating chain's current state between draws; all
    randomness lives in the bound stream.
    """

    __slots__ = ("stream", "rates", "sojourns", "state")

    def __init__(self, stream: random.Random, rates: tuple, sojourns: tuple):
        self.stream = stream
        self.rates = rates
        self.sojourns = sojourns
        self.state = 0  # start calm: deterministic, reproducible phase

    def __call__(self) -> float:
        # Competing exponentials: within the current state the next
        # arrival races the next state switch; memorylessness lets us
        # redraw both after each switch.
        expovariate = self.stream.expovariate
        rates = self.rates
        sojourns = self.sojourns
        state = self.state
        gap = 0.0
        while True:
            to_arrival = expovariate(rates[state])
            to_switch = expovariate(1.0 / sojourns[state])
            if to_arrival <= to_switch:
                self.state = state
                return gap + to_arrival
            gap += to_switch
            state = 1 - state


def exponential_interarrival(rate: float) -> Exponential:
    """Interarrival-time distribution of a Poisson process with ``rate``.

    Convenience helper: the paper specifies arrivals as "Poisson with mean
    interarrival time 1/lambda"; this returns ``Exponential(1/rate)``.
    """
    if rate <= 0:
        raise ValueError(f"Poisson process rate must be positive: {rate}")
    return Exponential(1.0 / rate)
