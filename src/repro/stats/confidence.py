"""Confidence intervals for simulation output analysis.

The paper reports 95% confidence intervals of about ±0.35 percentage points
on miss ratios, obtained from two runs of one million time units.  We use
the method of *independent replications*: each data point is estimated from
``n`` runs with different seeds, and the half-width comes from the
Student-t distribution with ``n - 1`` degrees of freedom.

The t quantile is exact for every integer number of degrees of freedom:
the closed-form distribution function (Abramowitz & Stegun 26.7.3 and
26.7.4) inverted by bisection, in pure Python, so an interval does not
depend on which packages are installed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence


def t_quantile(p: float, dof: int) -> float:
    """Two-sided Student-t critical value: ``P(|T| <= t) = p``.

    ``p`` is the confidence level (e.g., 0.95), ``dof`` the degrees of
    freedom.  Bisects the angle ``theta = atan(t / sqrt(dof))`` until it
    stops moving, so the result is as exact as the float grid allows.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {p}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    low, high = 0.0, math.pi / 2.0
    while True:
        theta = 0.5 * (low + high)
        if theta in (low, high):
            return math.sqrt(dof) * math.tan(theta)
        if _t_coverage(theta, dof) < p:
            low = theta
        else:
            high = theta


def _t_coverage(theta: float, dof: int) -> float:
    """``P(|T| <= sqrt(dof) * tan(theta))`` for ``T`` Student-t with an
    integer ``dof``: Abramowitz & Stegun 26.7.3 (odd ``dof``) and 26.7.4
    (even), each a sum of ``dof // 2`` terms in powers of ``cos(theta)``."""
    odd = dof % 2
    cos2 = math.cos(theta) ** 2
    term = math.cos(theta) if odd else 1.0
    total = 0.0
    for k in range(1, dof // 2 + 1):
        total += term
        term *= cos2 * (2 * k - 1 + odd) / (2 * k + odd)
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * total)
    return math.sin(theta) * total


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with a symmetric confidence interval."""

    mean: float
    half_width: float
    level: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def overlaps(self, other: "IntervalEstimate") -> bool:
        """True if the two intervals intersect (quick significance check)."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.half_width:.4f}"


def interval_from_samples(
    samples: Sequence[float], level: float = 0.95
) -> IntervalEstimate:
    """Mean and t-based confidence half-width from raw replication values.

    A single sample gets an infinite half-width (no variance information),
    which correctly signals "do more replications" downstream.
    """
    values = [float(v) for v in samples]
    if not values:
        raise ValueError("need at least one sample")
    mean = statistics.fmean(values)
    if len(values) == 1:
        return IntervalEstimate(mean=mean, half_width=math.inf, level=level, n=1)
    sd = statistics.stdev(values)
    half = t_quantile(level, len(values) - 1) * sd / math.sqrt(len(values))
    return IntervalEstimate(mean=mean, half_width=half, level=level, n=len(values))
