"""System configuration: Table 1's baseline and every knob the paper turns.

:class:`SystemConfig` captures the simulation model of Sec. 4.1 / 5.2.  The
load arithmetic follows the paper exactly:

* normalized load::

      load = (lambda_global * m / mu_subtask + k * lambda_local / mu_local) / k

* fraction of the load contributed by local tasks::

      frac_local = (k * lambda_local / mu_local) / (k * load)

Experiments specify ``(load, frac_local)`` and the config derives the
arrival rates:

* per-node local rate:  ``lambda_local = load * frac_local * mu_local``
* global stream rate:   ``lambda_global = load * (1 - frac_local) * k
  * mu_subtask / E[m]``

``rel_flex`` (relative flexibility of globals vs. locals) scales the
global-task slack distribution: a global task's expected execution time is
``E[m] / mu_subtask`` versus ``1 / mu_local`` for a local task, so drawing
global slack from ``U[Smin, Smax]`` scaled by
``rel_flex * E[m] * mu_local / mu_subtask`` equalizes the expected
flexibility ratio at ``rel_flex``.  With the baseline numbers the global
slack range is ``[1.0, 10.0]``.  For parallel fans the paper instead fixes
the slack range at ``[1.25, 5.0]`` (Sec. 5.2), which we honor by default
and expose as ``parallel_slack_range``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..core.estimators import Estimator, uniform_error_estimator
from ..sim.distributions import (
    Deterministic,
    DiscreteUniform,
    Distribution,
    Hyperexponential,
    Lognormal,
    MMPP2Interarrival,
    Pareto,
    Uniform,
    exponential_interarrival,
)
from .detector import DetectorSpec
from .faults import FaultSpec
from .overload import OVERLOAD_POLICIES
from .placement import PLACEMENT_POLICIES

#: Task-structure selectors (which experiment family a config runs).
SERIAL = "serial"
PARALLEL = "parallel"
SERIAL_PARALLEL = "serial-parallel"

_STRUCTURES = (SERIAL, PARALLEL, SERIAL_PARALLEL)

#: Arrival-process selectors (scenario subsystem; "poisson" is the paper).
_ARRIVAL_MODELS = ("poisson", "hyperexp", "mmpp2")

#: Service-time selectors (scenario subsystem; "exponential" is the paper).
_SERVICE_MODELS = ("exponential", "pareto", "lognormal")

#: Subtask placement selectors (scenario subsystem; "uniform" is the
#: paper).  Aliased from the policy module that implements them, so the
#: validated names and the wired policies cannot drift apart.
_PLACEMENT_MODELS = PLACEMENT_POLICIES


def harmonic(n: int) -> float:
    """``H_n = 1 + 1/2 + ... + 1/n`` -- the mean of the max of ``n`` iid
    unit-mean exponentials, used for critical-path arithmetic."""
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    return sum(1.0 / i for i in range(1, n + 1))


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulation run.

    Defaults reproduce Table 1 (the baseline experiment) with serial global
    tasks and the UD strategy.
    """

    # -- Table 1 ----------------------------------------------------------
    #: Number of homogeneous nodes ``k``.
    node_count: int = 6
    #: Subtasks per global task ``m`` (fixed unless ``subtask_count_range``).
    subtask_count: int = 4
    #: Normalized system load (0 <= load < 1 for stability).
    load: float = 0.5
    #: Fraction of the load contributed by local tasks.
    frac_local: float = 0.75
    #: Local-task service *rate* ``mu_local`` (mean ex = 1/mu_local).
    mu_local: float = 1.0
    #: Subtask service *rate* ``mu_subtask``.
    mu_subtask: float = 1.0
    #: Local-task slack range ``[Smin, Smax]``.
    slack_range: Tuple[float, float] = (0.25, 2.5)
    #: Relative flexibility of global vs. local tasks.
    rel_flex: float = 1.0
    #: Relative error of execution-time prediction (0 = perfect, Table 1).
    pex_error: float = 0.0
    #: Local scheduling policy: "EDF", "MLF", or "FCFS".
    scheduler: str = "EDF"
    #: Overload policy: "no-abort" (Table 1), "abort-tardy", or
    #: "abort-virtual".
    overload_policy: str = "no-abort"
    #: Preemptive-resume servers instead of the paper's non-preemptive ones
    #: (extension; see :mod:`repro.system.preemptive`).
    preemptive: bool = False
    #: Record an execution trace (see :mod:`repro.system.tracing`).  Off by
    #: default: traces grow with every unit executed.
    trace: bool = False

    # -- SDA strategy -------------------------------------------------------
    #: Strategy name: an SSP name ("UD", "ED", "EQS", "EQF"), a PSP name
    #: ("DIV-1", "GF", ...), or a combination ("EQF-DIV1").
    strategy: str = "UD"

    # -- global task shape ---------------------------------------------------
    #: One of "serial", "parallel", "serial-parallel".
    task_structure: str = SERIAL
    #: For serial-parallel trees: number of serial stages.
    stages: int = 2
    #: For serial-parallel trees: parallel width of each stage.
    stage_width: int = 2
    #: Slack range of parallel fans (Sec. 5.2 baseline).
    parallel_slack_range: Tuple[float, float] = (1.25, 5.0)
    #: If set, the number of subtasks of each serial task is drawn uniformly
    #: from this inclusive integer range (Sec. 4.3 variation).
    subtask_count_range: Optional[Tuple[int, int]] = None

    # -- heterogeneity (Sec. 4.3 variation) -----------------------------------
    #: Optional per-node weights for the local arrival rates.  ``None``
    #: means homogeneous.  Weights are normalized; total local load is kept.
    local_load_weights: Optional[Tuple[float, ...]] = None

    # -- scenario dimensions (repro.scenarios; defaults = the paper) ----------
    #: Arrival-process family for local and global streams: "poisson"
    #: (the paper), "hyperexp" (bursty, CV^2 > 1), or "mmpp2" (2-state
    #: Markov-modulated bursts).
    arrival_model: str = "poisson"
    #: Squared coefficient of variation of hyperexponential interarrivals.
    arrival_cv2: float = 1.0
    #: MMPP2: arrival-rate multiplier of the burst state (>= 1).
    arrival_burst_ratio: float = 4.0
    #: MMPP2: stationary fraction of time spent in the burst state.
    arrival_burst_fraction: float = 0.2
    #: MMPP2: mean duration of one calm+burst cycle (simulated time).
    arrival_cycle_time: float = 200.0
    #: Service-time family for local tasks and subtasks: "exponential"
    #: (the paper), "pareto", or "lognormal".  Means are pinned to
    #: ``1/mu`` so the load arithmetic is unchanged.
    service_model: str = "exponential"
    #: Pareto shape (tail index) when ``service_model == "pareto"``.
    service_shape: float = 2.2
    #: Log-space sigma when ``service_model == "lognormal"``.
    service_sigma: float = 1.0
    #: Subtask placement policy: "uniform" (the paper), "round-robin",
    #: "zipf" (hotspot), or "least-outstanding" (join-shortest-queue).
    placement: str = "uniform"
    #: Zipf skew exponent when ``placement == "zipf"`` (0 = uniform).
    placement_zipf_s: float = 1.0
    #: Optional per-node service-speed factors (heterogeneous hardware):
    #: node ``i`` serves in ``ex / factor_i`` time.  ``None`` = homogeneous.
    node_speed_factors: Optional[Tuple[float, ...]] = None
    #: Optional piecewise time-varying load: ``((duration_fraction,
    #: rate_multiplier), ...)`` segments spanning ``sim_time`` in order;
    #: arrival rates are scaled by the active segment's multiplier (the
    #: last segment persists past the end).  ``None`` = stationary.
    load_profile: Optional[Tuple[Tuple[float, float], ...]] = None
    #: Optional node-failure model (crash/recovery processes, crash
    #: semantics, retry/backoff knobs; see :mod:`repro.system.faults`).
    #: ``None`` -- and any spec with ``mttf == 0`` -- wires nothing, so
    #: fault-free runs stay bit-identical to the pre-fault engine.
    faults: Optional[FaultSpec] = None
    #: Optional failure-detection model (heartbeats over lossy/delayed
    #: links feeding a timeout or phi-accrual detector; see
    #: :mod:`repro.system.detector`).  ``None`` -- and any spec with
    #: ``heartbeat_interval == 0`` -- wires nothing: placement and retry
    #: keep consulting the oracle live set, bit-identical to before.
    detector: Optional[DetectorSpec] = None

    # -- run control ----------------------------------------------------------
    #: Length of one run in simulated time units (the paper used 1e6).
    sim_time: float = 20_000.0
    #: Transient phase discarded before statistics start.
    warmup_time: float = 2_000.0
    #: Master random seed.
    seed: int = 1

    # -- validation ------------------------------------------------------------

    def __post_init__(self) -> None:
        # Fleet-scale configs (10^4 - 10^5 nodes) are first-class:
        # validation stays O(1) in the node count except where a
        # per-node tuple (speeds, weights) is actually supplied.  The
        # strict int check matters at that scale -- a float node count
        # (e.g. 1e5) would slip past a ``< 1`` bound and break every
        # ``range(node_count)`` downstream.
        if not isinstance(self.node_count, int) or self.node_count < 1:
            raise ValueError(
                f"node_count must be an int >= 1, got {self.node_count!r}"
            )
        if not isinstance(self.subtask_count, int) or self.subtask_count < 1:
            raise ValueError(
                f"subtask_count must be an int >= 1, got "
                f"{self.subtask_count!r}"
            )
        if not 0.0 <= self.load < 1.0:
            raise ValueError(f"load must lie in [0, 1), got {self.load}")
        if not 0.0 <= self.frac_local <= 1.0:
            raise ValueError(
                f"frac_local must lie in [0, 1], got {self.frac_local}"
            )
        # Real-valued knobs are checked as NOT (finite and in range), so
        # NaN and infinities are rejected here rather than slipping past
        # a plain ``<= 0`` and failing later in the distribution code.
        if not all(
            math.isfinite(mu) and mu > 0
            for mu in (self.mu_local, self.mu_subtask)
        ):
            raise ValueError(
                f"service rates must be finite and positive, got "
                f"{self.mu_local} / {self.mu_subtask}"
            )
        slack_lo, slack_hi = self.slack_range
        if not (
            math.isfinite(slack_lo) and math.isfinite(slack_hi)
            and 0 <= slack_lo <= slack_hi
        ):
            raise ValueError(f"bad slack range {self.slack_range}")
        if not (math.isfinite(self.rel_flex) and self.rel_flex >= 0):
            raise ValueError(
                f"rel_flex must be finite and non-negative: {self.rel_flex}"
            )
        if not 0.0 <= self.pex_error < 1.0:
            raise ValueError(f"pex_error must lie in [0, 1): {self.pex_error}")
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"unknown overload_policy {self.overload_policy!r}; "
                f"expected one of {tuple(OVERLOAD_POLICIES)}"
            )
        if self.task_structure not in _STRUCTURES:
            raise ValueError(
                f"unknown task_structure {self.task_structure!r}; "
                f"expected one of {_STRUCTURES}"
            )
        if not (
            math.isfinite(self.warmup_time) and math.isfinite(self.sim_time)
        ) or self.warmup_time < 0 or self.sim_time <= self.warmup_time:
            raise ValueError(
                f"need finite 0 <= warmup_time < sim_time, got "
                f"{self.warmup_time} / {self.sim_time}"
            )
        if self.subtask_count_range is not None:
            lo, hi = self.subtask_count_range
            if lo < 1 or hi < lo:
                raise ValueError(
                    f"bad subtask_count_range {self.subtask_count_range}"
                )
        if self.local_load_weights is not None:
            if len(self.local_load_weights) != self.node_count:
                raise ValueError(
                    "local_load_weights must have one weight per node "
                    f"({self.node_count}), got {len(self.local_load_weights)}"
                )
            if any(w < 0 for w in self.local_load_weights):
                raise ValueError("local load weights must be non-negative")
            if sum(self.local_load_weights) == 0:
                raise ValueError("local load weights must not all be zero")
        if self.arrival_model not in _ARRIVAL_MODELS:
            raise ValueError(
                f"unknown arrival_model {self.arrival_model!r}; "
                f"expected one of {_ARRIVAL_MODELS}"
            )
        if self.arrival_model == "hyperexp" and not (
            math.isfinite(self.arrival_cv2) and self.arrival_cv2 >= 1.0
        ):
            raise ValueError(
                f"arrival_cv2 must be finite and >= 1 for hyperexp, got "
                f"{self.arrival_cv2}"
            )
        if self.arrival_model == "mmpp2":
            if not (
                math.isfinite(self.arrival_burst_ratio)
                and self.arrival_burst_ratio >= 1.0
            ):
                raise ValueError(
                    f"arrival_burst_ratio must be finite and >= 1, got "
                    f"{self.arrival_burst_ratio}"
                )
            if not 0.0 < self.arrival_burst_fraction < 1.0:
                raise ValueError(
                    f"arrival_burst_fraction must lie in (0, 1), got "
                    f"{self.arrival_burst_fraction}"
                )
            if not (
                math.isfinite(self.arrival_cycle_time)
                and self.arrival_cycle_time > 0
            ):
                raise ValueError(
                    f"arrival_cycle_time must be finite and positive, got "
                    f"{self.arrival_cycle_time}"
                )
        if self.service_model not in _SERVICE_MODELS:
            raise ValueError(
                f"unknown service_model {self.service_model!r}; "
                f"expected one of {_SERVICE_MODELS}"
            )
        if self.service_model == "pareto" and not (
            math.isfinite(self.service_shape) and self.service_shape > 1.0
        ):
            raise ValueError(
                f"service_shape must be finite and exceed 1, got "
                f"{self.service_shape}"
            )
        if self.service_model == "lognormal" and not (
            math.isfinite(self.service_sigma) and self.service_sigma > 0
        ):
            raise ValueError(
                f"service_sigma must be finite and positive, got "
                f"{self.service_sigma}"
            )
        if self.placement not in _PLACEMENT_MODELS:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"expected one of {_PLACEMENT_MODELS}"
            )
        if self.placement == "zipf" and not (
            math.isfinite(self.placement_zipf_s) and self.placement_zipf_s >= 0
        ):
            raise ValueError(
                f"placement_zipf_s must be finite and non-negative, got "
                f"{self.placement_zipf_s}"
            )
        if self.node_speed_factors is not None:
            if len(self.node_speed_factors) != self.node_count:
                raise ValueError(
                    "node_speed_factors must have one factor per node "
                    f"({self.node_count}), got {len(self.node_speed_factors)}"
                )
            # NOT-greater-than comparisons, so NaN factors are rejected
            # too (NaN would otherwise slip past `f <= 0` and poison the
            # event clock via ex / speed).
            if not all(
                math.isfinite(f) and f > 0 for f in self.node_speed_factors
            ):
                raise ValueError(
                    f"node speed factors must be finite and positive, got "
                    f"{self.node_speed_factors}"
                )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise ValueError(
                f"faults must be a FaultSpec or None, got "
                f"{type(self.faults).__name__}"
            )
        if self.detector is not None and not isinstance(
            self.detector, DetectorSpec
        ):
            raise ValueError(
                f"detector must be a DetectorSpec or None, got "
                f"{type(self.detector).__name__}"
            )
        if self.load_profile is not None:
            if not self.load_profile:
                raise ValueError("load_profile must have at least one segment")
            for segment in self.load_profile:
                if len(segment) != 2:
                    raise ValueError(
                        f"load_profile segments are (duration_fraction, "
                        f"multiplier) pairs, got {segment!r}"
                    )
                fraction, multiplier = segment
                if not (math.isfinite(fraction) and fraction > 0):
                    raise ValueError(
                        f"load_profile duration fractions must be finite "
                        f"and positive, got {fraction}"
                    )
                if not (math.isfinite(multiplier) and multiplier > 0):
                    raise ValueError(
                        f"load_profile multipliers must be finite and "
                        f"positive, got {multiplier}"
                    )
            total = sum(fraction for fraction, _ in self.load_profile)
            if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
                raise ValueError(
                    f"load_profile duration fractions must sum to 1, got "
                    f"{total}"
                )
        if self.peak_load >= 1.0 and self.load > 0:
            raise ValueError(
                f"peak normalized load {self.peak_load:.3f} >= 1 "
                "(unstable): lower load, flatten the load_profile, or "
                "raise the slowest node's speed factor"
            )
        if self.task_structure == PARALLEL and (
            self.subtask_count > self.node_count
        ):
            raise ValueError(
                f"parallel fan-out {self.subtask_count} exceeds node count "
                f"{self.node_count}"
            )
        if self.task_structure == SERIAL_PARALLEL and (
            self.stage_width > self.node_count
        ):
            raise ValueError(
                f"stage width {self.stage_width} exceeds node count "
                f"{self.node_count}"
            )

    # -- derived workload parameters -----------------------------------------

    @property
    def mean_subtask_count(self) -> float:
        """``E[m]``: expected number of simple subtasks per global task."""
        if self.task_structure == SERIAL_PARALLEL:
            return float(self.stages * self.stage_width)
        if self.subtask_count_range is not None:
            lo, hi = self.subtask_count_range
            return (lo + hi) / 2.0
        return float(self.subtask_count)

    @property
    def local_arrival_rate(self) -> float:
        """Per-node local arrival rate ``lambda_local``."""
        return self.load * self.frac_local * self.mu_local

    @property
    def global_arrival_rate(self) -> float:
        """Rate of the single global-task Poisson stream ``lambda_global``."""
        if self.frac_local >= 1.0:
            return 0.0
        return (
            self.load
            * (1.0 - self.frac_local)
            * self.node_count
            * self.mu_subtask
            / self.mean_subtask_count
        )

    def node_local_rates(self) -> Tuple[float, ...]:
        """Per-node local arrival rates (honors heterogeneity weights)."""
        base = self.local_arrival_rate
        if self.local_load_weights is None:
            return tuple(base for _ in range(self.node_count))
        total = sum(self.local_load_weights)
        scale = self.node_count / total
        return tuple(base * w * scale for w in self.local_load_weights)

    @property
    def mean_global_execution(self) -> float:
        """Expected total service demand of one global task."""
        return self.mean_subtask_count / self.mu_subtask

    @property
    def mean_critical_path(self) -> float:
        """Expected execution envelope (no queueing) of one global task."""
        stage_mean = 1.0 / self.mu_subtask
        if self.task_structure == SERIAL:
            return self.mean_subtask_count * stage_mean
        if self.task_structure == PARALLEL:
            return stage_mean * harmonic(self.subtask_count)
        return self.stages * stage_mean * harmonic(self.stage_width)

    @property
    def global_slack_scale(self) -> float:
        """Scale applied to the local slack range for serial(-parallel) tasks.

        Chosen so that global and local tasks have equal expected
        flexibility when ``rel_flex = 1``: slack scales with the ratio of
        expected execution demands.
        """
        mean_local_ex = 1.0 / self.mu_local
        return self.rel_flex * self.mean_critical_path / mean_local_ex

    @property
    def peak_load(self) -> float:
        """Worst-case normalized load over time and nodes.

        A conservative stability bound for the scenario dimensions: the
        stationary ``load`` scaled by the largest load-profile multiplier
        and divided by the slowest node's speed factor.  Equals ``load``
        for the paper's homogeneous stationary model; library scenarios
        are validated to keep this below 1.
        """
        peak = self.load
        if self.load_profile is not None:
            peak *= max(multiplier for _, multiplier in self.load_profile)
        if self.node_speed_factors is not None:
            peak /= min(self.node_speed_factors)
        return peak

    # -- distribution builders ---------------------------------------------

    def local_execution_distribution(self) -> Distribution:
        return self._execution_distribution(self.mu_local)

    def subtask_execution_distribution(self) -> Distribution:
        return self._execution_distribution(self.mu_subtask)

    def _execution_distribution(self, rate: float) -> Distribution:
        """Service-time distribution with mean ``1/rate`` per the scenario
        service model (the mean is pinned so load arithmetic holds)."""
        if self.service_model == "pareto":
            return Pareto(1.0 / rate, self.service_shape)
        if self.service_model == "lognormal":
            return Lognormal(1.0 / rate, self.service_sigma)
        return _exponential_with_rate(rate)

    def interarrival_distribution(self, rate: float) -> Distribution:
        """Interarrival distribution for a stream of mean rate ``rate``
        per the scenario arrival model ("poisson" is the paper)."""
        if self.arrival_model == "hyperexp":
            return Hyperexponential(1.0 / rate, self.arrival_cv2)
        if self.arrival_model == "mmpp2":
            return MMPP2Interarrival(
                1.0 / rate,
                self.arrival_burst_ratio,
                self.arrival_burst_fraction,
                self.arrival_cycle_time,
            )
        return exponential_interarrival(rate)

    def local_slack_distribution(self) -> Uniform:
        return Uniform(*self.slack_range)

    def global_slack_distribution(self) -> Uniform:
        """Slack distribution for global tasks, per task structure."""
        if self.task_structure == PARALLEL:
            return Uniform(*self.parallel_slack_range)
        return self.local_slack_distribution().scaled(self.global_slack_scale)

    def subtask_count_distribution(self) -> Distribution:
        if self.subtask_count_range is not None:
            return DiscreteUniform(*self.subtask_count_range)
        return Deterministic(self.subtask_count)

    def make_estimator(self) -> Estimator:
        return uniform_error_estimator(self.pex_error)

    # -- convenience ---------------------------------------------------------

    def with_(self, **overrides) -> "SystemConfig":
        """Functional update (``dataclasses.replace`` with a short name)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line human-readable summary for logs and reports."""
        return (
            f"{self.task_structure} strategy={self.strategy} "
            f"load={self.load:g} frac_local={self.frac_local:g} "
            f"k={self.node_count} m={self.subtask_count} "
            f"sched={self.scheduler} seed={self.seed}"
        )


def _exponential_with_rate(rate: float) -> Distribution:
    from ..sim.distributions import Exponential

    return Exponential(1.0 / rate)


def baseline_config(**overrides) -> SystemConfig:
    """Table 1's baseline experiment (serial global tasks, UD strategy).

    Keyword overrides are applied on top, e.g.
    ``baseline_config(strategy="EQF", load=0.3)``.
    """
    return SystemConfig().with_(**overrides) if overrides else SystemConfig()


def parallel_baseline_config(**overrides) -> SystemConfig:
    """The Sec. 5.2 parallel baseline: fans of 4 at distinct nodes, slack
    ``U[1.25, 5.0]``."""
    config = SystemConfig(task_structure=PARALLEL)
    return config.with_(**overrides) if overrides else config


def serial_parallel_config(**overrides) -> SystemConfig:
    """The Sec. 6 experiment: serial chains of parallel stages."""
    config = SystemConfig(
        task_structure=SERIAL_PARALLEL,
        stages=2,
        stage_width=2,
        strategy="UD-UD",
    )
    return config.with_(**overrides) if overrides else config


def verify_load_arithmetic(config: SystemConfig) -> float:
    """Recompute the normalized load from the derived rates.

    Returns the reconstructed load; tests assert it equals ``config.load``.
    This is the inverse of the rate derivation and guards against the
    classic simulation bug of mis-scaled arrival rates.
    """
    local_work = config.node_count * config.local_arrival_rate / config.mu_local
    global_work = (
        config.global_arrival_rate
        * config.mean_subtask_count
        / config.mu_subtask
    )
    return (local_work + global_work) / config.node_count


def expected_frac_local(config: SystemConfig) -> float:
    """Recompute ``frac_local`` from the derived rates (test helper)."""
    if config.load == 0:
        return math.nan
    local_work = config.node_count * config.local_arrival_rate / config.mu_local
    return local_work / (config.node_count * config.load)
