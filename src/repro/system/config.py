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

Each field is declared with :func:`param`, giving its :class:`Domain`
(the values it accepts; a scenario dimension's label) in the table
:data:`DOMAINS`.  Construction walks the table, so a bad value fails
there, naming its field; only the rules that tie fields together are
written out.  ``ScenarioSpec.describe`` takes its labels from the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.estimators import Estimator, uniform_error_estimator
from ..core.strategies import parse_assigner
from ..sim.distributions import (
    Deterministic,
    DiscreteUniform,
    Distribution,
    Exponential,
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
from .schedulers import get_policy

#: Task-structure selectors (which experiment family a config runs).
SERIAL = "serial"
PARALLEL = "parallel"
SERIAL_PARALLEL = "serial-parallel"

#: Domain kinds beyond the ``int``/``float``/``bool``/``str`` of a default.
PAIR = "pair"
PER_NODE = "per-node"
PROFILE = "profile"

#: ``when`` guards of the arrival-model parameters.
_HYPEREXP = ("arrival_model", "hyperexp")
_MMPP2 = ("arrival_model", "mmpp2")

#: What each kind of domain accepts, for error messages.
_EXPECTS = {
    int: "an int",
    float: "a real",
    bool: "a bool",
    PAIR: "a (lo, hi) pair of {d.of.__name__}s, lo <= hi,",
    PER_NODE: "a tuple of {d.noun}s",
    PROFILE: "a non-empty tuple of (duration_fraction, rate_multiplier) "
    "pairs, fractions and multipliers",
}


@dataclass
class Domain:
    """The values one :class:`SystemConfig` field accepts.

    ``kind`` is ``int`` or ``float`` (a bool is neither), ``bool``,
    ``str`` (one of ``choices``, or a name ``check`` accepts: it raises
    ``ValueError`` on any other), :data:`PAIR` (a ``(lo, hi)`` tuple of
    ``of``), :data:`PER_NODE` (one real per node, each a ``noun``),
    :data:`PROFILE` (``(duration_fraction, rate_multiplier)`` pairs) or
    a spec class.  Numbers, inside tuples too, lie in the interval
    ``bounds``, e.g. ``"[0, 1)"``; a real is finite.  ``None`` is
    accepted where it is the default.  A ``when=(selector, value)``
    domain applies only while the selector field holds that value.  A
    scenario dimension's selector has the ``describe`` ``label`` of a
    value (``None`` prints nothing) and the label's ``rank``.
    """

    kind: Any
    default: Any = None
    bounds: str = ""
    choices: Any = ()
    check: Optional[Callable[[str], Any]] = None
    of: type = float
    noun: str = ""
    when: Optional[Tuple[str, Any]] = None
    label: Optional[Callable[[Any], Optional[str]]] = None
    rank: int = 0

    def __post_init__(self) -> None:
        ends = self.bounds[1:-1].split(",") if self.bounds else ("-inf", "inf")
        self.lo, self.hi = (float(end) for end in ends)
        self.lo_open = self.bounds.startswith("(")
        self.hi_open = self.bounds.endswith(")")

    def accepts(self, value: Any) -> bool:
        """Whether ``value`` lies in the domain; a ``check`` raises its
        own ``ValueError`` instead of returning ``False``."""
        kind = self.kind
        if kind is float or kind is int:
            return self._number(value, kind)
        if value is None:
            return self.default is None
        if kind is str:
            if self.check is not None and isinstance(value, str):
                self.check(value)
                return True
            return isinstance(value, str) and value in self.choices
        if kind is bool:
            return isinstance(value, bool)
        if kind == PAIR:
            return (
                isinstance(value, tuple) and len(value) == 2
                and all(self._number(item, self.of) for item in value)
                and value[0] <= value[1]
            )
        if kind == PER_NODE:
            return isinstance(value, tuple) and all(
                self._number(item, float) for item in value
            )
        if kind == PROFILE:
            return isinstance(value, tuple) and len(value) > 0 and all(
                isinstance(segment, tuple) and len(segment) == 2
                and all(self._number(item, float) for item in segment)
                for segment in value
            )
        return isinstance(value, kind)

    def _number(self, value: Any, kind: type) -> bool:
        if isinstance(value, bool) or not isinstance(
            value, int if kind is int else (int, float)
        ):
            return False
        return (
            (self.lo < value if self.lo_open else self.lo <= value)
            and (value < self.hi if self.hi_open else value <= self.hi)
            and (isinstance(value, int) or math.isfinite(value))
        )

    def expects(self) -> str:
        """What the domain accepts, for error messages."""
        if self.kind is str:
            text = "a str" if self.check else f"one of {tuple(self.choices)}"
        else:
            text = _EXPECTS.get(self.kind, "a {d.kind.__name__}")
            text = text.format(d=self)
        text += f" in {self.bounds}" if self.bounds else ""
        return text if self.default is not None else f"{text} or None"


#: Metadata key of a field's :class:`Domain`.
_DOMAIN = "domain"


def param(default: Any, bounds: str = "", **domain: Any) -> Any:
    """A :class:`SystemConfig` field: ``default`` is the field default,
    the rest its :class:`Domain`, whose ``kind`` defaults to the
    default's type."""
    domain.setdefault("kind", type(default))
    domain = Domain(default=default, bounds=bounds, **domain)
    return field(default=default, metadata={_DOMAIN: domain})


def _spec_label(spec: Any) -> Optional[str]:
    """A fault or detector spec's label: its summary, if it wires
    anything."""
    return spec.describe() if spec.enabled else None


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
    tasks and the UD strategy.  Each field's :class:`Domain` is declared
    with it; see :data:`DOMAINS`.
    """

    # -- Table 1 ----------------------------------------------------------
    #: Number of homogeneous nodes ``k``.
    node_count: int = param(6, "[1, inf)")
    #: Subtasks per global task ``m`` (fixed unless ``subtask_count_range``).
    subtask_count: int = param(4, "[1, inf)")
    #: Normalized system load (0 <= load < 1 for stability).
    load: float = param(0.5, "[0, 1)")
    #: Fraction of the load contributed by local tasks.
    frac_local: float = param(0.75, "[0, 1]")
    #: Local-task service *rate* ``mu_local`` (mean ex = 1/mu_local).
    mu_local: float = param(1.0, "(0, inf)")
    #: Subtask service *rate* ``mu_subtask``.
    mu_subtask: float = param(1.0, "(0, inf)")
    #: Local-task slack range ``[Smin, Smax]``.
    slack_range: Tuple[float, float] = param(
        (0.25, 2.5), "[0, inf)", kind=PAIR
    )
    #: Relative flexibility of global vs. local tasks.
    rel_flex: float = param(1.0, "[0, inf)")
    #: Relative error of execution-time prediction (0 = perfect, Table 1).
    pex_error: float = param(0.0, "[0, 1)")
    #: Local scheduling policy: "EDF", "MLF", or "FCFS".
    scheduler: str = param("EDF", check=get_policy)
    #: Overload policy: "no-abort" (Table 1), "abort-tardy", or
    #: "abort-virtual".
    overload_policy: str = param(
        "no-abort", choices=OVERLOAD_POLICIES, label="overload={}".format,
        rank=5,
    )
    #: Preemptive-resume servers instead of the paper's non-preemptive ones
    #: (extension; see :mod:`repro.system.preemptive`).
    preemptive: bool = param(False)
    #: Record an execution trace (see :mod:`repro.system.tracing`).  Off by
    #: default: traces grow with every unit executed.
    trace: bool = param(False)

    # -- SDA strategy -------------------------------------------------------
    #: Strategy name: an SSP name ("UD", "ED", "EQS", "EQF"), a PSP name
    #: ("DIV-1", "GF", ...), or a combination ("EQF-DIV1").
    strategy: str = param("UD", check=parse_assigner)

    # -- global task shape ---------------------------------------------------
    #: One of "serial", "parallel", "serial-parallel".
    task_structure: str = param(
        SERIAL, choices=(SERIAL, PARALLEL, SERIAL_PARALLEL)
    )
    #: For serial-parallel trees: number of serial stages.
    stages: int = param(2, "[1, inf)")
    #: For serial-parallel trees: parallel width of each stage.
    stage_width: int = param(2, "[1, inf)")
    #: Slack range of parallel fans (Sec. 5.2 baseline).
    parallel_slack_range: Tuple[float, float] = param(
        (1.25, 5.0), "[0, inf)", kind=PAIR
    )
    #: If set, the number of subtasks of each serial task is drawn uniformly
    #: from this inclusive integer range (Sec. 4.3 variation).
    subtask_count_range: Optional[Tuple[int, int]] = param(
        None, "[1, inf)", kind=PAIR, of=int
    )

    # -- heterogeneity (Sec. 4.3 variation) -----------------------------------
    #: Optional per-node weights for the local arrival rates.  ``None``
    #: means homogeneous.  Weights are normalized; total local load is kept.
    local_load_weights: Optional[Tuple[float, ...]] = param(
        None, "[0, inf)", kind=PER_NODE, noun="weight"
    )

    # -- scenario dimensions (repro.scenarios; defaults = the paper) ----------
    #: Arrival-process family for local and global streams: "poisson"
    #: (the paper), "hyperexp" (bursty, CV^2 > 1), or "mmpp2" (2-state
    #: Markov-modulated bursts).
    arrival_model: str = param(
        "poisson", choices=("poisson", "hyperexp", "mmpp2"),
        label="arrival={}".format, rank=0,
    )
    #: Squared coefficient of variation of hyperexponential interarrivals.
    arrival_cv2: float = param(1.0, "[1, inf)", when=_HYPEREXP)
    #: MMPP2: arrival-rate multiplier of the burst state (>= 1).
    arrival_burst_ratio: float = param(4.0, "[1, inf)", when=_MMPP2)
    #: MMPP2: stationary fraction of time spent in the burst state.
    arrival_burst_fraction: float = param(0.2, "(0, 1)", when=_MMPP2)
    #: MMPP2: mean duration of one calm+burst cycle (simulated time).
    arrival_cycle_time: float = param(200.0, "(0, inf)", when=_MMPP2)
    #: Service-time family for local tasks and subtasks: "exponential"
    #: (the paper), "pareto", or "lognormal".  Means are pinned to
    #: ``1/mu`` so the load arithmetic is unchanged.
    service_model: str = param(
        "exponential", choices=("exponential", "pareto", "lognormal"),
        label="service={}".format, rank=1,
    )
    #: Pareto shape (tail index) when ``service_model == "pareto"``.
    service_shape: float = param(
        2.2, "(1, inf)", when=("service_model", "pareto")
    )
    #: Log-space sigma when ``service_model == "lognormal"``.
    service_sigma: float = param(
        1.0, "(0, inf)", when=("service_model", "lognormal")
    )
    #: Subtask placement policy: "uniform" (the paper), "round-robin",
    #: "zipf" (hotspot), or "least-outstanding" (join-shortest-queue).
    #: The choices are the policy module's own, so the validated names
    #: and the wired policies cannot drift apart.
    placement: str = param(
        "uniform", choices=PLACEMENT_POLICIES, label="placement={}".format,
        rank=2,
    )
    #: Zipf skew exponent when ``placement == "zipf"`` (0 = uniform).
    placement_zipf_s: float = param(
        1.0, "[0, inf)", when=("placement", "zipf")
    )
    #: Optional per-node service-speed factors (heterogeneous hardware):
    #: node ``i`` serves in ``ex / factor_i`` time.  ``None`` = homogeneous.
    node_speed_factors: Optional[Tuple[float, ...]] = param(
        None, "(0, inf)", kind=PER_NODE, noun="speed factor",
        label=lambda _: "heterogeneous-speeds", rank=6,
    )
    #: Optional piecewise time-varying load: ``((duration_fraction,
    #: rate_multiplier), ...)`` segments spanning ``sim_time`` in order;
    #: arrival rates are scaled by the active segment's multiplier (the
    #: last segment persists past the end).  ``None`` = stationary.
    load_profile: Optional[Tuple[Tuple[float, float], ...]] = param(
        None, "(0, inf)", kind=PROFILE, label=lambda _: "time-varying-load",
        rank=7,
    )
    #: Optional node-failure model (crash/recovery processes, crash
    #: semantics, retry/backoff knobs; see :mod:`repro.system.faults`).
    #: ``None`` -- and any spec with ``mttf == 0`` -- wires nothing, so
    #: fault-free runs stay bit-identical to the pre-fault engine.
    faults: Optional[FaultSpec] = param(
        None, kind=FaultSpec, label=_spec_label, rank=3
    )
    #: Optional failure-detection model (heartbeats over lossy/delayed
    #: links feeding a timeout or phi-accrual detector; see
    #: :mod:`repro.system.detector`).  ``None`` -- and any spec with
    #: ``heartbeat_interval == 0`` -- wires nothing: placement and retry
    #: keep consulting the oracle live set, bit-identical to before.
    detector: Optional[DetectorSpec] = param(
        None, kind=DetectorSpec, label=_spec_label, rank=4
    )

    # -- run control ----------------------------------------------------------
    #: Length of one run in simulated time units (the paper used 1e6).
    sim_time: float = param(20_000.0, "(0, inf)")
    #: Transient phase discarded before statistics start.
    warmup_time: float = param(2_000.0, "[0, inf)")
    #: Master random seed.
    seed: int = param(1)

    # -- validation ------------------------------------------------------------

    def __post_init__(self) -> None:
        # One walk over the field table, then the rules that tie fields
        # together.  A field still holding its default object is skipped:
        # every default lies in its domain.  Fleet-scale configs (10^5
        # nodes) are first-class: validation is O(1) in the node count
        # unless a per-node tuple is actually supplied.
        for name, domain in DOMAINS.items():
            value = getattr(self, name)
            if value is domain.default or (
                domain.when is not None
                and getattr(self, domain.when[0]) != domain.when[1]
            ):
                continue
            try:
                accepted = domain.accepts(value)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            if not accepted:
                raise ValueError(
                    f"{name} must be {domain.expects()}, got {value!r}"
                )
        for holds, problem in _RULES:
            if not holds(self):
                raise ValueError(problem.format(c=self))

    # -- derived workload parameters -----------------------------------------

    def task_shape(self) -> Tuple[Distribution, Optional[int]]:
        """The shape of a global task, ``(stages, width)``: the law of its
        number of serial stages, and the width of each stage's fan
        (``None``: a chain's stages of one leaf each).

        The factory builds tasks of this shape, and
        :attr:`mean_subtask_count` and :attr:`mean_critical_path` read
        it, so the task builder and the rate arithmetic cannot disagree.
        """
        if self.task_structure == SERIAL:
            return self.subtask_count_distribution(), None
        if self.task_structure == PARALLEL:
            return Deterministic(1), self.subtask_count
        return Deterministic(self.stages), self.stage_width

    @property
    def mean_subtask_count(self) -> float:
        """``E[m]``: expected number of simple subtasks per global task."""
        stages, width = self.task_shape()
        return float(stages.mean * (width or 1))

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
    def mean_critical_path(self) -> float:
        """Expected execution envelope (no queueing) of one global task:
        per stage, the mean of the longest of ``width`` exponential
        subtasks."""
        stages, width = self.task_shape()
        return stages.mean * (1.0 / self.mu_subtask) * harmonic(width or 1)

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
        return Exponential(1.0 / rate)

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


#: Every field's :class:`Domain`, in field order.
DOMAINS: Dict[str, Domain] = {
    f.name: f.metadata[_DOMAIN] for f in fields(SystemConfig)
}

#: The rules that tie fields together: ``(holds(config), message)``.
_RULES: Tuple[Tuple[Callable[[SystemConfig], bool], str], ...] = (
    (lambda c: c.warmup_time < c.sim_time,
     "need warmup_time < sim_time, got {c.warmup_time} / {c.sim_time}"),
    (lambda c: c.local_load_weights is None
     or len(c.local_load_weights) == c.node_count,
     "local_load_weights must have one weight per node ({c.node_count})"),
    (lambda c: c.node_speed_factors is None
     or len(c.node_speed_factors) == c.node_count,
     "node_speed_factors must have one speed factor per node "
     "({c.node_count})"),
    (lambda c: c.local_load_weights is None or any(c.local_load_weights),
     "local_load_weights must not all be zero"),
    (lambda c: c.load_profile is None or math.isclose(
        sum(fraction for fraction, _ in c.load_profile), 1.0,
        rel_tol=1e-9, abs_tol=1e-9),
     "load_profile duration fractions must sum to 1, got {c.load_profile}"),
    (lambda c: c.task_structure != PARALLEL
     or c.subtask_count <= c.node_count,
     "parallel fan-out {c.subtask_count} exceeds node count {c.node_count}"),
    (lambda c: c.task_structure != SERIAL_PARALLEL
     or c.stage_width <= c.node_count,
     "stage width {c.stage_width} exceeds node count {c.node_count}"),
    # A fan is always ``subtask_count`` wide and a tree ``stage_width``
    # wide, so a range elsewhere would only skew the derived arrival rate.
    (lambda c: c.subtask_count_range is None or c.task_structure == SERIAL,
     "subtask_count_range applies to serial chains only, not to "
     "task_structure {c.task_structure!r}"),
    (lambda c: c.load == 0 or c.peak_load < 1.0,
     "peak normalized load {c.peak_load:.3f} >= 1 (unstable): lower load, "
     "flatten the load_profile, or raise the slowest node's speed factor"),
)


def baseline_config(**overrides) -> SystemConfig:
    """Table 1's baseline experiment (serial global tasks, UD strategy).

    Keyword overrides are applied on top, e.g.
    ``baseline_config(strategy="EQF", load=0.3)``.
    """
    return SystemConfig(**overrides)


def parallel_baseline_config(**overrides) -> SystemConfig:
    """The Sec. 5.2 parallel baseline: fans of 4 at distinct nodes, slack
    ``U[1.25, 5.0]``."""
    return SystemConfig(**{"task_structure": PARALLEL, **overrides})


def serial_parallel_config(**overrides) -> SystemConfig:
    """The Sec. 6 experiment: serial chains of parallel stages."""
    return SystemConfig(**{
        "task_structure": SERIAL_PARALLEL, "stages": 2, "stage_width": 2,
        "strategy": "UD-UD", **overrides,
    })


def expected_frac_local(config: SystemConfig) -> float:
    """Recompute ``frac_local`` from the derived rates (test helper)."""
    if config.load == 0:
        return math.nan
    local_work = config.node_count * config.local_arrival_rate / config.mu_local
    return local_work / (config.node_count * config.load)
