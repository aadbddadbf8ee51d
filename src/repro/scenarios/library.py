"""The curated scenario library: named workloads beyond the paper's model.

Each scenario is a name plus the :class:`~repro.system.config.SystemConfig`
fields it overrides: it turns exactly the knobs its name promises and
keeps the rest at the paper's Table 1 baseline, so strategy rankings are
attributable to the dimension under study.  A fault or detector model
shared by several scenarios is declared once, as a module constant.
All scenarios are validated stable (worst-case normalized load below 1;
see :attr:`~repro.scenarios.spec.ScenarioSpec.peak_load`) by the
property tests in ``tests/scenarios``.

``baseline`` is special: it reduces to the plain ``SystemConfig()`` path
and is pinned bit-identical to the pre-scenario engine by the golden
determinism gate.
"""

from __future__ import annotations

from typing import Tuple

from ..system.detector import DetectorSpec
from ..system.faults import FaultSpec
from .spec import ScenarioSpec

#: The Table 1 model, untouched (the control every comparison needs).
BASELINE = ScenarioSpec(
    name="baseline",
    description="The paper's homogeneous model (Table 1), unchanged.",
)

#: Bursty arrivals via hyperexponential interarrival times (CV^2 = 4):
#: the same mean rate delivered in clumps.
BURSTY_HYPEREXP = ScenarioSpec(
    name="bursty-hyperexp",
    description="Bursty arrivals: hyperexponential interarrivals, CV^2=4.",
    overrides=dict(arrival_model="hyperexp", arrival_cv2=4.0),
)

#: Bursty arrivals via a 2-state MMPP: calm traffic with sustained burst
#: episodes (4x rate, 20% of the time, ~200 time-unit cycles).
BURSTY_MMPP = ScenarioSpec(
    name="bursty-mmpp",
    description="Markov-modulated bursts: 4x arrival rate 20% of the time.",
    overrides=dict(
        arrival_model="mmpp2",
        arrival_burst_ratio=4.0,
        arrival_burst_fraction=0.2,
        arrival_cycle_time=200.0,
    ),
)

#: Heavy-tailed Pareto service (tail index 2.2: finite mean and variance,
#: but far heavier tails than exponential).
HEAVY_TAIL_PARETO = ScenarioSpec(
    name="heavy-tail-pareto",
    description="Pareto service times (shape 2.2), same mean demand.",
    overrides=dict(service_model="pareto", service_shape=2.2),
)

#: Lognormal service with log-sigma 1.2 (CV^2 ~ 3.2, skewed).
HEAVY_TAIL_LOGNORMAL = ScenarioSpec(
    name="heavy-tail-lognormal",
    description="Lognormal service times (sigma 1.2), same mean demand.",
    overrides=dict(service_model="lognormal", service_sigma=1.2),
)

#: Zipf-skewed hotspot placement: low-index nodes absorb most subtasks.
HOTSPOT_ZIPF = ScenarioSpec(
    name="hotspot-zipf",
    description="Zipf-skewed subtask placement (s=1.2): a hotspot node.",
    overrides=dict(placement="zipf", placement_zipf_s=1.2),
)

#: Join-the-shortest-queue routing of subtasks (the load-balancer model).
SMART_ROUTING = ScenarioSpec(
    name="smart-routing",
    description="Least-outstanding subtask placement (join shortest queue).",
    overrides=dict(placement="least-outstanding"),
)

#: Heterogeneous hardware: two fast, two stock, two slow nodes.
SLOW_NODES = ScenarioSpec(
    name="slow-nodes",
    description="Heterogeneous node speeds 1.3/1.0/0.7 (two of each).",
    overrides=dict(node_speed_factors=(1.3, 1.3, 1.0, 1.0, 0.7, 0.7)),
)

#: Rush hour: load ramps to 1.4x the stationary rate for the middle half
#: of the run, quiet shoulders either side.
RUSH_HOUR = ScenarioSpec(
    name="rush-hour",
    description="Time-varying load: 0.6x / 1.4x / 0.6x piecewise profile.",
    overrides=dict(load_profile=((0.25, 0.6), (0.5, 1.4), (0.25, 0.6))),
)

#: Everything at once at elevated load: the stress test.
STRESS_MIX = ScenarioSpec(
    name="stress-mix",
    description=(
        "Combined stress: bursty arrivals, Pareto service, Zipf hotspot, "
        "load 0.55."
    ),
    overrides=dict(
        arrival_model="hyperexp",
        arrival_cv2=2.0,
        service_model="pareto",
        service_shape=2.2,
        placement="zipf",
        placement_zipf_s=1.0,
        load=0.55,
    ),
)

#: Parallel fans under smart routing: distinct-node placement where the
#: policy actually chooses (exercises the PSP strategies end to end).
PARALLEL_SMART = ScenarioSpec(
    name="parallel-smart",
    description="Parallel fans (Sec. 5.2 structure) with least-outstanding placement.",
    overrides=dict(placement="least-outstanding", task_structure="parallel"),
)

#: The non-preemption ablation, otherwise untouched: how much of the
#: deadline-assignment story (EQS/EQF vs. UD/DIV) survives when nodes
#: may preempt?
PREEMPTIVE_BASELINE = ScenarioSpec(
    name="preemptive-baseline",
    description="Table 1 model on preemptive-resume servers (ablation).",
    overrides=dict(preemptive=True),
)

#: Preemption on heterogeneous hardware: remaining demand is rescaled by
#: the node's speed at every (re-)dispatch.
PREEMPTIVE_HETERO_SPEEDS = ScenarioSpec(
    name="preemptive-hetero-speeds",
    description=(
        "Preemptive-resume servers with node speeds 1.3/1.0/0.7 (two of "
        "each)."
    ),
    overrides=dict(
        node_speed_factors=(1.3, 1.3, 1.0, 1.0, 0.7, 0.7), preemptive=True
    ),
)

#: Preemption against heavy tails: urgent arrivals no longer wait behind
#: rare huge units, the scenario where preemptive-resume should shine.
PREEMPTIVE_HEAVY_TAIL = ScenarioSpec(
    name="preemptive-heavy-tail",
    description=(
        "Preemptive-resume servers under Pareto service times (shape 2.2)."
    ),
    overrides=dict(service_model="pareto", service_shape=2.2, preemptive=True),
)

#: Steady node churn: frequent independent crashes with quick repairs
#: (availability ~95%).  Gentle semantics (frozen in-flight work resumes,
#: queues survive) isolate the *latency* cost of downtime; the retry
#: layer re-routes subtasks that time out on a dead node.  Shared by
#: every churn scenario below.
STEADY_CHURN_FAULTS = FaultSpec(
    mttf=400.0,
    mttr=20.0,
    in_flight="resume",
    queued="preserved",
    retry_limit=2,
    retry_timeout=30.0,
    retry_backoff=1.0,
)

#: A realistic heartbeat channel: a timeout detector over delayed (mean
#: 0.5), 10%-lossy links.  Shared by the observed-churn scenarios.
LOSSY_TIMEOUT_DETECTOR = DetectorSpec(
    kind="timeout",
    heartbeat_interval=2.0,
    timeout=6.0,
    delay_mean=0.5,
    loss_probability=0.1,
)

STEADY_CHURN = ScenarioSpec(
    name="steady-churn",
    description=(
        "Steady node churn: MTTF 400, MTTR 20 per node; frozen work "
        "resumes; timed-out subtasks retried on live nodes."
    ),
    overrides=dict(faults=STEADY_CHURN_FAULTS),
)

#: Correlated outage bursts: rarer failures, but each takes half the
#: cluster down at once (rack/switch-style shared fate) for a long
#: repair.  Stresses failure-aware placement hardest -- the survivors
#: absorb the full load.
OUTAGE_BURST = ScenarioSpec(
    name="outage-burst",
    description=(
        "Correlated outages: each failure downs 3 of 6 nodes for MTTR 60 "
        "(MTTF 1500); frozen work resumes; retries re-route."
    ),
    overrides=dict(
        faults=FaultSpec(
            mttf=1500.0,
            mttr=60.0,
            blast_radius=3,
            in_flight="resume",
            queued="preserved",
            retry_limit=3,
            retry_timeout=45.0,
            retry_backoff=2.0,
        ),
    ),
)

#: Lossy recovery: crashes destroy the in-flight unit AND the ready
#: queue (no stable storage).  Without retries every lost subtask kills
#: its global task; the retry budget is what keeps MD_global bounded.
LOSSY_RECOVERY = ScenarioSpec(
    name="lossy-recovery",
    description=(
        "Lossy crashes: in-flight and queued work destroyed (MTTF 600, "
        "MTTR 25); lost subtasks retried up to 3 times with backoff."
    ),
    overrides=dict(
        faults=FaultSpec(
            mttf=600.0,
            mttr=25.0,
            in_flight="lost",
            queued="dropped",
            retry_limit=3,
            retry_backoff=0.5,
            retry_backoff_factor=2.0,
        ),
    ),
)

#: Churn x preemption: the steady-churn fault process on
#: preemptive-resume servers -- crash/recover interacts with
#: remaining-demand bookkeeping and mid-service revocation.
CHURN_PREEMPTIVE = ScenarioSpec(
    name="churn-preemptive",
    description=(
        "Steady node churn (MTTF 400, MTTR 20) on preemptive-resume "
        "servers."
    ),
    overrides=dict(faults=STEADY_CHURN_FAULTS, preemptive=True),
)

#: Steady churn observed through a realistic heartbeat channel: delayed
#: and lossy heartbeats mean the manager routes on *beliefs*, not ground
#: truth -- detection lags crashes, a few live nodes are falsely
#: suspected, and submits that race a crash bounce through the misroute
#: path.
LOSSY_HEARTBEATS = ScenarioSpec(
    name="lossy-heartbeats",
    description=(
        "Steady churn (MTTF 400, MTTR 20) seen through a timeout "
        "detector over delayed (mean 0.5), 10%-lossy heartbeat links."
    ),
    overrides=dict(
        faults=STEADY_CHURN_FAULTS, detector=LOSSY_TIMEOUT_DETECTOR
    ),
)

#: A sluggish detector against the same churn: the timeout is a sizable
#: fraction of the MTTR, so many crashes are *never* detected before the
#: node recovers (missed detections) and the manager keeps routing work
#: at dead nodes (misroutes carry the cost).
SLOW_DETECTOR_CHURN = ScenarioSpec(
    name="slow-detector-churn",
    description=(
        "Steady churn under a sluggish detector (timeout 15 vs MTTR "
        "20): missed detections and misrouted submits dominate."
    ),
    overrides=dict(
        faults=STEADY_CHURN_FAULTS,
        detector=DetectorSpec(
            kind="timeout",
            heartbeat_interval=3.0,
            timeout=15.0,
            delay_mean=1.0,
            loss_probability=0.05,
        ),
    ),
)

#: The pure false-positive regime: perfectly reliable nodes behind a
#: twitchy phi-accrual detector on a 30%-lossy channel.  Every suspicion
#: is false; the run measures what unwarranted drain-and-rehabilitate
#: cycles cost when nothing is actually wrong.
PARANOID_DETECTOR = ScenarioSpec(
    name="paranoid-detector",
    description=(
        "No faults at all: a paranoid phi-accrual detector (threshold "
        "1.5) over a 30%-lossy channel falsely suspects live nodes."
    ),
    overrides=dict(
        detector=DetectorSpec(
            kind="phi",
            heartbeat_interval=2.0,
            phi_threshold=1.5,
            loss_probability=0.3,
        ),
    ),
)

#: Observed churn on preemptive-resume servers: suspicion-driven routing
#: interacting with mid-service revocation and remaining-demand
#: bookkeeping.
DETECTOR_PREEMPTIVE = ScenarioSpec(
    name="detector-preemptive",
    description=(
        "Steady churn behind a timeout detector on preemptive-resume "
        "servers."
    ),
    overrides=dict(
        faults=STEADY_CHURN_FAULTS,
        detector=LOSSY_TIMEOUT_DETECTOR,
        preemptive=True,
    ),
)

#: Fleet scale: 10,000 nodes fed purely by the global stream (no local
#: sources), exercising the slotted node state and O(log n) placement
#: at fleet cardinality.  The load keeps the *global* task rate modest
#: (load * k * mu / E[m] = 5 tasks per time unit) so runs stay quick
#: while every per-node structure carries the full node count.
FLEET_UNIFORM = ScenarioSpec(
    name="fleet-uniform",
    description=(
        "Fleet scale: 10,000 nodes, global-only load, uniform placement."
    ),
    overrides=dict(node_count=10_000, frac_local=0.0, load=0.002),
)

#: Fleet scale with a Zipf hotspot: over 10k nodes at s=1.2, node 0
#: absorbs ~21% of all subtasks, so the load is set where the hottest
#: node stays clearly stable (utilization_0 ~ 0.21 * load * k / 1 ~ 0.63)
#: while 10,000 nodes' worth of placement state is exercised.
FLEET_SKEWED = ScenarioSpec(
    name="fleet-skewed",
    description=(
        "Fleet scale: 10,000 nodes, Zipf-skewed placement (s=1.2), "
        "global-only load sized for a stable hotspot."
    ),
    overrides=dict(
        placement="zipf",
        placement_zipf_s=1.2,
        node_count=10_000,
        frac_local=0.0,
        load=0.0003,
    ),
)

#: The firm-deadline overload policy as a scenario dimension: tardy work
#: is discarded at dispatch instead of completing late.
FIRM_OVERLOAD = ScenarioSpec(
    name="firm-overload",
    description=(
        "Firm deadlines: abort-tardy overload policy at elevated load "
        "0.55."
    ),
    overrides=dict(overload_policy="abort-tardy", load=0.55),
)

#: Library order is presentation order (baseline first).
LIBRARY: Tuple[ScenarioSpec, ...] = (
    BASELINE,
    BURSTY_HYPEREXP,
    BURSTY_MMPP,
    HEAVY_TAIL_PARETO,
    HEAVY_TAIL_LOGNORMAL,
    HOTSPOT_ZIPF,
    SMART_ROUTING,
    SLOW_NODES,
    RUSH_HOUR,
    STRESS_MIX,
    PARALLEL_SMART,
    PREEMPTIVE_BASELINE,
    PREEMPTIVE_HETERO_SPEEDS,
    PREEMPTIVE_HEAVY_TAIL,
    STEADY_CHURN,
    OUTAGE_BURST,
    LOSSY_RECOVERY,
    CHURN_PREEMPTIVE,
    LOSSY_HEARTBEATS,
    SLOW_DETECTOR_CHURN,
    PARANOID_DETECTOR,
    DETECTOR_PREEMPTIVE,
    FLEET_UNIFORM,
    FLEET_SKEWED,
    FIRM_OVERLOAD,
)
