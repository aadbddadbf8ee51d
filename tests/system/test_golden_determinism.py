"""Golden determinism tests: exact fixed-seed results, pinned forever.

The kernel is aggressively optimized (inlined event loop, pooled timeouts,
callback-driven nodes and sources, bound samplers).  Every optimization
must preserve *bit-identical* results for a fixed seed -- same event
ordering, same random draws, same float arithmetic.  These tests pin the
exact SMOKE-scale metrics produced by the original (pre-optimization)
kernel; they pass on that seed kernel and must keep passing on every
future one.  If an optimization perturbs event ordering or arithmetic,
this file fails loudly and the change needs a deliberate re-pin (with a
changelog note), not a silent drift.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.system.config import baseline_config, serial_parallel_config
from repro.system.simulation import simulate

#: SMOKE-scale run lengths (kept in sync with repro.experiments.runner.SMOKE,
#: but pinned literally here: changing the preset must not silently change
#: what this test checks).
SIM_TIME = 2_500.0
WARMUP = 250.0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def serial_result():
    return simulate(
        baseline_config(sim_time=SIM_TIME, warmup_time=WARMUP, seed=42)
    )


class TestSerialBaselineGolden:
    """Exact values from baseline_config(seed=42) at SMOKE scale."""

    def test_local_counts(self, serial_result):
        local = serial_result.local
        assert local.completed == 5136
        assert local.missed == 1204
        assert local.aborted == 0

    def test_global_counts(self, serial_result):
        global_ = serial_result.global_
        assert global_.completed == 402
        assert global_.missed == 163
        assert global_.aborted == 0

    def test_local_means_exact(self, serial_result):
        local = serial_result.local
        # Bit-exact: == on floats is intentional.
        assert local.mean_response == 1.783879225470131
        assert local.mean_lateness == -0.581420252394006
        assert local.mean_waiting == 0.7793337698086901

    def test_global_means_exact(self, serial_result):
        global_ = serial_result.global_
        assert global_.mean_response == 8.579486447843847
        assert global_.mean_lateness == -0.9237181639001631

    def test_per_node_dispatch_counts(self, serial_result):
        assert [n.dispatched for n in serial_result.per_node] == [
            1155, 1142, 1112, 1144, 1127, 1065,
        ]

    def test_node0_signals_exact(self, serial_result):
        node0 = serial_result.per_node[0]
        assert node0.utilization == 0.5153333521237488
        assert node0.mean_queue_length == 0.4392931486126085

    def test_record_bytes_exact(self, serial_result):
        # The whole journaled record, every float to the last bit.
        assert _sha256(json.dumps(serial_result.to_dict(), sort_keys=True)) \
            == "e43ba3fc7d651571f91adb9416bd7a0af65b288a1849899b2c26823ea1fecb4a"


class TestParallelStructureGolden:
    """Exact values for a parallel-fan config (exercises fork/join + PSP)."""

    def test_parallel_div2(self):
        result = simulate(
            baseline_config(
                sim_time=SIM_TIME,
                warmup_time=WARMUP,
                seed=7,
                task_structure="parallel",
                strategy="DIV-2",
            )
        )
        assert result.local.completed == 5096
        assert result.local.missed == 1476
        assert result.global_.completed == 449
        assert result.global_.missed == 69
        assert result.local.mean_response == 2.02008830512072
        assert result.global_.mean_response == 3.4160475119459655


class TestSerialParallelTreeGolden:
    """Exact values for serial-of-parallel trees (nested frames: serial
    sequencing, fork/join, SSP *and* PSP deadline assignment in one run).

    Together with the serial and parallel classes above this pins the
    coordinator on all three structural paths.  Values produced by the
    generator-based coordinator (pre-callback-rewrite); the callback state
    machine must reproduce them bit for bit.
    """

    @pytest.fixture(scope="class")
    def sp_result(self):
        return simulate(
            serial_parallel_config(
                sim_time=SIM_TIME, warmup_time=WARMUP, seed=11,
                strategy="EQF-DIV1",
            )
        )

    def test_counts(self, sp_result):
        assert sp_result.local.completed == 5137
        assert sp_result.local.missed == 1283
        assert sp_result.local.aborted == 0
        assert sp_result.global_.completed == 453
        assert sp_result.global_.missed == 106
        assert sp_result.global_.aborted == 0

    def test_means_exact(self, sp_result):
        assert sp_result.local.mean_response == 1.8865596603468753
        assert sp_result.global_.mean_response == 5.267169225416433
        assert sp_result.global_.mean_lateness == -1.776663993737578

    def test_per_node_dispatch_counts(self, sp_result):
        assert [n.dispatched for n in sp_result.per_node] == [
            1194, 1173, 1089, 1218, 1177, 1101,
        ]

    def test_trace_on_equals_trace_off(self, sp_result):
        config = serial_parallel_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=11,
            strategy="EQF-DIV1",
        )
        assert simulate(config.with_(trace=True)) == sp_result


class TestPreemptiveNodeGolden:
    """Exact values for preemptive-resume nodes (the generator-server
    ablation path): the coordinator must drive both node kinds
    identically."""

    @pytest.fixture(scope="class")
    def preemptive_result(self):
        return simulate(
            baseline_config(
                sim_time=SIM_TIME, warmup_time=WARMUP, seed=13,
                preemptive=True, strategy="EQF",
            )
        )

    def test_counts(self, preemptive_result):
        assert preemptive_result.local.completed == 5042
        assert preemptive_result.local.missed == 682
        assert preemptive_result.local.aborted == 0
        assert preemptive_result.global_.completed == 466
        assert preemptive_result.global_.missed == 104
        assert preemptive_result.global_.aborted == 0

    def test_means_exact(self, preemptive_result):
        assert preemptive_result.local.mean_response == 1.5762545004314168
        assert preemptive_result.global_.mean_response == 7.424304595979559

    def test_node0_utilization_exact(self, preemptive_result):
        assert preemptive_result.per_node[0].utilization == 0.507071724957115

    def test_per_node_dispatch_counts(self, preemptive_result):
        assert [n.dispatched for n in preemptive_result.per_node] == [
            1347, 1325, 1306, 1476, 1435, 1349,
        ]

    def test_trace_on_equals_trace_off(self, preemptive_result):
        config = baseline_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=13,
            preemptive=True, strategy="EQF",
        )
        assert simulate(config.with_(trace=True)) == preemptive_result


class TestPreemptiveSpeedFactorsGolden:
    """Exact values for preemptive-resume nodes with heterogeneous speed
    factors (the combination the callback-server rewrite unlocked:
    remaining demand is rescaled by the node speed at every
    (re-)dispatch).  Pinned at introduction so future kernel or server
    changes cannot silently drift this path."""

    @pytest.fixture(scope="class")
    def hetero_result(self):
        from repro.scenarios import get_scenario

        config = get_scenario("preemptive-hetero-speeds").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=13, strategy="EQF",
        )
        return simulate(config)

    def test_counts(self, hetero_result):
        assert hetero_result.local.completed == 5054
        assert hetero_result.local.missed == 1250
        assert hetero_result.local.aborted == 0
        assert hetero_result.global_.completed == 470
        assert hetero_result.global_.missed == 207
        assert hetero_result.global_.aborted == 0

    def test_means_exact(self, hetero_result):
        assert hetero_result.local.mean_response == 2.335120983890809
        assert hetero_result.global_.mean_response == 9.891230676429043

    def test_per_node_dispatch_counts(self, hetero_result):
        assert [n.dispatched for n in hetero_result.per_node] == [
            1334, 1319, 1331, 1482, 1333, 1336,
        ]

    def test_node0_utilization_exact(self, hetero_result):
        assert hetero_result.per_node[0].utilization == 0.3902191612379825

    def test_trace_on_equals_trace_off(self, hetero_result):
        from repro.scenarios import get_scenario

        config = get_scenario("preemptive-hetero-speeds").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=13, strategy="EQF",
            trace=True,
        )
        assert simulate(config) == hetero_result


class TestScenarioBaselineGolden:
    """The scenario subsystem's ``baseline`` must reduce to the plain
    ``SystemConfig`` path *bit for bit*.

    This extends the golden gate over the scenario layer: the placement
    refactor (UniformPlacement owns the historical "global-route" stream)
    and the new config dimensions must leave the pinned fixed-seed
    trajectory untouched, and a default ``ScenarioSpec`` must build a
    config equal to ``SystemConfig()``.
    """

    def test_baseline_scenario_config_equals_plain_config(self):
        from repro.scenarios import get_scenario

        assert get_scenario("baseline").to_config() == baseline_config()

    def test_baseline_scenario_run_is_bit_identical(self, serial_result):
        from repro.scenarios import get_scenario

        config = get_scenario("baseline").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=42
        )
        assert simulate(config) == serial_result

    def test_baseline_scenario_parallel_is_bit_identical(self):
        from repro.scenarios import get_scenario

        config = get_scenario("baseline").to_config(
            sim_time=SIM_TIME,
            warmup_time=WARMUP,
            seed=7,
            task_structure="parallel",
            strategy="DIV-2",
        )
        result = simulate(config)
        assert result.local.completed == 5096
        assert result.local.missed == 1476
        assert result.global_.completed == 449
        assert result.global_.missed == 69
        assert result.local.mean_response == 2.02008830512072
        assert result.global_.mean_response == 3.4160475119459655


class TestFaultInjectionGolden:
    """Exact values for the fault-injection path, pinned at introduction.

    Two scenarios cover both crash semantics: ``steady-churn``
    (resume/preserved -- downtime is pure latency, nothing is destroyed)
    and ``lossy-recovery`` (lost/dropped -- crashes destroy in-flight and
    queued work and the retry layer re-routes).  The fault clocks, blast
    cohorts, and retry routing all draw from dedicated named streams
    (``fault-ttf/*``, ``fault-ttr/*``, ``retry-route``), so these pins
    must survive any future change that leaves the fault model alone --
    and conversely the fault-free classes above must survive changes to
    the fault model.
    """

    @pytest.fixture(scope="class")
    def churn_result(self):
        from repro.scenarios import get_scenario

        config = get_scenario("steady-churn").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="EQF",
        )
        return simulate(config)

    def test_churn_counts(self, churn_result):
        assert churn_result.local.completed == 5042
        assert churn_result.local.missed == 1511
        assert churn_result.local.aborted == 0
        assert churn_result.global_.completed == 436
        assert churn_result.global_.missed == 159
        assert churn_result.global_.failed == 0

    def test_churn_fault_counters(self, churn_result):
        assert [n.crashes for n in churn_result.per_node] == [
            9, 4, 5, 5, 6, 5,
        ]
        assert churn_result.total_crashes == 34
        # resume/preserved semantics: crashes never destroy work.
        assert churn_result.total_lost == 0
        assert churn_result.retries == 2

    def test_churn_means_exact(self, churn_result):
        assert churn_result.local.mean_response == 3.768525807189649
        assert churn_result.global_.mean_response == 9.036001389070615
        assert churn_result.per_node[0].downtime == 0.0709893019367737
        assert churn_result.mean_availability == 0.9484091823687335
        assert churn_result.per_node[0].utilization == 0.5133523581655055
        assert churn_result.mean_active_utilization == 0.5133543209666424

    def test_churn_per_node_dispatch_counts(self, churn_result):
        assert [n.dispatched for n in churn_result.per_node] == [
            1159, 1109, 1193, 1126, 1102, 1100,
        ]

    def test_churn_trace_on_equals_trace_off(self, churn_result):
        from repro.scenarios import get_scenario

        config = get_scenario("steady-churn").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="EQF",
            trace=True,
        )
        assert simulate(config) == churn_result

    @pytest.fixture(scope="class")
    def lossy_result(self):
        from repro.scenarios import get_scenario

        config = get_scenario("lossy-recovery").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="UD",
        )
        return simulate(config)

    def test_lossy_counts(self, lossy_result):
        assert lossy_result.local.completed == 5022
        assert lossy_result.local.missed == 1421
        # Crash-discarded local tasks count as aborted (they never finish).
        assert lossy_result.local.aborted == 17
        assert lossy_result.global_.completed == 435
        assert lossy_result.global_.missed == 182
        # The 3-deep retry budget saved every crash-lost subtask here.
        assert lossy_result.global_.failed == 0

    def test_lossy_fault_counters(self, lossy_result):
        assert [n.crashes for n in lossy_result.per_node] == [
            6, 2, 5, 1, 5, 3,
        ]
        assert [n.lost for n in lossy_result.per_node] == [
            6, 8, 3, 0, 7, 1,
        ]
        assert lossy_result.total_crashes == 22
        assert lossy_result.total_lost == 25
        assert lossy_result.retries == 8

    def test_lossy_means_exact(self, lossy_result):
        assert lossy_result.local.mean_response == 4.597218189558332
        assert lossy_result.global_.mean_response == 10.04006012236444
        assert lossy_result.per_node[0].downtime == 0.07303003922243928
        assert lossy_result.mean_availability == 0.9514566636821553

    def test_lossy_per_node_dispatch_counts(self, lossy_result):
        assert [n.dispatched for n in lossy_result.per_node] == [
            1168, 1096, 1194, 1137, 1069, 1110,
        ]

    def test_lossy_trace_on_equals_trace_off(self, lossy_result):
        from repro.scenarios import get_scenario

        config = get_scenario("lossy-recovery").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="UD",
            trace=True,
        )
        assert simulate(config) == lossy_result


def _least_outstanding_lossy_parallel_config():
    """Parallel DIV-1 fans, least-outstanding placement, lossy crashes:
    failure-aware ``pick_distinct`` with down nodes that still hold
    queued work."""
    from repro.system.faults import FaultSpec

    return baseline_config(
        sim_time=SIM_TIME, warmup_time=WARMUP, seed=23,
        task_structure="parallel", strategy="DIV-1",
        placement="least-outstanding",
        faults=FaultSpec(mttf=300.0, mttr=20.0, in_flight="lost",
                         retry_limit=3),
    )


class TestLeastOutstandingGolden:
    """Exact values for join-the-shortest-queue placement.

    The policy's tie-breaks draw from its own ``"placement-lo"`` stream
    (one ``randrange`` per multi-way tie, none for a singleton), so any
    change to how it finds the least-loaded nodes must reproduce these
    trajectories bit for bit.  Three shapes: serial ``pick_one`` on the
    library scenario, failure-aware ``pick_distinct`` under lossy
    crashes, and a 2,000-node global-only fan of 4 (the ``fleet-fanout``
    benchmark's shape, where nearly every decision is a tie among idle
    nodes).
    """

    @pytest.fixture(scope="class")
    def smart_result(self):
        from repro.scenarios import get_scenario

        config = get_scenario("smart-routing").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=19, strategy="EQF",
        )
        return simulate(config)

    def test_smart_routing_counts(self, smart_result):
        assert smart_result.local.completed == 5124
        assert smart_result.local.missed == 1151
        assert smart_result.local.aborted == 0
        assert smart_result.global_.completed == 437
        assert smart_result.global_.missed == 55
        assert smart_result.global_.aborted == 0

    def test_smart_routing_means_exact(self, smart_result):
        assert smart_result.local.mean_response == 1.7381167973270717
        assert smart_result.global_.mean_response == 5.761364340617822
        assert smart_result.global_.mean_lateness == -3.844152196985957

    def test_smart_routing_per_node_dispatch_counts(self, smart_result):
        assert [n.dispatched for n in smart_result.per_node] == [
            1134, 1153, 1163, 1147, 1144, 1133,
        ]

    @pytest.fixture(scope="class")
    def lossy_parallel_result(self):
        return simulate(_least_outstanding_lossy_parallel_config())

    def test_lossy_parallel_counts(self, lossy_parallel_result):
        result = lossy_parallel_result
        assert result.local.completed == 5101
        assert result.local.missed == 1572
        assert result.local.aborted == 13
        assert result.global_.completed == 379
        assert result.global_.missed == 30
        assert result.global_.failed == 0
        assert result.total_crashes == 42
        assert result.total_lost == 21
        assert result.retries == 8

    def test_lossy_parallel_means_exact(self, lossy_parallel_result):
        result = lossy_parallel_result
        assert result.local.mean_response == 4.2202980862859745
        assert result.global_.mean_response == 3.060356041331957
        assert result.global_.mean_lateness == -2.316791801177041

    def test_lossy_parallel_per_node_dispatch_counts(
        self, lossy_parallel_result
    ):
        assert [n.dispatched for n in lossy_parallel_result.per_node] == [
            1122, 1109, 1104, 1087, 1098, 1115,
        ]

    @pytest.fixture(scope="class")
    def fleet_result(self):
        from repro.system.config import parallel_baseline_config

        return simulate(
            parallel_baseline_config(
                node_count=2_000, frac_local=0.0, load=20.0 / 2_000,
                subtask_count=4, strategy="DIV-1",
                placement="least-outstanding",
                sim_time=400.0, warmup_time=40.0, seed=29,
            )
        )

    def test_fleet_fan_counts_and_means_exact(self, fleet_result):
        assert fleet_result.local.completed == 0
        assert fleet_result.global_.completed == 1801
        assert fleet_result.global_.missed == 0
        assert fleet_result.global_.mean_response == 2.070364424626258
        assert fleet_result.global_.mean_lateness == -3.106397128369612

    def test_fleet_fan_per_node_dispatch_counts(self, fleet_result):
        dispatched = [n.dispatched for n in fleet_result.per_node]
        assert dispatched[:12] == [5, 5, 6, 5, 3, 4, 4, 5, 0, 4, 5, 4]
        histogram: dict = {}
        for count in dispatched:
            histogram[count] = histogram.get(count, 0) + 1
        assert sorted(histogram.items()) == [
            (0, 43), (1, 182), (2, 370), (3, 431), (4, 391), (5, 278),
            (6, 182), (7, 70), (8, 38), (9, 11), (10, 3), (12, 1),
        ]
        # Index-weighted sum: moves if any subtask lands elsewhere.
        assert sum(i * d for i, d in enumerate(dispatched)) == 7_185_394

    def test_fleet_fan_node_rows_exact(self, fleet_result):
        # Every row of every node, floats to the last bit.
        assert _sha256(repr(fleet_result.per_node)) == (
            "a5b424f361472024f819dc14672615385f5225909afe28e10b0d085c8ec0be52"
        )
        assert fleet_result.mean_utilization == 0.009965784924681299

    def test_fleet_fan_aggregate_record_exact(self, fleet_result):
        record = fleet_result.to_dict(aggregate_nodes=True)
        assert _sha256(json.dumps(record, sort_keys=True)) == (
            "ab1e06761c56497706626acd8791bc60d4ecb0716214e03f5343a6da7c2a22c3"
        )


class TestDetectorOracleDefaultGolden:
    """Detector-off configs must not move a single pinned bit.

    The failure-detection subsystem only wires in when an *enabled*
    ``DetectorSpec`` is configured; ``detector=None`` (every existing
    config) and a disabled spec (``heartbeat_interval=0``) must both
    reproduce the exact serial-baseline pins -- no streams, no events,
    no drift.
    """

    def test_disabled_detector_spec_is_bit_identical(self, serial_result):
        from repro.system.detector import DetectorSpec

        config = baseline_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=42,
            detector=DetectorSpec(heartbeat_interval=0.0),
        )
        assert simulate(config) == serial_result

    def test_disabled_detector_with_faults_is_bit_identical(self):
        """The oracle fault path too: a disabled detector riding a
        fault scenario must reproduce the steady-churn pins."""
        from repro.scenarios import get_scenario
        from repro.system.detector import DetectorSpec

        config = get_scenario("steady-churn").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="EQF",
        ).with_(detector=DetectorSpec(heartbeat_interval=0.0))
        result = simulate(config)
        assert result.local.completed == 5042
        assert result.global_.completed == 436
        assert result.total_crashes == 34
        assert result.retries == 2
        assert [n.dispatched for n in result.per_node] == [
            1159, 1109, 1193, 1126, 1102, 1100,
        ]


#: sha256 of ``repr(RunResult)`` of every detector scenario x seeds 1-3
#: x UD/EQF at sim_time 6000 (warm-up 600): the observed-liveness view,
#: misroutes and suspicion accounting all ride these digests.
_DETECTOR_SCENARIO_PINS = {
    ("lossy-heartbeats", 1, "UD"):
        "6b4d47166f7da259bc813f3b30871134b76602efc98f0a02e9f733852a5b9547",
    ("lossy-heartbeats", 1, "EQF"):
        "980385e1c6a6d1b6e599919ea4e360c0284d9a1e9eacaf7dbd904bcc5359f2ef",
    ("lossy-heartbeats", 2, "UD"):
        "a318dd24162fc72c53c231cf085461bddd53fc9f60f340dd538f88167c869f44",
    ("lossy-heartbeats", 2, "EQF"):
        "3ac8d4cb8326eb5e8c019e03ef0f07b16462f12cf447177cd61970bdb6e13770",
    ("lossy-heartbeats", 3, "UD"):
        "6df16be3b696bcfa75120bf137c4193af0a617041001c94c71715b7947967ffe",
    ("lossy-heartbeats", 3, "EQF"):
        "c9b456a791ccb29ddd5bf78d5b0ef71e7a564832d2ba58eef536b722a8bb2867",
    ("slow-detector-churn", 1, "UD"):
        "07bba4256dba08cd6b277cd3fa341bee18355f6582943885b3a33acff9193cbc",
    ("slow-detector-churn", 1, "EQF"):
        "b5e8cb6d420940b22a8e13aae532862f6d556692dd536da91cddc2ba8dc03fe3",
    ("slow-detector-churn", 2, "UD"):
        "aad1153000274e84e079b2bf8439b7b15305c35dc200e9b3b8107a154950af74",
    ("slow-detector-churn", 2, "EQF"):
        "6401c57367b7f93db53832769b26beb32b7c3a406c1fc89158f398035ac6bbbe",
    ("slow-detector-churn", 3, "UD"):
        "2a27834d322acb6454871e36ca0d27de4b3e74e347ebac1fa39b0984047df8e2",
    ("slow-detector-churn", 3, "EQF"):
        "56dea8381a12352bdf36ec5630bdf4ff8c2b05dba1e502beab5f372f1afbad1d",
    ("paranoid-detector", 1, "UD"):
        "9d59dcf960b5caf97aa0ad0048877da494b0a6fea61de30740a1574e05e01d3f",
    ("paranoid-detector", 1, "EQF"):
        "07252024d7c475a88aeca175231499a8f1fea59d00731f085263e3751dbaca90",
    ("paranoid-detector", 2, "UD"):
        "95b7c33c3560ecb2c4be0b11eba58da70b0e9270663ae9dee68e8fbdbd5e0fc6",
    ("paranoid-detector", 2, "EQF"):
        "440b7fad1b4e69ffe61f447eae8f2653adbe1cdfd9e9a5d4477d04b9b9dd5b80",
    ("paranoid-detector", 3, "UD"):
        "672bd8a7d7ae45e0d5d2cc2c54b2ed129952d33ee7199a9079e3018adb519124",
    ("paranoid-detector", 3, "EQF"):
        "9993c1eaf8e4041499a5470060a6e83612667156151780d9a6a32063a836c25b",
    ("detector-preemptive", 1, "UD"):
        "3e88672d2cc8346b4373fe184c24a5717cc8ad1d1f0baca56568eff55a411509",
    ("detector-preemptive", 1, "EQF"):
        "b7c41bf83acfbb7c5133fbb1a25c40ed505c3c8a45e35601ca70b5791df95269",
    ("detector-preemptive", 2, "UD"):
        "c34d772288cac4769568f6526d562335ef6bb8d150ee9ad345b0bdf37b125d63",
    ("detector-preemptive", 2, "EQF"):
        "31744890094ef2f631df6efc6f89f6a7d6f7aa94601654a9b8ffa20a39eb7cc5",
    ("detector-preemptive", 3, "UD"):
        "7efb59fdec21d3d6dd4089665672fc2745fe044bac6a1a8b1132b6a855d14305",
    ("detector-preemptive", 3, "EQF"):
        "f07b714b3f076cf1af6377338717fe327c8d1badd0faaa87343ecd2c67b02da7",
}

#: Tie-prone variants of ``lossy-heartbeats`` at seed 4 (EQF).  With
#: instant links every delivery and every expiry lands on the
#: heartbeat grid: a three-period timeout makes an expiry coincide with
#: an emission armed after it, a one-period timeout with one armed
#: before it; the phi detector runs over delayed links.
_DETECTOR_TIE_VARIANTS = {
    "instant-timeout-3-periods": dict(delay_mean=0.0, timeout=6.0),
    "instant-timeout-1-period": dict(delay_mean=0.0, timeout=2.0),
    "phi-delayed": dict(kind="phi", phi_threshold=1.5, delay_mean=0.7),
}

_DETECTOR_TIE_PINS = {
    "instant-timeout-3-periods":
        "cb2f952d58e5344746e4d17b88f3ab261530156f9a87ee665ebc0e9be4b8a8d1",
    "instant-timeout-1-period":
        "c2877904308c751d6a44f5f01c0fd237546162a63ecc3cb972c48944cb54ab18",
    "phi-delayed":
        "df91bea4d63c3ead04d27cf03ddf9a9f3ca3e6c751a02c595d0ea4c3d3cfa78c",
}

#: Detector-run length: long enough for every scenario to crash, detect,
#: falsely suspect and rehabilitate nodes many times over.
DETECTOR_SIM_TIME = 6_000.0
DETECTOR_WARMUP = 600.0


def _detector_config(name, seed, strategy):
    from repro.scenarios import get_scenario

    return get_scenario(name).to_config(
        sim_time=DETECTOR_SIM_TIME, warmup_time=DETECTOR_WARMUP,
        seed=seed, strategy=strategy,
    )


class TestDetectorRunsGolden:
    """Detector-on runs, pinned bit for bit.

    Heartbeat emission, channel loss and delay, suspicion timers and
    rehabilitation all feed placement through the observed view, so any
    change to when the detector acts -- including the order of
    same-instant expiries and emissions -- moves these digests.
    """

    @pytest.mark.parametrize(
        "key", sorted(_DETECTOR_SCENARIO_PINS),
        ids=lambda key: "-".join(map(str, key)),
    )
    def test_scenario_run_exact(self, key):
        result = simulate(_detector_config(*key))
        assert _sha256(repr(result)) == _DETECTOR_SCENARIO_PINS[key]

    @pytest.mark.parametrize("variant", sorted(_DETECTOR_TIE_PINS))
    def test_tie_prone_variant_exact(self, variant):
        import dataclasses

        config = _detector_config("lossy-heartbeats", 4, "EQF")
        config = config.with_(detector=dataclasses.replace(
            config.detector, **_DETECTOR_TIE_VARIANTS[variant]
        ))
        result = simulate(config)
        assert _sha256(repr(result)) == _DETECTOR_TIE_PINS[variant]


class TestEmissionIsObservationOnly:
    """Metric emission must never perturb the simulation it observes.

    Same contract as tracing: the emitter rides the sliced run loop's
    seq-free slice boundaries and only *reads* metric state, so a run
    with emission on reproduces the pinned fixed-seed results exactly.
    """

    def test_emission_on_equals_pinned_result(self, serial_result, tmp_path):
        from repro.system.emission import EmissionPolicy

        emitted = simulate(
            baseline_config(sim_time=SIM_TIME, warmup_time=WARMUP, seed=42),
            emit=EmissionPolicy(
                path=str(tmp_path / "m.jsonl"), every_events=5_000
            ),
        )
        assert emitted == serial_result

    def test_percentiles_exposed_and_ordered(self, serial_result):
        for stats in (serial_result.local, serial_result.global_):
            assert stats.p50_response <= stats.p95_response <= stats.p99_response
            assert stats.p50_lateness <= stats.p95_lateness <= stats.p99_lateness
            assert stats.p50_response > 0.0

class TestTracingIsObservationOnly:
    """Tracing must never perturb the simulation it observes.

    The tracing-off fast path (null tracer, ``tracer is None`` checks in
    the node hot loops) must produce exactly the metrics a traced run
    produces -- tracing is pure observation.
    """

    def test_trace_on_equals_trace_off(self, serial_result):
        traced = simulate(
            baseline_config(
                sim_time=SIM_TIME, warmup_time=WARMUP, seed=42, trace=True
            )
        )
        assert traced == serial_result

    def test_trace_on_equals_trace_off_parallel(self):
        config = baseline_config(
            sim_time=SIM_TIME,
            warmup_time=WARMUP,
            seed=7,
            task_structure="parallel",
            strategy="DIV-2",
        )
        assert simulate(config.with_(trace=True)) == simulate(config)
