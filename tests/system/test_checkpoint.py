"""Tests for the checkpoint/resume subsystem (repro.checkpoint).

The bit-identity of resumed runs is pinned by the golden gate
(``tests/system/test_golden_determinism.py``); this file covers the
mechanics around it: atomic writes that survive a SIGKILL, policy
validation, the header contract (magic/version refusal and the old
``kernel`` field, with clear messages), counter restoration, and a full
kill -9 mid-run → resume cycle whose traced event stream matches the
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointPolicy,
    atomic_write,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
)
from repro.scenarios import get_scenario
from repro.system.config import baseline_config
from repro.system.simulation import Simulation, simulate

#: Short runs: checkpoint mechanics do not need SMOKE-scale statistics.
SIM_TIME = 600.0
WARMUP = 60.0


def _sim(seed: int = 5, **overrides) -> Simulation:
    return Simulation(
        baseline_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=seed, **overrides
        )
    )


class TestAtomicWrite:
    def test_creates_file_with_exact_bytes(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        atomic_write(path, b"new")
        assert path.read_bytes() == b"new"

    def test_failed_write_keeps_old_content_and_no_litter(
        self, tmp_path, monkeypatch
    ):
        """A failure before the rename must leave the destination's old
        bytes untouched and clean up its temp file."""
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def boom(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk detached"):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_sigkill_never_tears_the_file(self, tmp_path):
        """Kill -9 a writer loop at a random moment: the destination must
        hold one *complete* payload, never a prefix or a mix."""
        path = tmp_path / "torn.bin"
        writer = (
            "import sys, itertools\n"
            "from repro.checkpoint import atomic_write\n"
            "payloads = [bytes([65 + i]) * 4096 for i in range(4)]\n"
            "for i in itertools.count():\n"
            "    atomic_write(sys.argv[1], payloads[i % 4])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", writer, str(path)], env=env
        )
        try:
            deadline = time.monotonic() + 10.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert path.exists(), "writer never produced the file"
            time.sleep(0.2)
        finally:
            proc.kill()
            proc.wait()
        data = path.read_bytes()
        assert len(data) == 4096
        assert data in {bytes([65 + i]) * 4096 for i in range(4)}


class TestCheckpointPolicy:
    def test_requires_at_least_one_trigger(self):
        with pytest.raises(ValueError, match="at least one trigger"):
            CheckpointPolicy(path="x.ckpt")

    def test_rejects_negative_events(self):
        with pytest.raises(ValueError, match="every_events"):
            CheckpointPolicy(path="x.ckpt", every_events=-1)

    def test_rejects_negative_seconds(self):
        with pytest.raises(ValueError, match="every_seconds"):
            CheckpointPolicy(path="x.ckpt", every_seconds=-0.5)

    def test_single_trigger_forms_are_valid(self):
        CheckpointPolicy(path="x.ckpt", every_events=10)
        CheckpointPolicy(path="x.ckpt", every_seconds=1.0)


class TestHeaderContract:
    def test_header_records_run_identity(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        sim = _sim(seed=21)
        sim.env.run(until=100.0)
        save_checkpoint(sim, path)
        header = read_checkpoint_header(path)
        assert header["magic"] == CHECKPOINT_MAGIC
        assert header["version"] == CHECKPOINT_VERSION
        assert "kernel" not in header
        assert header["seed"] == 21
        assert header["now"] == sim.env.now
        assert "seed=21" in header["config"]

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_checkpoint_header(tmp_path / "absent.ckpt")

    def test_junk_file_is_refused(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            read_checkpoint_header(path)
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def _crafted(self, tmp_path, **header_overrides):
        header = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "seed": 1,
            "config": "crafted",
            "now": 0.0,
        }
        header.update(header_overrides)
        path = tmp_path / "crafted.ckpt"
        path.write_bytes(pickle.dumps(header, protocol=4))
        return path

    def test_wrong_magic_is_refused(self, tmp_path):
        path = self._crafted(tmp_path, magic="something-else")
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            read_checkpoint_header(path)

    @pytest.mark.parametrize(
        "version", [CHECKPOINT_VERSION + 1, CHECKPOINT_VERSION - 1, 2],
        ids=["newer", "older", "v2"],
    )
    def test_future_version_is_refused(self, tmp_path, version):
        """Any other payload layout is refused from the header, before
        the payload is unpickled -- older files included, since a layout
        change always bumps the version."""
        path = self._crafted(tmp_path, version=version)
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint_header(path)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kernel", [{}, {"kernel": "python"}],
                             ids=["no-field", "python"])
    def test_pure_python_headers_are_accepted(self, tmp_path, kernel):
        """Files without the old ``kernel`` field, and older files that
        recorded ``"python"``, both load."""
        path = self._crafted(tmp_path, **kernel)
        assert read_checkpoint_header(path)["config"] == "crafted"

    def test_compiled_kernel_header_says_it_was_removed(self, tmp_path):
        """A compiled-engine payload names a module that no longer
        exists; the header check refuses it before unpickling."""
        path = self._crafted(tmp_path, kernel="compiled")
        with pytest.raises(CheckpointError, match="has been removed"):
            read_checkpoint_header(path)
        with pytest.raises(CheckpointError, match="has been removed"):
            load_checkpoint(path)


class TestDamagedPayload:
    """A valid header over a damaged or incompatible payload is refused
    with a :class:`CheckpointError` naming the file, never a raw
    unpickling traceback."""

    def test_truncated_payload_is_refused(self, tmp_path):
        path = tmp_path / "run.ckpt"
        sim = _sim(seed=21)
        sim.env.run(until=100.0)
        save_checkpoint(sim, path)
        data = path.read_bytes()
        path.write_bytes(data[:-200])
        # The header frame is intact, so the cheap header read passes.
        assert read_checkpoint_header(path)["seed"] == 21
        with pytest.raises(CheckpointError, match="damaged or incompatible"
                           ) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_older_class_layout_is_refused(self, tmp_path):
        """A payload pickled by a build whose slotted classes had other
        attributes (here a ``Node`` with the removed ``_wake_event``
        slot) fails on restore, and says so."""
        import copyreg

        from repro.system.node import Node

        class OldNode:
            def __reduce__(self):
                return (copyreg._reconstructor, (Node, object, None),
                        (None, {"index": 0, "_wake_event": None}))

        header = {"magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION,
                  "seed": 1, "config": "old", "now": 0.0}
        payload = {"simulation": OldNode(), "unit_counter": 0,
                   "global_counter": 0}
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps(header, protocol=4)
                         + pickle.dumps(payload, protocol=4))
        with pytest.raises(CheckpointError, match="AttributeError"):
            load_checkpoint(path)

    def test_payload_without_simulation_is_refused(self, tmp_path):
        header = {"magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION,
                  "seed": 1, "config": "crafted", "now": 0.0}
        path = tmp_path / "empty.ckpt"
        path.write_bytes(pickle.dumps(header, protocol=4)
                         + pickle.dumps({}, protocol=4))
        with pytest.raises(CheckpointError, match="KeyError"):
            load_checkpoint(path)


class TestSaveLoadRoundtrip:
    def test_resumed_run_matches_straight_through(self, tmp_path):
        path = str(tmp_path / "mid.ckpt")
        config = baseline_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=5
        )
        straight = simulate(config)
        sim = Simulation(config)
        sim.env.run(until=config.warmup_time)
        sim.metrics.reset(sim.env.now)
        sim._warmup_done = True
        sim.env.run(until=300.0)
        save_checkpoint(sim, path)
        restored = load_checkpoint(path)
        assert restored.env.now == sim.env.now
        assert restored.config == config
        assert restored.run() == straight

    def test_saving_is_read_only(self, tmp_path):
        """Snapshotting mid-run must not perturb the run being saved."""
        config = baseline_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=5
        )
        straight = simulate(config)
        sim = Simulation(config)
        sim.env.run(until=config.warmup_time)
        sim.metrics.reset(sim.env.now)
        sim._warmup_done = True
        for stop in (150.0, 300.0, 450.0):
            sim.env.run(until=stop)
            save_checkpoint(sim, str(tmp_path / f"at-{stop:g}.ckpt"))
        sim.env.run(until=config.sim_time)
        assert sim.metrics.snapshot(sim.env.now) == straight

    def test_resume_before_warmup_completes_warmup(self, tmp_path):
        """A snapshot taken inside the warmup phase must still warm up
        (reset metrics at the boundary) when resumed."""
        path = str(tmp_path / "early.ckpt")
        config = baseline_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=5
        )
        straight = simulate(config)
        sim = Simulation(config)
        sim.env.run(until=WARMUP / 2)
        save_checkpoint(sim, path)
        restored = load_checkpoint(path)
        assert not restored._warmup_done
        assert restored.run() == straight


class _ItertoolsFinder(pickle.Pickler):
    """Pickles to nowhere, recording every ``itertools`` object it meets."""

    def __init__(self) -> None:
        super().__init__(io.BytesIO(), protocol=4)
        self.found = []

    def reducer_override(self, obj):
        if type(obj).__module__ == "itertools":
            self.found.append(type(obj).__name__)
        return NotImplemented


def _mid_run(config, until: float = 300.0) -> Simulation:
    sim = Simulation(config)
    sim.env.run(until=until)
    return sim


class TestPayloadPicklesNoItertools:
    """Pickling an ``itertools`` object is deprecated since Python 3.12
    (and goes in 3.14), so the payload must hold none: the nodes' shared
    FIFO counter pickles by its position."""

    @pytest.mark.parametrize("kind", ["baseline", "preemptive-faults-detector"])
    def test_payload_holds_no_itertools_object(self, kind):
        if kind == "baseline":
            config = baseline_config(
                sim_time=SIM_TIME, warmup_time=WARMUP, seed=5
            )
        else:
            config = get_scenario("detector-preemptive").to_config(
                sim_time=SIM_TIME, warmup_time=WARMUP, seed=5,
                strategy="EQF",
            )
        sim = _mid_run(config)
        assert sim.config.preemptive == (kind != "baseline")
        finder = _ItertoolsFinder()
        finder.dump({"simulation": sim})
        assert finder.found == []

    def test_restored_nodes_share_one_counter_at_its_position(
        self, tmp_path
    ):
        path = str(tmp_path / "fifo.ckpt")
        sim = _mid_run(
            baseline_config(sim_time=SIM_TIME, warmup_time=WARMUP, seed=5)
        )
        save_checkpoint(sim, path)
        restored = load_checkpoint(path)
        counters = {id(node._queue_seq) for node in restored.nodes}
        assert len(counters) == 1
        assert next(restored.nodes[0]._queue_seq) == next(
            sim.nodes[0]._queue_seq
        )


class TestPeriodicTriggers:
    def test_event_trigger_writes_checkpoints(self, tmp_path):
        path = str(tmp_path / "events.ckpt")
        saves = []
        import repro.system.simulation as simulation_module

        real = simulation_module.save_checkpoint

        def counting(sim, p):
            saves.append(sim.env.now)
            real(sim, p)

        simulation_module.save_checkpoint = counting
        try:
            result = _sim(seed=5).run(
                checkpoint=CheckpointPolicy(path=path, every_events=500)
            )
        finally:
            simulation_module.save_checkpoint = real
        assert len(saves) >= 2  # several snapshots across the run
        assert os.path.exists(path)
        assert result == simulate(
            baseline_config(sim_time=SIM_TIME, warmup_time=WARMUP, seed=5)
        )

    def test_wall_clock_trigger_fires(self, tmp_path):
        path = str(tmp_path / "wall.ckpt")
        # Any elapsed wall time satisfies a tiny threshold, so every
        # slice boundary checkpoints; existence is the point here.
        _sim(seed=5).run(
            checkpoint=CheckpointPolicy(path=path, every_seconds=1e-9)
        )
        assert os.path.exists(path)


#: Runs a traced checkpointed run and SIGKILLs itself right after the
#: second snapshot lands -- from inside the save path, exactly where a
#: real crash is most dangerous.  The checkpoint file must stay valid.
_KILLED_RUN_DRIVER = """
import os, signal, sys
import repro.system.simulation as simulation_module
from repro.checkpoint import CheckpointPolicy
from repro.system.config import baseline_config
from repro.system.simulation import Simulation

path = sys.argv[1]
real = simulation_module.save_checkpoint
saves = [0]

def killing_save(sim, p):
    real(sim, p)
    saves[0] += 1
    if saves[0] == 2:
        os.kill(os.getpid(), signal.SIGKILL)

simulation_module.save_checkpoint = killing_save
config = baseline_config(
    sim_time=600.0, warmup_time=60.0, seed=23, trace=True
)
Simulation(config).run(
    checkpoint=CheckpointPolicy(path=path, every_events=500)
)
raise SystemExit("unreachable: the second save must have killed us")
"""

#: Resumes (or runs straight through) and prints digests of the traced
#: event stream and the final result -- exact float reprs, so equality
#: of digests is bit-identity of the observables.
_FINISH_DRIVER = """
import hashlib, json, sys
from repro.checkpoint import load_checkpoint
from repro.system.config import baseline_config
from repro.system.simulation import Simulation

if sys.argv[1] == "resume":
    sim = load_checkpoint(sys.argv[2])
else:
    sim = Simulation(baseline_config(
        sim_time=600.0, warmup_time=60.0, seed=23, trace=True
    ))
result = sim.run()
events = repr([
    (e.time, e.kind, e.unit_name, e.node_index, e.task_class, e.deadline)
    for e in sim.trace_log.events
]).encode()
print(json.dumps({
    "trace": hashlib.sha256(events).hexdigest(),
    "result": hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest(),
}))
"""


class TestKillMinusNineResume:
    """The acceptance scenario: SIGKILL a checkpointed run mid-flight,
    resume from the surviving file, and the traced event stream (labels
    included -- the id counters must continue the original numbering)
    matches the uninterrupted run exactly."""

    def _run(self, script, *argv, check=True):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, check=check,
        )

    def test_killed_run_resumes_bit_identically(self, tmp_path):
        path = str(tmp_path / "killed.ckpt")
        killed = self._run(_KILLED_RUN_DRIVER, path, check=False)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert os.path.exists(path)

        resumed = json.loads(self._run(_FINISH_DRIVER, "resume", path).stdout)
        straight = json.loads(self._run(_FINISH_DRIVER, "straight").stdout)
        assert resumed["trace"] == straight["trace"]
        assert resumed["result"] == straight["result"]
