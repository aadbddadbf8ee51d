"""Checkpoint/resume for live simulations, and crash-safe file writes.

Long-horizon runs (ROADMAP items 2, 4, 5) need restart safety: a
FULL-scale run that dies at 95% must not lose everything.  This module
snapshots a live :class:`~repro.system.simulation.Simulation` -- engine
event heap + urgent deque + sleep pool + clock/seq, every RNG stream's
Mersenne state, metrics tallies, node/fault/process-manager continuation
state -- and restores it such that *resume == straight-through, bit for
bit* (pinned by ``tests/system/test_golden_determinism.py``).

File format
-----------

A checkpoint file is two consecutive pickle frames written atomically:

1. a small **header** dict (``magic``, ``version``, ``seed``,
   ``config``, ``now``) that is read and validated *before* the payload
   is touched, so a mismatched file fails with a clear error instead of
   an obscure unpickling one;
2. the **payload**: the simulation object graph.  It includes the
   run's work-unit id counter, which trace labels derive from, so a
   restored run continues its own numbering and no other simulation's.

Older files may carry a ``kernel`` header field.  ``"python"`` (or no
field) loads as usual.  ``"compiled"`` marks a file written by the
compiled engine, which has been removed: its payload references a
module that no longer exists, so :func:`load_checkpoint` refuses it
from the header with a clear error.

The payload pickles engine, node and work-unit objects slot by slot, so
a change to any of their layouts bumps :data:`CHECKPOINT_VERSION`: the
header check then refuses an incompatible file up front instead of
letting it fail deep inside the payload.

Every callback on the event list is pickled with its event, so a
hand-built model whose callbacks are lambdas or closures fails at save
time with pickle's own error; the system model's callbacks are all bound
methods of picklable objects.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: First bytes of every checkpoint file (as a pickled header field).
CHECKPOINT_MAGIC = "repro-checkpoint"
#: Payload layout version, bumped whenever a pickled class changes its
#: slots.  Version 2: the engine's events are only ``_Sleep``/``_Call``,
#: work units carry no ``env`` or completion-event slot, and the
#: per-node signal-array and ``Node`` slots are the per-metric-schema
#: ones.
#: Version 3: nodes own no ``ReadyQueue`` and no wake event (a node is
#: its own wake entry), and share one pickled-by-position FIFO counter.
#: Version 4: the least-outstanding placement keeps sorted active and
#: per-count member lists instead of per-count Fenwick trees and heaps.
#: Version 5: each node holds its busy, queue and down signals as float
#: slots (there are no fleet-wide signal lists), and the metrics
#: collector lists its nodes instead of holding the signal lists.
#: Version 6: work units have no ``pool`` slot, and nothing is pickled
#: by reference to a unit pool.
#: Version 7: work units carry no global-task id or stage index, unit
#: ids come from a per-simulation counter pickled with the sources and
#: the process manager, and the payload carries no counter positions.
CHECKPOINT_VERSION = 7

#: Protocol 4 is supported by every Python this package runs on and is
#: stable across minor versions, unlike HIGHEST_PROTOCOL.
_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or incompatible."""


def atomic_write(path: Any, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename).

    The bytes land in a temporary file in the same directory, are
    fsync'd, and replace ``path`` in one :func:`os.replace` -- so a
    reader never observes a torn write: either the old file or the new
    one, never a prefix.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class JsonlAppender:
    """Crash-tolerant grow-only JSONL channel (one flushed line per record).

    The sibling of :func:`atomic_write` for files that *grow*: a metric
    time series or a streaming trace cannot be rewritten whole on every
    record.  Instead each record is one ``json.dumps`` line, written and
    flushed immediately, so a crash tears at most the trailing line --
    which :func:`read_jsonl` tolerates by stopping at the first
    unparsable tail.  Floats round-trip exactly (``repr`` doubles, and
    ``nan`` as the bare ``NaN`` literal the stdlib parser accepts).

    Picklable: only the path and mode travel; restoring reopens the file
    in append mode, so a sink buried in a checkpointed object graph
    (e.g. a :class:`~repro.system.tracing.JsonlTraceSink`) resumes
    appending where the file left off.
    """

    def __init__(self, path: Any, append: bool = False) -> None:
        self.path = os.fspath(path)
        self._handle = open(self.path, "a" if append else "w", encoding="utf-8")
        self.written = 0

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as a single flushed JSON line."""
        handle = self._handle
        if handle is None:
            raise ValueError(f"{self.path}: appender is closed")
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()
        self.written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __getstate__(self) -> Dict[str, Any]:
        return {"path": self.path, "written": self.written}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self.written = state["written"]
        self._handle = open(self.path, "a", encoding="utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "closed" if self._handle is None else "open"
        return f"JsonlAppender({self.path!r}, {status}, written={self.written})"


def read_jsonl(
    path: Any, on_torn: Optional[Callable[[str], None]] = None
) -> List[Dict[str, Any]]:
    """Read a :class:`JsonlAppender` file, tolerating a torn final line.

    A process killed mid-:meth:`~JsonlAppender.write` leaves at most one
    partial trailing line; parsing stops there and everything before it
    is returned.  (An unparsable line anywhere *else* means real
    corruption and raises.)  ``on_torn`` is called with a one-line
    description when a torn tail was skipped, so callers can surface
    the data loss instead of silently absorbing it.
    """
    path = os.fspath(path)
    records: List[Dict[str, Any]] = []
    pending_error = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if pending_error is not None:
                raise CheckpointError(
                    f"{path}: corrupt JSONL line before end of file "
                    f"({pending_error})"
                )
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                pending_error = exc  # torn tail if nothing follows
    if pending_error is not None and on_torn is not None:
        on_torn(
            f"{path}: skipped torn final record (writer crashed "
            f"mid-write: {pending_error})"
        )
    return records


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where :meth:`Simulation.run` snapshots a live run.

    At least one trigger must be set: ``every_events`` snapshots after
    that many kernel events, ``every_seconds`` after that much wall
    time.  Triggers are checked at slice boundaries of the sliced run
    loop (the run is cut into ~128 time slices per phase), so the
    granularity is bounded by the slice length, not exact.
    """

    path: str
    every_events: int = 0
    every_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.every_events < 0:
            raise ValueError(
                f"every_events must be >= 0, got {self.every_events}"
            )
        if self.every_seconds < 0:
            raise ValueError(
                f"every_seconds must be >= 0, got {self.every_seconds}"
            )
        if self.every_events == 0 and self.every_seconds == 0:
            raise ValueError(
                "checkpoint policy needs at least one trigger: set "
                "every_events and/or every_seconds"
            )


class _Trigger:
    """Slice-boundary bookkeeping for a :class:`CheckpointPolicy`."""

    def __init__(self, policy: CheckpointPolicy, env: Any) -> None:
        self.policy = policy
        self.env = env
        self._last_seq = env._seq_peek()
        self._last_wall = time.monotonic()

    def due(self) -> bool:
        policy = self.policy
        if policy.every_events > 0:
            if self.env._seq_peek() - self._last_seq >= policy.every_events:
                return True
        if policy.every_seconds > 0:
            if time.monotonic() - self._last_wall >= policy.every_seconds:
                return True
        return False

    def saved(self) -> None:
        self._last_seq = self.env._seq_peek()
        self._last_wall = time.monotonic()


def save_checkpoint(simulation: Any, path: Any) -> None:
    """Atomically snapshot ``simulation`` to ``path``.

    Reads the simulation without changing it (or anything else): the
    run's id counters pickle with it by position.
    """
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "seed": simulation.config.seed,
        "config": simulation.config.describe(),
        "now": simulation.env.now,
    }
    payload = {"simulation": simulation}
    buffer = io.BytesIO()
    pickle.dump(header, buffer, protocol=_PROTOCOL)
    pickle.dump(payload, buffer, protocol=_PROTOCOL)
    atomic_write(path, buffer.getvalue())


def _validate_header(header: Any, path: str) -> Dict[str, Any]:
    if (
        not isinstance(header, dict)
        or header.get("magic") != CHECKPOINT_MAGIC
    ):
        raise CheckpointError(f"{path}: not a repro checkpoint file")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    kernel = header.get("kernel", "python")
    if kernel != "python":
        raise CheckpointError(
            f"{path}: checkpoint was written by the {kernel!r} engine, "
            "which has been removed; only checkpoints of the pure-Python "
            "engine can be restored"
        )
    return header


def read_checkpoint_header(path: Any) -> Dict[str, Any]:
    """Read and validate a checkpoint's header frame (cheap; no payload)."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            header = pickle.load(handle)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointError(f"{path}: not a repro checkpoint file ({exc})")
    return _validate_header(header, path)


#: What unpickling a truncated or corrupted payload, or one pickled by a
#: build whose classes had another layout, raises.  A corrupted length
#: field can ask for an impossible allocation (``MemoryError``).
_PAYLOAD_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError,
    IndexError, KeyError, TypeError, ValueError, OverflowError,
    MemoryError,
)


def load_checkpoint(path: Any) -> Any:
    """Restore the simulation saved at ``path``.

    Returns the :class:`~repro.system.simulation.Simulation`, ready for
    ``run()`` (which finishes the run exactly as the uninterrupted one
    would have, bit for bit), trace labels included: the run's unit id
    counter is part of the payload, so loading renumbers no other live
    simulation.  Raises :class:`CheckpointError` when the file is not a
    checkpoint or its payload is damaged or was written by an
    incompatible build.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        try:
            header = pickle.load(handle)
        except Exception as exc:
            raise CheckpointError(
                f"{path}: not a repro checkpoint file ({exc})"
            )
        _validate_header(header, path)
        try:
            payload = pickle.load(handle)
            simulation = payload["simulation"]
        except _PAYLOAD_ERRORS as exc:
            raise CheckpointError(
                f"{path}: damaged or incompatible checkpoint payload "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    return simulation
