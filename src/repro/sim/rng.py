"""Reproducible named random streams.

A simulation experiment must be reproducible (same seed, same trajectory)
and its variance-reduction story depends on *stream separation*: the local
task arrival process at node 3 should consume random numbers independently
of the global-task execution-time draws, so that changing one part of the
model does not perturb another part's random sequence.

:class:`StreamFactory` hands out independent :class:`random.Random`
instances keyed by a string name.  Streams are derived deterministically
from ``(master_seed, name)`` so the same name always yields the same
sequence for a given master seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator


class StreamFactory:
    """Factory of independent, reproducible random streams.

    Example::

        streams = StreamFactory(seed=42)
        arrivals = streams.get("local-arrivals/node-0")
        services = streams.get("local-service/node-0")

    Each stream is a plain :class:`random.Random` (Mersenne Twister).  Two
    factories with the same seed produce identical streams; streams with
    different names are statistically independent for practical purposes
    because each is seeded from a SHA-256 digest of ``(seed, name)``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}
        self._children: Dict[str, "StreamFactory"] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(self._derive_seed(name))
            self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "StreamFactory":
        """Return the sub-factory namespaced under ``name``.

        Useful for replications: ``factory.spawn(f"rep-{i}")`` gives each
        replication its own independent universe of named streams.  The
        sub-factory is cached, so repeated spawns of the same name return
        the same object.
        """
        child = self._children.get(name)
        if child is None:
            child = StreamFactory(self._derive_seed(name))
            self._children[name] = child
        return child

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}\x1f{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def names(self) -> Iterator[str]:
        """Names of all streams created so far (for diagnostics)."""
        return iter(self._streams)

    def __repr__(self) -> str:
        return f"StreamFactory(seed={self.seed}, streams={len(self._streams)})"
