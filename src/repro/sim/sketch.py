"""Bounded-memory streaming quantile sketches (chunked P² markers).

Long runs (ROADMAP item 5: billion-event horizons) cannot afford to keep
every observation, and a mean-only view (:class:`~repro.sim.monitor.MeanTally`)
hides exactly the tail behavior deadline scheduling is about: a strategy
with a fine mean lateness and a catastrophic p99 looks healthy.  This
module keeps the five-marker quantile state of the P² ("P-square")
estimator of Jain & Chlamtac (CACM 1985) -- per tracked quantile, five
marker heights whose positions are nudged toward their ideal ranks with
a piecewise-parabolic interpolation -- but commits observations in
*chunks* rather than one at a time.

Why chunked: the textbook per-observation update costs a few
microseconds of pure-Python arithmetic per value, which is the same
order as the simulator's entire per-completion cost -- unacceptable on
the metrics hot path.  Here ``observe`` is a plain ``list.append``; every
:data:`CHUNK` observations the block is sorted (C speed), the marker
positions advance by *exact* per-cell counts (``bisect``), and the
classic P² height adjustment runs to convergence.  The amortized cost is
tens of nanoseconds per observation, memory stays O(CHUNK), and the
marker accuracy matches the sequential algorithm (exact counts can only
help -- see ``tests/sim/test_sketch.py`` for the pinned tolerances).
Streams no longer than one chunk are answered exactly (nearest rank).

Determinism: the sketch is pure float arithmetic on the observed values
-- it draws no random numbers and consumes no event sequence numbers, so
attaching sketches to the metrics path is invisible to the golden
determinism gate.  Chunk boundaries are observation *counts*, never
wall-clock, and queries fold the pending block into a throwaway copy, so
the committed state is a pure function of the observation sequence no
matter when anything asks for an estimate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

#: The percentile trio reported by :class:`~repro.system.metrics.ClassStats`.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Observations buffered between marker commits.  Streams up to this
#: length are answered exactly; the commit cost (one sort + a handful of
#: marker nudges) amortizes to well under 0.1 us per observation.  A
#: power of two: recorders that append to the buffer themselves test
#: their count against ``CHUNK - 1`` to know when to call
#: :meth:`QuantileSketch.commit_chunk`.
CHUNK = 512


class QuantileSketch:
    """Streaming estimates of several quantiles of one observation stream.

    One P² marker set (5 heights, 5 positions, 5 desired positions) per
    tracked probability, advanced a :data:`CHUNK`-sized block at a time.
    ``observe`` is an append plus an occasional amortized commit.

    >>> sketch = QuantileSketch()          # p50 / p95 / p99
    >>> for value in data: sketch.observe(value)
    >>> sketch.quantile(0.99)
    """

    __slots__ = ("name", "probs", "_committed", "_buffer", "_q", "_n", "_np", "_dn")

    def __init__(
        self,
        probs: Sequence[float] = DEFAULT_QUANTILES,
        name: str = "",
    ) -> None:
        if not probs:
            raise ValueError("need at least one quantile probability")
        for p in probs:
            if not 0.0 < p < 1.0:
                raise ValueError(f"quantile probability must be in (0, 1), got {p}")
        self.name = name
        self.probs: Tuple[float, ...] = tuple(probs)
        #: Observations already folded into the markers (count excludes
        #: the pending buffer; see :attr:`count`).
        self._committed = 0
        #: Observations awaiting the next marker commit (exact until then).
        self._buffer: List[float] = []
        #: Per-quantile marker state, ``None`` until the first commit.
        self._q: Optional[List[List[float]]] = None  # marker heights
        self._n: Optional[List[List[int]]] = None    # marker positions
        self._np: Optional[List[List[float]]] = None  # desired positions
        self._dn: List[Tuple[float, ...]] = [
            (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0) for p in self.probs
        ]

    # -- recording -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Observations recorded so far (committed plus pending)."""
        return self._committed + len(self._buffer)

    def observe(self, value: float) -> None:
        """Record one observation (hot path: an append, amortized commit)."""
        buffer = self._buffer
        buffer.append(value)
        if len(buffer) >= CHUNK:
            self.commit_chunk()

    def commit_chunk(self) -> None:
        """Fold the pending buffer, a full :data:`CHUNK` of observations,
        into the markers and start an empty one.

        ``observe`` calls this when the buffer fills.  A hot-path recorder
        may append to ``_buffer`` directly instead, and then must call
        this on every ``CHUNK``-th observation.
        """
        self._commit(self._buffer)
        self._buffer = []
        self._committed += CHUNK

    def _commit(self, block: List[float]) -> None:
        """Fold one full block into the marker state (sorts ``block``)."""
        block.sort()
        if self._q is None:
            self._init_markers(block)
            return
        for j in range(len(self.probs)):
            self._fold(block, self._q[j], self._n[j], self._np[j], self._dn[j])

    def _init_markers(self, block: List[float]) -> None:
        """First commit: place every marker at its exact rank in ``block``.

        Strictly better than the textbook first-five-values start -- the
        markers begin *on* the empirical quantiles of a full chunk.
        """
        size = len(block)
        self._q, self._n, self._np = [], [], []
        for j, p in enumerate(self.probs):
            dn = self._dn[j]
            desired = [1.0 + (size - 1) * d for d in dn]
            ranks = [int(round(want)) for want in desired]
            # Keep positions strictly increasing (tiny probabilities or
            # tiny chunks could collapse neighboring ranks).
            for i in range(1, 5):
                if ranks[i] <= ranks[i - 1]:
                    ranks[i] = ranks[i - 1] + 1
            for i in range(3, -1, -1):
                if ranks[i] >= ranks[i + 1]:
                    ranks[i] = ranks[i + 1] - 1
            self._q.append([block[rank - 1] for rank in ranks])
            self._n.append(ranks)
            self._np.append(desired)

    @staticmethod
    def _fold(
        block: List[float],
        q: List[float],
        n: List[int],
        np_: List[float],
        dn: Tuple[float, ...],
    ) -> None:
        """Advance one marker set by a sorted block of observations.

        Positions grow by the *exact* number of block values below each
        marker height (the batched equivalent of the sequential cell
        find), then the classic P² parabolic adjustment runs until every
        marker is within one position of its desired rank.
        """
        size = len(block)
        if block[0] < q[0]:
            q[0] = block[0]
        if block[-1] > q[4]:
            q[4] = block[-1]
        n[1] += bisect_left(block, q[1])
        n[2] += bisect_left(block, q[2])
        n[3] += bisect_left(block, q[3])
        n[4] += size
        np_[1] += size * dn[1]
        np_[2] += size * dn[2]
        np_[3] += size * dn[3]
        np_[4] += size
        # Nudge interior markers toward their desired positions, one
        # position per step: parabolic (P^2) when the new height stays
        # between the neighbors, linear otherwise.  Each step moves a
        # marker monotonically toward its target, so this terminates.
        while True:
            moved = False
            for i in (1, 2, 3):
                ni = n[i]
                d = np_[i] - ni
                if d >= 1.0:
                    if n[i + 1] - ni <= 1:
                        continue
                    d = 1
                elif d <= -1.0:
                    if n[i - 1] - ni >= -1:
                        continue
                    d = -1
                else:
                    continue
                qi = q[i]
                nl = n[i - 1]
                nr = n[i + 1]
                candidate = qi + d / (nr - nl) * (
                    (ni - nl + d) * (q[i + 1] - qi) / (nr - ni)
                    + (nr - ni - d) * (qi - q[i - 1]) / (ni - nl)
                )
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:  # parabolic left the bracket: fall back to linear
                    q[i] = qi + d * (q[i + d] - qi) / (n[i + d] - ni)
                n[i] = ni + d
                moved = True
            if not moved:
                return

    # -- queries -------------------------------------------------------------

    def quantile(self, p: float) -> float:
        """Current estimate of the ``p`` quantile (``nan`` when empty).

        ``p`` must be one of the tracked probabilities; exact (nearest
        rank) while the stream fits in one chunk, the P² middle-marker
        height afterwards.  Queries never mutate committed state: a
        pending partial block is folded into a throwaway copy.
        """
        try:
            j = self.probs.index(p)
        except ValueError:
            raise KeyError(
                f"quantile {p} is not tracked (tracked: {self.probs})"
            ) from None
        if self.count == 0:
            return math.nan
        if self._q is None:  # still inside the first chunk: exact
            ordered = sorted(self._buffer)
            rank = math.ceil(p * len(ordered)) - 1
            return ordered[max(0, min(len(ordered) - 1, rank))]
        if not self._buffer:
            return self._q[j][2]
        block = sorted(self._buffer)
        q = list(self._q[j])
        self._fold(block, q, list(self._n[j]), list(self._np[j]), self._dn[j])
        return q[2]

    def estimates(self) -> Tuple[float, ...]:
        """All tracked quantile estimates, in ``probs`` order."""
        return tuple(self.quantile(p) for p in self.probs)

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Discard everything recorded so far (warm-up truncation)."""
        self._committed = 0
        self._buffer = []
        self._q = None
        self._n = None
        self._np = None

    def state(self) -> tuple:
        """The complete internal state, for equality checks and tests."""
        return (
            self.probs, self.count, list(self._buffer),
            self._q, self._n, self._np,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.state() == other.state()

    def __repr__(self) -> str:
        if self.count == 0:
            return f"QuantileSketch({self.name!r}, empty)"
        pairs = ", ".join(
            f"p{int(p * 100)}={self.quantile(p):.6g}" for p in self.probs
        )
        return f"QuantileSketch({self.name!r}, n={self.count}, {pairs})"
