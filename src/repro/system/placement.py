"""Subtask placement policies (where a global task's subtasks execute).

The paper picks execution nodes uniformly at random -- with replacement
for serial chains, without replacement within a parallel fan (Sec. 5.2).
The scenario subsystem generalizes this into pluggable policies:

* :class:`UniformPlacement`      -- the paper's baseline, preserved draw
  for draw (same stream, same calls), so fixed-seed results are
  bit-identical to the pre-policy code;
* :class:`RoundRobinPlacement`   -- deterministic rotation, no randomness;
* :class:`ZipfPlacement`         -- skewed popularity: node ``i`` is hit
  with probability proportional to ``1 / (i + 1)^s`` (a hotspot model);
* :class:`LeastOutstandingPlacement` -- join-the-shortest-queue routing on
  the current outstanding work (queue length + in-service), random
  tie-breaks.

RNG-stream isolation rule: every policy that consumes randomness owns a
*named* stream.  Uniform keeps the historical ``"global-route"`` name;
new policies use fresh names (``"placement-zipf"``, ``"placement-lo"``)
so that enabling them never perturbs the draw sequences of existing
streams -- adding scenarios must not move fixed-seed baseline results.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Sequence, Set

from ..sim.rng import StreamFactory
from .node import shared_states

#: Policy-name constants (mirrored by ``SystemConfig.placement``).
UNIFORM = "uniform"
ROUND_ROBIN = "round-robin"
ZIPF = "zipf"
LEAST_OUTSTANDING = "least-outstanding"

PLACEMENT_POLICIES = (UNIFORM, ROUND_ROBIN, ZIPF, LEAST_OUTSTANDING)


class PlacementPolicy:
    """Chooses execution nodes for the subtasks of global tasks."""

    #: Human-readable policy name.
    name: str = "abstract"

    #: Optional :class:`~repro.system.faults.LiveSet` (attached by the
    #: simulation when a fault spec is active).  When set, policies avoid
    #: down nodes -- O(1) membership tests -- and degrade gracefully to
    #: their fault-oblivious behavior when too few nodes are up.  ``None``
    #: (every fault-free run) leaves each policy's draw sequence exactly
    #: as before.
    live = None

    def attach_live_set(self, live) -> None:
        """Make this policy failure-aware (skip crashed nodes)."""
        self.live = live

    def pick_one(self) -> int:
        """Node index for one serial-stage subtask."""
        raise NotImplementedError

    def pick_distinct(self, count: int) -> List[int]:
        """``count`` *distinct* node indices for one parallel fan."""
        raise NotImplementedError


class UniformPlacement(PlacementPolicy):
    """The paper's uniform-random placement (the baseline policy).

    Draws come from the historical ``"global-route"`` stream via exactly
    the calls the factories used to make (``randrange`` per serial stage,
    ``sample`` per fan), keeping golden fixed-seed results bit-identical.
    """

    name = UNIFORM

    def __init__(self, node_count: int, streams: StreamFactory) -> None:
        self.node_count = node_count
        self._stream = streams.get("global-route")

    def pick_one(self) -> int:
        index = self._stream.randrange(self.node_count)
        live = self.live
        if live is None or index in live or live.live_count == 0:
            # Fault-free configs (live is None) take exactly the historical
            # single draw; a whole-cluster outage keeps the draw too (the
            # unit queues at a down node until recovery).
            return index
        # Redraw restricted to the live set: uniform over up nodes.
        indices = live.live_indices()
        return indices[self._stream.randrange(len(indices))]

    def pick_distinct(self, count: int) -> List[int]:
        live = self.live
        if live is not None and count <= live.live_count < live.node_count:
            return self._stream.sample(live.live_indices(), count)
        # Fault-free, everyone-up, or too few live nodes for a distinct
        # fan: the historical full-range sample (graceful degradation).
        return self._stream.sample(range(self.node_count), count)


class RoundRobinPlacement(PlacementPolicy):
    """Deterministic rotation over the nodes; consumes no randomness."""

    name = ROUND_ROBIN

    def __init__(self, node_count: int) -> None:
        self.node_count = node_count
        self._cursor = 0

    def pick_one(self) -> int:
        index = self._cursor
        node_count = self.node_count
        live = self.live
        if live is not None and live.live_count > 0:
            # Skip-scan: rotate past down nodes (at most one full lap).
            for _ in range(node_count):
                if index in live:
                    break
                index = (index + 1) % node_count
        self._cursor = (index + 1) % node_count
        return index

    def pick_distinct(self, count: int) -> List[int]:
        if count > self.node_count:
            raise ValueError(
                f"cannot pick {count} distinct nodes from {self.node_count}"
            )
        live = self.live
        if live is not None and 0 < live.live_count < count:
            # Not enough live nodes for a distinct fan: fall back to the
            # oblivious rotation (down members queue until recovery).
            chosen = []
            index = self._cursor
            for _ in range(count):
                chosen.append(index)
                index = (index + 1) % self.node_count
            self._cursor = index
            return chosen
        # Consecutive (live) picks are distinct for count <= live count.
        return [self.pick_one() for _ in range(count)]


class ZipfPlacement(PlacementPolicy):
    """Zipf-skewed hotspot placement: low-index nodes absorb most work.

    Node ``i`` is selected with probability proportional to
    ``1 / (i + 1)^s``; ``s = 0`` degenerates to uniform, larger ``s``
    concentrates load.

    Fleet-scale samplers (draw *counts* identical to the historical
    renormalized walks, one ``random()`` per pick):

    * fault-free ``pick_one`` is the historical binary search over the
      static CDF, untouched;
    * fault-free ``pick_distinct`` samples without replacement by
      descending a static Fenwick tree over the weights, correcting for
      already-chosen indices block by block -- O(count log n) per fan
      instead of the O(count * n) walk;
    * the failure-aware ``pick_one`` redraw is O(1) via a Vose alias
      table over the live weights, rebuilt only when the live membership
      actually changes (``LiveSet.version``).
    """

    name = ZIPF

    def __init__(
        self, node_count: int, s: float, streams: StreamFactory
    ) -> None:
        if s < 0:
            raise ValueError(f"zipf exponent must be non-negative, got {s}")
        self.node_count = node_count
        self.s = s
        self._stream = streams.get("placement-zipf")
        # Log-space form of 1 / (i + 1)^s: underflows smoothly to 0.0 at
        # extreme exponents where the direct power would overflow.
        self._weights = [
            math.exp(-s * math.log(i + 1)) for i in range(node_count)
        ]
        total = sum(self._weights)
        cumulative: List[float] = []
        acc = 0.0
        for w in self._weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard against float drift
        self._cdf = cumulative
        # Static Fenwick tree (1-based) over the raw weights, built once:
        # ``pick_distinct`` walks it instead of rescanning the weights.
        tree = [0.0] * (node_count + 1)
        for i, w in enumerate(self._weights):
            j = i + 1
            tree[j] += w
            parent = j + (j & -j)
            if parent <= node_count:
                tree[parent] += tree[j]
        self._tree = tree
        self._total_weight = total
        self._top_bit = 1 << (node_count.bit_length() - 1)
        # Alias-table cache for the failure-aware redraw.
        self._alias_live = None
        self._alias_version = -1
        self._alias: tuple = (None, None, None)

    def pick_one(self) -> int:
        index = bisect_right(self._cdf, self._stream.random())
        live = self.live
        if live is None or index in live or live.live_count == 0:
            return index
        # One renormalized draw over the live nodes (rejection against the
        # full CDF could stall for a very long time when a down node holds
        # nearly all the mass at extreme skew).
        cols, prob, alias = self._alias_table(live)
        if prob is None:
            # Every live weight underflowed: the skew is so extreme any
            # choice is equivalent; take the most popular live index.
            return cols[0]
        scaled = self._stream.random() * len(cols)
        j = int(scaled)
        if scaled - j < prob[j]:
            return cols[j]
        return cols[alias[j]]

    def _alias_table(self, live) -> tuple:
        """Vose alias table over the live weights, cached per live-set
        version so repair/failure churn -- not every draw -- pays the
        O(live) rebuild."""
        if self._alias_live is live and self._alias_version == live.version:
            return self._alias
        cols = live.live_indices()
        weights = self._weights
        total = 0.0
        for i in cols:
            total += weights[i]
        if total <= 0.0:
            table = (cols, None, None)
        else:
            n = len(cols)
            scaled = [weights[i] * n / total for i in cols]
            prob = [1.0] * n
            alias = list(range(n))
            small = [j for j, q in enumerate(scaled) if q < 1.0]
            large = [j for j, q in enumerate(scaled) if q >= 1.0]
            while small and large:
                s = small.pop()
                big = large.pop()
                prob[s] = scaled[s]
                alias[s] = big
                leftover = scaled[big] - (1.0 - scaled[s])
                scaled[big] = leftover
                if leftover < 1.0:
                    small.append(big)
                else:
                    large.append(big)
            # Whatever remains on either stack gets probability 1.0 (its
            # initialization) -- the float-leftover columns.
            table = (cols, prob, alias)
        self._alias_live = live
        self._alias_version = live.version
        self._alias = table
        return table

    def pick_distinct(self, count: int) -> List[int]:
        if count > self.node_count:
            raise ValueError(
                f"cannot pick {count} distinct nodes from {self.node_count}"
            )
        live = self.live
        if live is not None and count <= live.live_count < live.node_count:
            # Failure-aware fan: the historical renormalized walk over the
            # live indices (O(live) per pick; this path only runs under
            # active faults, where the live scan is already paid).
            return self._pick_distinct_walk(live.live_indices(), count)
        # Fault-free fan: weighted sampling without replacement via the
        # static Fenwick tree.  Exactly one draw per pick (as the walk),
        # correcting each descent block for the already-chosen indices,
        # so a heavily skewed tail (tiny or underflowed-to-zero weights)
        # cannot stall the sampler the way rejection sampling would.
        weights = self._weights
        tree = self._tree
        node_count = self.node_count
        chosen: List[int] = []
        total = self._total_weight
        for _ in range(count):
            index = -1
            if total <= 0.0:
                # Every remaining weight underflowed: any completion
                # order is equivalent; take the most popular (lowest)
                # unchosen index deterministically, no draw.
                for index in range(node_count):
                    if index not in chosen:
                        break
            else:
                remaining_mass = self._stream.random() * total
                pos = 0
                bit = self._top_bit
                while bit:
                    nxt = pos + bit
                    if nxt <= node_count:
                        block = tree[nxt]
                        for c in chosen:
                            if pos <= c < nxt:
                                block -= weights[c]
                        if block <= remaining_mass:
                            remaining_mass -= block
                            pos = nxt
                    bit >>= 1
                if pos >= node_count:
                    # Float drift carried the descent past the end: fall
                    # back to the largest unchosen index (the walk's
                    # last-position fallback).
                    for index in range(node_count - 1, -1, -1):
                        if index not in chosen:
                            break
                elif pos in chosen:
                    # At extreme skew the remaining mass is rounding
                    # residue from cancelling the dominant chosen
                    # weights, and the descent can strand on a chosen
                    # index; distinctness is a hard guarantee, so take
                    # the nearest unchosen neighbor (no extra draw).
                    index = -1
                    for candidate in range(pos + 1, node_count):
                        if candidate not in chosen:
                            index = candidate
                            break
                    if index < 0:
                        for candidate in range(pos - 1, -1, -1):
                            if candidate not in chosen:
                                index = candidate
                                break
                else:
                    index = pos
            chosen.append(index)
            total -= weights[index]
        return chosen

    def _pick_distinct_walk(
        self, remaining: List[int], count: int
    ) -> List[int]:
        """The historical renormalized walk (kept for the live path)."""
        weights = self._weights
        chosen: List[int] = []
        for _ in range(count):
            total = 0.0
            for index in remaining:
                total += weights[index]
            if total <= 0.0:
                position = 0
            else:
                threshold = self._stream.random() * total
                acc = 0.0
                position = len(remaining) - 1
                for i, index in enumerate(remaining):
                    acc += weights[index]
                    if threshold < acc:
                        position = i
                        break
            chosen.append(remaining.pop(position))
        return chosen


#: Shared empty exclusion set: ``pick_one`` allocates nothing per call.
_NO_EXCLUSIONS: frozenset = frozenset()


class LeastOutstandingPlacement(PlacementPolicy):
    """Route to the node with the least outstanding work.

    Outstanding work is the ready-queue length plus the unit in service --
    the information a real load balancer has without knowing service
    times.  Ties (common at low load, where everyone is idle) break by a
    draw from the policy's own ``"placement-lo"`` stream so no node is
    structurally favored.

    Fleet-scale bookkeeping: instead of rescanning every node per
    decision (O(n)), the policy keeps sorted index lists, updated from
    the run's outstanding hook
    (:attr:`~repro.system.node.NodeShared.outstanding_listener`):
    ``_active`` holds the nodes with any outstanding work and
    ``_members[c]`` those with exactly ``c > 0`` units.  The idle (count
    0) bucket is the complement of ``_active`` and is never stored.  A
    decision visits the counts in ascending order -- 0 first while any
    node is idle -- and takes the first bucket with an eligible member.
    The historical draw
    trajectory -- ties scanned in ascending index order, one
    ``randrange`` per multi-way tie, none for singletons -- is
    reproduced exactly.  Counts derive from each node's queue and busy
    signals, which move in exact ``+-1.0`` steps.

    Cost, with ``a`` the number of nodes holding work: a decision is a
    few O(log a) binary searches (one more per skipped member); an
    update is an O(log a) search plus an O(a) list shift.  One
    ``insort`` + ``del`` measured 0.7 us with 100 entries, 3.6 us with
    10k and 35 us with 100k (Python 3.11, 2-vCPU Xeon VM).  The design
    assumes ``a`` stays small: a few dozen of 100k nodes in the
    ``fleet-fanout`` benchmark, and no library workload keeps more
    busy.  A fleet that keeps most of its nodes busy pays the shift on
    every move.
    """

    name = LEAST_OUTSTANDING

    def __init__(self, nodes: Sequence, streams: StreamFactory) -> None:
        self._stream = streams.get("placement-lo")
        node_count = len(nodes)
        self._node_count = node_count
        self._counts: List[int] = [0] * node_count
        #: Per-node down flags, allocated by ``attach_live_set``: only
        #: failure-aware runs read them.
        self._down: List[bool] = []
        #: Sorted indices of the nodes holding work (count > 0).
        self._active: List[int] = []
        #: count > 0 -> sorted indices of the nodes holding that count.
        self._members: Dict[int, List[int]] = {}
        #: count -> down nodes holding it (live tracking only).
        self._bucket_down: Dict[int, Set[int]] = {}
        # One listener per run object, called with the node whose count
        # moved (the policy keeps no node list).  A node that already
        # holds work (never so in a fresh simulation) moves to its own
        # bucket through the listener, which reconciles its signals.
        touch = self._touch
        for shared in shared_states(nodes):
            shared.outstanding_listener = touch
        for node in nodes:
            if node._q_value or node._b_value:
                touch(node)

    def attach_live_set(self, live) -> None:
        self.live = live
        counts = self._counts
        self._down = down = [False] * self._node_count
        bucket_down = self._bucket_down
        bucket_down.clear()
        for index in range(self._node_count):
            is_down = index not in live
            down[index] = is_down
            if is_down:
                bucket_down.setdefault(counts[index], set()).add(index)

    @staticmethod
    def _outstanding(nodes: Sequence) -> List[int]:
        """From-scratch recompute over ``nodes`` (reference for tests;
        not on the hot path)."""
        return [
            node.queue_length + (1 if node.busy else 0) for node in nodes
        ]

    # -- incremental maintenance ------------------------------------------

    def _touch(self, node) -> None:
        """Reconcile ``node``'s bucket membership with its signals.

        Called by the nodes after every outstanding-count transition
        (submit/dispatch-abort/complete/crash/recover); also absorbs
        liveness flips, since the fault injector updates the live set
        before invoking ``crash()``/``recover()``.
        """
        index = node.index
        value = int(node._q_value + node._b_value)
        counts = self._counts
        old = counts[index]
        if value != old:
            counts[index] = value
            members = self._members
            if old:
                bucket = members[old]
                if len(bucket) == 1:
                    del members[old]
                else:
                    del bucket[bisect_left(bucket, index)]
            else:
                insort(self._active, index)
            if value:
                bucket = members.get(value)
                if bucket is None:
                    members[value] = [index]
                else:
                    insort(bucket, index)
            else:
                active = self._active
                del active[bisect_left(active, index)]
        if self.live is not None:
            self._touch_down(index, old, value)

    def _touch_down(self, index: int, old: int, value: int) -> None:
        """Move ``index`` between the buckets' down sets (failure-aware
        runs only)."""
        down = index not in self.live
        was_down = self._down[index]
        if down == was_down and (not down or old == value):
            return
        bucket_down = self._bucket_down
        if was_down:
            downs = bucket_down[old]
            downs.discard(index)
            if not downs:
                del bucket_down[old]
        if down:
            downs = bucket_down.get(value)
            if downs is None:
                bucket_down[value] = {index}
            else:
                downs.add(index)
        self._down[index] = down

    # -- decisions ---------------------------------------------------------

    def _skips(self, value: int, excluded, failure_aware: bool) -> Set[int]:
        """Members of the ``value`` bucket a decision passes over: this
        fan's picks so far and, when failure-aware, the down nodes."""
        counts = self._counts
        skips = {e for e in excluded if counts[e] == value}
        if failure_aware:
            downs = self._bucket_down.get(value)
            if downs:
                skips |= downs
        return skips

    def _draw(self, eligible: int, skip_ranks: List[int]) -> int:
        """Bucket rank of the chosen member: ``r = randrange(eligible)``
        (no draw for a singleton), shifted past the skipped ranks."""
        rank = self._stream.randrange(eligible) if eligible > 1 else 0
        for skip in sorted(skip_ranks):
            if skip <= rank:
                rank += 1
        return rank

    def _select(self, excluded, failure_aware: bool) -> int:
        """Pick uniformly among the least-loaded eligible nodes.

        Counts are tried in ascending order.  Within the first bucket
        with an eligible member, eligible members enumerate in ascending
        index order and the pick is the ``_draw``-th member.  Returns
        ``-1`` when every node is skipped.
        """
        active = self._active
        idle = self._node_count - len(active)
        if idle:
            skips = self._skips(0, excluded, failure_aware)
            eligible = idle - len(skips)
            if eligible > 0:
                # An idle index ``e`` has rank ``e - (active indices
                # below e)``; the ``r``-th idle index is ``r + i`` for
                # the first ``i`` with ``active[i] - i > r``.  That ``i``
                # lies between the active counts up to ``r`` and up to
                # ``r + len(active)``: usually equal, so no search.
                rank = self._draw(
                    eligible, [e - bisect_left(active, e) for e in skips]
                )
                lo = bisect_right(active, rank)
                hi = bisect_right(active, rank + len(active), lo)
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if active[mid] - mid > rank:
                        hi = mid
                    else:
                        lo = mid + 1
                return rank + lo
        members = self._members
        for value in sorted(members):
            bucket = members[value]
            skips = self._skips(value, excluded, failure_aware)
            eligible = len(bucket) - len(skips)
            if eligible > 0:
                rank = self._draw(
                    eligible, [bisect_left(bucket, e) for e in skips]
                )
                return bucket[rank]
        return -1

    def _pick(self, excluded) -> int:
        live = self.live
        if live is not None and live.live_count > 0:
            index = self._select(excluded, True)
            if index >= 0:
                return index
            # Every live node already picked for this fan: degrade to
            # the fault-oblivious choice among the rest.
        index = self._select(excluded, False)
        if index < 0:
            raise ValueError("no nodes available for placement")
        return index

    def pick_one(self) -> int:
        return self._pick(_NO_EXCLUSIONS)

    def pick_distinct(self, count: int) -> List[int]:
        if count > self._node_count:
            raise ValueError(
                f"cannot pick {count} distinct nodes from {self._node_count}"
            )
        chosen: List[int] = []
        for _ in range(count):
            chosen.append(self._pick(chosen))
        return chosen
