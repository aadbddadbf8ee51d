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
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Set

from ..sim.rng import StreamFactory

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


def _tree_update(tree: List[int], index: int, delta: int, size: int) -> None:
    """Add ``delta`` at external 0-based ``index`` in a 1-based Fenwick."""
    i = index + 1
    while i <= size:
        tree[i] += delta
        i += i & -i


def _tree_rank(tree: List[int], index: int) -> int:
    """Members with external index ``<= index`` (inclusive prefix sum)."""
    i = index + 1
    total = 0
    while i:
        total += tree[i]
        i -= i & -i
    return total


def _tree_select(tree: List[int], k: int, bit: int, size: int) -> int:
    """External index of the ``k``-th member in index order (1-based k)."""
    pos = 0
    while bit:
        nxt = pos + bit
        if nxt <= size and tree[nxt] < k:
            k -= tree[nxt]
            pos = nxt
        bit >>= 1
    return pos


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
    decision (O(n)), the policy maintains *count buckets* -- one Fenwick
    tree of member node indices per distinct outstanding count -- updated
    incrementally from the node outstanding hooks
    (:attr:`~repro.system.node.Node._outstanding_listener`), with lazy
    min-heaps over the bucket values (one fault-oblivious, one of buckets
    with live members).  A decision finds the lowest eligible count at
    the heap top, then selects the ``r``-th member of that bucket by
    Fenwick descent, rank-correcting for excluded/down members.  The
    historical draw trajectory -- ties scanned in ascending index order,
    one ``randrange`` per multi-way tie, none for singletons -- is
    reproduced exactly, in O(log n) per decision.  Counts derive from the
    fleet's flat signal arrays (queue + busy), which move in exact
    ``+-1.0`` steps.
    """

    name = LEAST_OUTSTANDING

    def __init__(self, nodes: Sequence, streams: StreamFactory) -> None:
        self.nodes = list(nodes)
        self._stream = streams.get("placement-lo")
        node_count = len(self.nodes)
        self._node_count = node_count
        self._select_bit = (
            1 << (node_count.bit_length() - 1) if node_count else 0
        )
        self._counts: List[int] = [0] * node_count
        self._down: List[bool] = [False] * node_count
        #: value -> Fenwick tree over member node indices.
        self._bucket_tree: Dict[int, List[int]] = {}
        self._bucket_size: Dict[int, int] = {}
        #: value -> down members of the bucket (live tracking only).
        self._bucket_down: Dict[int, Set[int]] = {}
        #: Emptied buckets return their (all-zero again) trees here.
        self._free_trees: List[List[int]] = []
        self._heap_all: List[int] = []
        self._heap_all_member: Set[int] = set()
        self._heap_live: List[int] = []
        self._heap_live_member: Set[int] = set()
        self._fleet = None
        if node_count:
            fleet = self.nodes[0].metrics.fleet
            self._fleet = fleet
            # Every node starts in the 0 bucket, built in O(n): a
            # Fenwick tree whose leaves are all 1 holds ``i & -i`` at
            # position ``i``.  A node that already holds work (never so
            # in a fresh simulation) moves to its own bucket through the
            # listener, which reconciles against the fleet arrays.
            self._bucket_tree[0] = [i & -i for i in range(node_count + 1)]
            self._bucket_size[0] = node_count
            self._heap_all.append(0)
            self._heap_all_member.add(0)
            queue_value = fleet.queue_value
            busy_value = fleet.busy_value
            touch = self._touch
            for index, node in enumerate(self.nodes):
                node._outstanding_listener = touch
                if queue_value[index] or busy_value[index]:
                    touch(index)

    def attach_live_set(self, live) -> None:
        self.live = live
        counts = self._counts
        down = self._down
        bucket_down = self._bucket_down
        bucket_down.clear()
        for index in range(self._node_count):
            is_down = index not in live
            down[index] = is_down
            if is_down:
                bucket_down.setdefault(counts[index], set()).add(index)
        members: Set[int] = set()
        heap_live: List[int] = []
        for value, size in self._bucket_size.items():
            downs = bucket_down.get(value)
            if size - (len(downs) if downs else 0) > 0:
                members.add(value)
                heap_live.append(value)
        heapify(heap_live)
        self._heap_live = heap_live
        self._heap_live_member = members

    def _outstanding(self) -> List[int]:
        """From-scratch recompute (reference for tests; not on hot path)."""
        return [
            node.queue_length + (1 if node.busy else 0) for node in self.nodes
        ]

    # -- incremental maintenance ------------------------------------------

    def _bucket_insert(self, value: int, index: int) -> None:
        tree = self._bucket_tree.get(value)
        if tree is None:
            free = self._free_trees
            tree = free.pop() if free else [0] * (self._node_count + 1)
            self._bucket_tree[value] = tree
            self._bucket_size[value] = 1
        else:
            self._bucket_size[value] += 1
        _tree_update(tree, index, 1, self._node_count)
        if value not in self._heap_all_member:
            self._heap_all_member.add(value)
            heappush(self._heap_all, value)
        if self.live is not None:
            if self._down[index]:
                self._bucket_down.setdefault(value, set()).add(index)
            elif value not in self._heap_live_member:
                self._heap_live_member.add(value)
                heappush(self._heap_live, value)

    def _bucket_remove(self, value: int, index: int) -> None:
        tree = self._bucket_tree[value]
        _tree_update(tree, index, -1, self._node_count)
        size = self._bucket_size[value] - 1
        if size:
            self._bucket_size[value] = size
        else:
            # Every +1 in the tree was matched by a -1: it is all zeros
            # again, so pool it for the next value that appears.
            del self._bucket_tree[value]
            del self._bucket_size[value]
            self._free_trees.append(tree)
        if self._down[index]:
            downs = self._bucket_down.get(value)
            if downs is not None:
                downs.discard(index)
                if not downs:
                    del self._bucket_down[value]

    def _touch(self, index: int) -> None:
        """Reconcile one node's bucket membership with the fleet arrays.

        Called by the nodes after every outstanding-count transition
        (submit/dispatch-abort/complete/crash/recover); also absorbs
        liveness flips, since the fault injector updates the live set
        before invoking ``crash()``/``recover()``.
        """
        fleet = self._fleet
        value = int(fleet.queue_value[index] + fleet.busy_value[index])
        old = self._counts[index]
        live = self.live
        down = live is not None and index not in live
        if value == old:
            if down == self._down[index]:
                return
            # Liveness-only flip: move the index between the bucket's
            # live and down populations without touching the tree.
            if down:
                self._down[index] = True
                self._bucket_down.setdefault(value, set()).add(index)
            else:
                self._down[index] = False
                downs = self._bucket_down.get(value)
                if downs is not None:
                    downs.discard(index)
                    if not downs:
                        del self._bucket_down[value]
                if value not in self._heap_live_member:
                    self._heap_live_member.add(value)
                    heappush(self._heap_live, value)
            return
        # _bucket_remove consults the *old* down flag for the old
        # bucket's down set; flip it only between remove and insert.
        self._bucket_remove(old, index)
        self._counts[index] = value
        self._down[index] = down
        self._bucket_insert(value, index)

    # -- decisions ---------------------------------------------------------

    def _min_value(self, excluded) -> Optional[int]:
        """Lowest count whose bucket has a non-excluded member."""
        heap = self._heap_all
        member = self._heap_all_member
        sizes = self._bucket_size
        counts = self._counts
        blocked = None
        found = None
        while heap:
            value = heap[0]
            size = sizes.get(value, 0)
            if size == 0:
                # Stale entry (bucket emptied since the push): drop it.
                heappop(heap)
                member.discard(value)
                continue
            hits = 0
            for e in excluded:
                if counts[e] == value:
                    hits += 1
            if size > hits:
                found = value
                break
            # Live bucket, but this fan already took every member: set it
            # aside for this decision only (membership stays).
            heappop(heap)
            if blocked is None:
                blocked = [value]
            else:
                blocked.append(value)
        if blocked:
            for value in blocked:
                heappush(heap, value)
        return found

    def _min_live_value(self, excluded) -> Optional[int]:
        """Lowest count with a live, non-excluded member (or ``None``)."""
        heap = self._heap_live
        member = self._heap_live_member
        sizes = self._bucket_size
        bucket_down = self._bucket_down
        counts = self._counts
        down = self._down
        blocked = None
        found = None
        while heap:
            value = heap[0]
            size = sizes.get(value, 0)
            downs = bucket_down.get(value)
            live_size = size - (len(downs) if downs else 0)
            if live_size <= 0:
                heappop(heap)
                member.discard(value)
                continue
            hits = 0
            for e in excluded:
                if counts[e] == value and not down[e]:
                    hits += 1
            if live_size > hits:
                found = value
                break
            heappop(heap)
            if blocked is None:
                blocked = [value]
            else:
                blocked.append(value)
        if blocked:
            for value in blocked:
                heappush(heap, value)
        return found

    def _select(self, value: int, excluded, failure_aware: bool) -> int:
        """Pick uniformly among the bucket's eligible members.

        Reproduces the historical tie-break exactly: eligible members
        enumerate in ascending index order, ``r = randrange(k)`` only for
        ``k > 1``, and the pick is the ``r``-th eligible member -- found
        by Fenwick descent after shifting ``r`` past the ranks of
        skipped (excluded or down) members.
        """
        tree = self._bucket_tree[value]
        size = self._bucket_size[value]
        counts = self._counts
        skips = None
        if failure_aware:
            downs = self._bucket_down.get(value)
            if downs:
                skips = set(downs)
            down = self._down
            for e in excluded:
                if counts[e] == value and not down[e]:
                    if skips is None:
                        skips = {e}
                    else:
                        skips.add(e)
        else:
            for e in excluded:
                if counts[e] == value:
                    if skips is None:
                        skips = {e}
                    else:
                        skips.add(e)
        eligible = size - (len(skips) if skips else 0)
        if eligible == 1:
            rank = 0
        else:
            rank = self._stream.randrange(eligible)
        if skips:
            for skip_rank in sorted(_tree_rank(tree, e) - 1 for e in skips):
                if skip_rank <= rank:
                    rank += 1
        return _tree_select(tree, rank + 1, self._select_bit, self._node_count)

    def _pick(self, excluded) -> int:
        live = self.live
        if live is not None and live.live_count > 0:
            value = self._min_live_value(excluded)
            if value is not None:
                return self._select(value, excluded, True)
            # Every live node already picked for this fan: degrade to
            # the fault-oblivious choice among the rest.
        value = self._min_value(excluded)
        if value is None:
            raise ValueError("no nodes available for placement")
        return self._select(value, excluded, False)

    def pick_one(self) -> int:
        return self._pick(_NO_EXCLUSIONS)

    def pick_distinct(self, count: int) -> List[int]:
        if count > len(self.nodes):
            raise ValueError(
                f"cannot pick {count} distinct nodes from {len(self.nodes)}"
            )
        chosen: List[int] = []
        excluded: set = set()
        for _ in range(count):
            index = self._pick(excluded)
            excluded.add(index)
            chosen.append(index)
        return chosen
