"""Priority indexes for the simplify -> CPG -> select decision loops.

Naively, ``simplify()`` rescans every active node per batch,
``choose_spill_candidate()`` rescans all actives on every pressure
event, and the preference selector linearly scans its whole ready
queue per pick.  This module holds the incrementally maintained
indexes that replace those scans:

* :class:`DegreeWorklist` — a bucketed low-degree worklist plus a lazy
  min-heap over the Chaitin ``spill_cost / degree`` metric.  The
  :attr:`~repro.regalloc.igraph.AllocGraph.degree_listener` hook feeds
  the bucket, so low-degree candidates surface in O(1); the heap is
  never touched by a degree event and re-keys an entry only when it
  pops with an out-of-date key.  Only significant nodes (degree >= K)
  get heap entries, since a spill is picked only when no active node
  has low degree;
* :class:`LazyMaxHeap` — a generation-stamped max-heap used by
  :class:`~repro.core.select.PreferenceSelector` for its ready queue.

Both are *lazy* structures: stale entries are left in the heap and
dealt with at pop time.  Laziness cannot change any pick because every
entry carries the full deterministic tie-break key.  The ready heap
accepts only a node's newest generation stamp, whose key equals the
key a rescan would compute at pick time; the spill heap's stored keys
are lower bounds of the current ones, so the first entry that pops
with a current key is the rescan's minimum (see DESIGN.md §5f for both
invariant arguments).  These are the only engines; the scan
implementations they replaced are the pick-by-pick oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.errors import AllocationError
from repro.ir.values import VReg

__all__ = [
    "DegreeWorklist",
    "LazyMaxHeap",
]


class DegreeWorklist:
    """Degree-indexed candidate structure over one ``AllocGraph``.

    Attach with :meth:`attach` *before* simplification starts removing
    nodes; every degree decrement then flows through :meth:`on_degree`,
    whose only job is the low-degree bucket: a node crossing below K
    enters the *pending* bucket (each node crosses at most once —
    degrees only fall during simplification — so each node is
    tie-break sorted exactly once, when its batch is taken).

    The spill heap gets one ``(metric, tie_break, node)`` entry per
    node that is significant (degree >= K) at construction, and no
    entry on a degree event.  While the worklist is attached a node's
    metric can only rise, so a stored key is a lower bound on the
    node's current key; :meth:`pop_spill` re-keys an entry that pops
    out of date and accepts the first one whose stored key is current.
    A node holds at most one entry at any time (a re-key pops before it
    pushes), so the only stale entries are those of removed nodes.
    Low-degree nodes need no entries: :meth:`pop_spill` is only called
    once the pending bucket is empty, and then every active node is
    significant.

    :meth:`take_batch` reproduces the scan loop's batch semantics: the
    returned batch is precisely "all currently-low actives, tie-break
    sorted", because every previously pending node was removed by the
    batch that contained it and nodes becoming low mid-batch are parked
    for the next one.
    """

    __slots__ = ("graph", "tie_break", "_pending", "_heap")

    def __init__(self, graph, tie_break) -> None:
        self.graph = graph
        self.tie_break = tie_break
        self._pending: list[VReg] = []
        heap = []
        for node in graph.active_nodes():
            if graph.significant(node):
                heap.append((self._key(node), tie_break(node), node))
            else:
                self._pending.append(node)
        heapify(heap)
        self._heap = heap

    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Route the graph's degree notifications to this worklist.

        While attached, the graph may only lose nodes
        (``AllocGraph.remove``): the spill heap's lower-bound keys rely
        on degrees only falling and spill costs never changing.  A
        caller that could raise a degree (``add_edge``) or merge nodes
        (which also sums spill costs) must not attach one.
        """
        if self.graph.degree_listener is not None:
            raise AllocationError("AllocGraph already has a degree listener")
        self.graph.degree_listener = self.on_degree

    def detach(self) -> None:
        self.graph.degree_listener = None

    def __enter__(self) -> "DegreeWorklist":
        self.attach()
        return self

    def __exit__(self, *exc) -> bool:
        self.detach()
        return False

    # ------------------------------------------------------------------

    def on_degree(self, node: VReg, degree: int) -> None:
        """Degree-change hook (see ``AllocGraph.degree_listener``)."""
        if degree == self.graph.k - 1:
            # The one possible low-degree crossing: simplification only
            # ever decrements, one edge at a time.
            self._pending.append(node)

    def _key(self, node: VReg) -> float:
        """``node``'s spill metric at the graph's current degrees."""
        degree = max(self.graph.degree(node), 1)
        return self.graph.spill_cost(node) / degree

    # ------------------------------------------------------------------

    def take_batch(self) -> list[VReg]:
        """All pending low-degree nodes, tie-break sorted; clears pending."""
        if not self._pending:
            return []
        batch = sorted(self._pending, key=self.tie_break)
        self._pending.clear()
        return batch

    def pop_spill(self) -> VReg:
        """Minimum ``cost/degree`` active node (ties by ``tie_break``).

        Only valid once :meth:`take_batch` has come back empty: the heap
        holds entries for significant nodes only.  An entry whose stored
        metric is out of date is pushed back under its current metric.
        Since no current key is below its stored key, the first entry
        popped with a current key is the minimum over all active nodes,
        and the tie-break (unique per node: it contains ``id``) settles
        equal metrics exactly as the scan does.
        """
        heap = self._heap
        is_active = self.graph.is_active
        while heap:
            metric, tie, node = heappop(heap)
            if not is_active(node):
                continue  # stale: removed since it was pushed
            current = self._key(node)
            if current != metric:
                heappush(heap, (current, tie, node))
                continue
            if metric == float("inf"):
                raise AllocationError(
                    "all remaining nodes are no-spill temporaries; "
                    "register pressure cannot be met"
                )
            return node
        raise AllocationError("no spill candidate available")


class LazyMaxHeap:
    """Generation-stamped max-heap over ``(node, key)`` entries.

    ``push`` supersedes any previous entry for the node; ``discard``
    drops membership without touching the heap; ``pop`` skips entries
    whose stamp is stale or whose node was discarded.  Keys must be
    totally ordered tuples that are unique per node (the callers embed
    ``node.id``), so heap order never falls through to comparing nodes.
    """

    __slots__ = ("_heap", "_gen", "_members")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._gen: dict[VReg, int] = {}
        self._members: set[VReg] = set()

    def __contains__(self, node: VReg) -> bool:
        return node in self._members

    def __len__(self) -> int:
        return len(self._members)

    def push(self, node: VReg, key: tuple) -> None:
        """Insert or refresh ``node`` with a (max-order) ``key``."""
        gen = self._gen.get(node, 0) + 1
        self._gen[node] = gen
        self._members.add(node)
        heappush(self._heap, (tuple(-k for k in key), gen, node))

    def discard(self, node: VReg) -> None:
        self._members.discard(node)

    def pop(self) -> VReg:
        """Remove and return the max-key member."""
        heap = self._heap
        gen = self._gen
        members = self._members
        while heap:
            _key, stamp, node = heappop(heap)
            if node not in members or gen.get(node) != stamp:
                continue
            members.discard(node)
            return node
        raise AllocationError("pop from empty ready queue")
