"""Priority indexes for the simplify -> CPG -> select decision loops.

PRs 1-4 made the analyses and the execution layer fast, which left the
allocator's own decision loops as the hot spot: ``simplify()`` rescanned
every active node per batch, ``choose_spill_candidate()`` rescanned all
actives on every pressure event, and the preference selector linearly
scanned its whole ready queue per pick.  This module holds the
incrementally maintained indexes that replace those scans:

* :class:`DegreeWorklist` — a bucketed low-degree worklist plus a lazy
  min-heap over the Chaitin ``spill_cost / degree`` metric, both fed by
  the :attr:`~repro.regalloc.igraph.AllocGraph.degree_listener` hook so
  candidates surface in O(1)/O(log n) instead of O(n) rescans;
* :class:`LazyMaxHeap` — a generation-stamped max-heap used by
  :class:`~repro.core.select.PreferenceSelector` for its ready queue.

Both are *lazy* structures: stale entries are left in the heap and
skipped at pop time.  Laziness cannot change any pick because every
entry carries the full deterministic tie-break key and a per-node
generation stamp — only the newest stamp for a node is ever accepted,
and the newest stamp's key equals the key a rescan would compute at
pick time (see DESIGN.md §5f for the invariant argument).  These are
the only engines; the scan implementations they replaced are the
pick-by-pick oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.errors import AllocationError
from repro.ir.values import VReg

__all__ = [
    "DegreeWorklist",
    "LazyMaxHeap",
]


class DegreeWorklist:
    """Degree-indexed candidate structure over one ``AllocGraph``.

    Attach with :meth:`attach` *before* simplification starts removing
    nodes; every degree decrement then flows through :meth:`on_degree`:

    * a node crossing below K enters the *pending* low-degree bucket
      (each node crosses at most once — degrees only fall during
      simplification — so each node is tie-break sorted exactly once,
      when its batch is taken);
    * every change pushes a refreshed ``(cost/degree, tie_break)`` heap
      entry under a new generation stamp, keeping the newest entry's
      metric exactly current.

    :meth:`take_batch` reproduces the scan loop's batch semantics: the
    returned batch is precisely "all currently-low actives, tie-break
    sorted", because every previously pending node was removed by the
    batch that contained it and nodes becoming low mid-batch are parked
    for the next one.
    """

    __slots__ = ("graph", "tie_break", "metric", "_pending", "_heap",
                 "_gen")

    def __init__(self, graph, tie_break, metric=None) -> None:
        self.graph = graph
        self.tie_break = tie_break
        #: optional ``metric(graph, node) -> float`` override for the
        #: spill score; ``None`` keeps the inlined historical
        #: ``cost / degree`` (byte-identical heap entries).  A non-None
        #: metric comes from a non-default :class:`repro.policy.Policy`
        #: via :func:`repro.regalloc.simplify.spill_metric_fn`.
        self.metric = metric
        self._pending: list[VReg] = []
        self._heap: list[tuple] = []
        self._gen: dict[VReg, int] = {}
        for node in graph.active:
            if not graph.significant(node):
                self._pending.append(node)
            self._push(node)

    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Route the graph's degree notifications to this worklist."""
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
        self._push(node)

    def _push(self, node: VReg) -> None:
        gen = self._gen.get(node, 0) + 1
        self._gen[node] = gen
        if self.metric is None:
            degree = max(self.graph.degree(node), 1)
            metric = self.graph.spill_cost(node) / degree
        else:
            metric = self.metric(self.graph, node)
        heappush(self._heap, (metric, self.tie_break(node), gen, node))

    # ------------------------------------------------------------------

    def take_batch(self) -> list[VReg]:
        """All pending low-degree nodes, tie-break sorted; clears pending."""
        if not self._pending:
            return []
        batch = sorted(self._pending, key=self.tie_break)
        self._pending.clear()
        return batch

    def pop_spill(self) -> VReg:
        """Minimum ``cost/degree`` active node (ties by ``tie_break``)."""
        heap = self._heap
        active = self.graph.active
        gen = self._gen
        while heap:
            metric, _tie, stamp, node = heappop(heap)
            if node not in active or gen.get(node) != stamp:
                continue  # stale: removed, or superseded by a refresh
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
