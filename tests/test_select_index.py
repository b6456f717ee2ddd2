"""The priority-indexed simplify/select engine.

Covers the index structures directly — the degree-change hook, the
bucketed low-degree worklist, the lazy spill heap, the selector's lazy
max-heap ready queue — plus the exact push order pinned on known
graphs, agreement with the scan oracles in ``tests/oracles.py``, the
inertness of the retired ``REPRO_SELECT_INDEX`` switch, and divergence
detection by the validate harness.  The cross-engine decision-sequence
identity over random programs lives in tests/test_properties.py.
"""

from contextlib import nullcontext

import pytest

from oracles import (
    OracleMismatch,
    scan_select,
    simplify_scan,
    validate_select,
)

from repro.core import PreferenceDirectedAllocator
from repro.errors import AllocationError
from repro.ir.clone import clone_function
from repro.ir.values import RegClass, VReg
from repro.pipeline import prepare_function
from repro.regalloc import allocate_function
from repro.regalloc.igraph import AllocGraph
from repro.policy import DEFAULT_POLICY
from repro.regalloc.simplify import SimplifyResult, _tie_break, simplify
from repro.regalloc.worklist import DegreeWorklist, LazyMaxHeap
from repro.target.presets import make_machine
from repro.workloads.generator import generate_function
from repro.workloads.profiles import BenchmarkProfile


def make_graph(k: int, edges, costs=None) -> tuple[AllocGraph, dict]:
    """A hand-built single-class coloring graph with exact adjacency."""
    graph = AllocGraph(rclass=RegClass.INT, k=k, colors=())
    nodes: dict[int, VReg] = {}

    def node(i: int) -> VReg:
        if i not in nodes:
            v = nodes[i] = VReg(i)
            graph.adj[v] = set()
            graph.active.add(v)
            graph.members[v] = {v}
            graph._degree[v] = 0
        return nodes[i]

    for a, b in edges:
        graph.add_edge(node(a), node(b))
    for i, cost in (costs or {}).items():
        graph.spill_costs[node(i)] = cost
    return graph, nodes


PINNED_EDGES = [(5, 1), (6, 2),
                (1, 2), (1, 3), (1, 4),
                (2, 3), (2, 4), (3, 4)]


def run_engine(mode, graph, optimistic=True):
    """``on`` the production engine, ``off`` the scan oracle,
    ``validate`` production checked pick by pick against the oracle."""
    if mode == "off":
        result = SimplifyResult()
        simplify_scan(graph, optimistic, result, DEFAULT_POLICY)
        return result
    with validate_select() if mode == "validate" else nullcontext():
        return simplify(graph, optimistic=optimistic)


class TestModeParsing:
    """Every spelling of the retired ``REPRO_SELECT_INDEX`` switch is
    inert: the production engine runs and yields the pinned stack."""

    def _stack(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SELECT_INDEX", raw)
        graph, n = make_graph(3, PINNED_EDGES,
                              costs={1: 6.0, 2: 6.0, 3: 6.0, 4: 3.0})
        return simplify(graph, optimistic=True).stack, n

    @pytest.mark.parametrize("raw", ["0", "off", "false", "no", " OFF "])
    def test_off_spellings(self, raw, monkeypatch):
        stack, n = self._stack(monkeypatch, raw)
        assert stack == [n[5], n[6], n[4], n[1], n[2], n[3]]

    @pytest.mark.parametrize("raw", ["1", "on", "yes", "", "anything"])
    def test_default_on(self, raw, monkeypatch):
        stack, n = self._stack(monkeypatch, raw)
        assert stack == [n[5], n[6], n[4], n[1], n[2], n[3]]

    def test_validate(self, monkeypatch):
        stack, n = self._stack(monkeypatch, "validate")
        assert stack == [n[5], n[6], n[4], n[1], n[2], n[3]]


class TestDegreeHook:
    def test_remove_notifies_each_active_neighbor(self):
        graph, n = make_graph(3, [(1, 2), (1, 3), (2, 3), (3, 4)])
        events = []
        graph.degree_listener = lambda node, deg: events.append((node, deg))
        graph.remove(n[3])
        assert sorted(events, key=lambda e: e[0].id) == [
            (n[1], 1), (n[2], 1), (n[4], 0),
        ]
        for node, deg in events:
            assert deg == graph.degree(node)

    def test_add_edge_notifies_both_endpoints(self):
        graph, n = make_graph(3, [(1, 2)])
        events = []
        graph.degree_listener = lambda node, deg: events.append((node, deg))
        graph.add_edge(n[1], VReg(9))  # inactive endpoint: no events
        assert events == []
        # A genuinely new active-active edge notifies both ends.
        graph2, m = make_graph(3, [(1, 2), (2, 3)])
        got = []
        graph2.degree_listener = lambda node, deg: got.append((node, deg))
        graph2.add_edge(m[1], m[3])
        assert sorted(got, key=lambda e: e[0].id) == [(m[1], 2), (m[3], 2)]

    def test_merge_notifies_degree_losses(self):
        # 1-2 move-partners, 3 interferes with both: merging 2 into 1
        # costs 3 one active neighbor.
        graph, n = make_graph(4, [(1, 3), (2, 3)])
        events = []
        graph.degree_listener = lambda node, deg: events.append((node, deg))
        graph.merge(n[1], n[2])
        assert (n[3], 1) in events
        assert graph.degree(n[3]) == 1

    def test_single_listener_enforced(self):
        graph, _ = make_graph(3, [(1, 2)])
        with DegreeWorklist(graph, _tie_break):
            with pytest.raises(AllocationError):
                DegreeWorklist(graph, _tie_break).attach()
        assert graph.degree_listener is None  # detached on exit


class TestDegreeWorklist:
    def test_initial_batch_is_sorted_low_nodes(self):
        graph, n = make_graph(3, [(1, 2), (3, 4)])  # all degree 1 < 3
        worklist = DegreeWorklist(graph, _tie_break)
        assert worklist.take_batch() == [n[1], n[2], n[3], n[4]]
        assert worklist.take_batch() == []  # pending cleared

    def test_crossing_enters_pending_exactly_once(self):
        # K=2; node 1 has degree 3 and sheds neighbors one at a time.
        graph, n = make_graph(2, [(1, 2), (1, 3), (1, 4),
                                  (2, 3), (2, 4), (3, 4)])
        with DegreeWorklist(graph, _tie_break) as worklist:
            assert worklist.take_batch() == []  # everyone degree 3
            graph.remove(n[4])  # all drop to 2: still significant
            assert worklist.take_batch() == []
            graph.remove(n[3])  # 1 and 2 cross to degree 1 == k-1
            assert worklist.take_batch() == [n[1], n[2]]
            graph.remove(n[2])  # 1 drops to 0: no second crossing
            assert worklist.take_batch() == []

    def test_spill_heap_orders_by_metric_then_tie(self):
        # K=1 keeps everyone significant.  metric = cost / degree.
        graph, n = make_graph(1, [(1, 2), (1, 3), (2, 3)],
                              costs={1: 8.0, 2: 2.0, 3: 8.0})
        with DegreeWorklist(graph, _tie_break) as worklist:
            assert worklist.pop_spill() is n[2]  # metric 1.0 vs 4.0

    def test_uniform_metric_ties_break_on_id(self):
        graph, n = make_graph(1, [(1, 2), (1, 3), (2, 3)],
                              costs={1: 4.0, 2: 4.0, 3: 4.0})
        with DegreeWorklist(graph, _tie_break) as worklist:
            assert worklist.pop_spill() is n[1]

    def test_degree_event_refreshes_metric(self):
        # Initially node 3 wins (cost 4.5 over degree 3 = 1.5 beats node
        # 2's 4.0/2 = 2.0); removing node 4 drops degree(3) to 2, so the
        # refreshed metric 2.25 loses to node 2 — the stale 1.5 entry
        # must be skipped, not served.
        graph, n = make_graph(1, [(2, 6), (2, 7), (3, 4), (3, 6), (3, 7)],
                              costs={2: 4.0, 3: 4.5,
                                     4: 100.0, 6: 100.0, 7: 100.0})
        with DegreeWorklist(graph, _tie_break) as worklist:
            graph.remove(n[4])
            assert worklist.pop_spill() is n[2]
            graph.remove(n[2])
            assert worklist.pop_spill() is n[3]

    def test_pop_spill_skips_stale_entries(self):
        graph, n = make_graph(1, [(1, 2)], costs={1: 1.0, 2: 2.0})
        with DegreeWorklist(graph, _tie_break) as worklist:
            graph.remove(n[1])  # best entry is now stale
            assert worklist.pop_spill() is n[2]

    def test_all_no_spill_reports_pressure_error(self):
        graph, n = make_graph(1, [(1, 2)],
                              costs={1: float("inf"), 2: float("inf")})
        worklist = DegreeWorklist(graph, _tie_break)
        with pytest.raises(AllocationError, match="pressure cannot be met"):
            worklist.pop_spill()

    def test_empty_graph_raises(self):
        graph, n = make_graph(3, [(1, 2)])
        worklist = DegreeWorklist(graph, _tie_break)
        graph.remove(n[1])
        graph.remove(n[2])
        with pytest.raises(AllocationError, match="no spill candidate"):
            worklist.pop_spill()


class TestLazyMaxHeap:
    def test_pops_max_key(self):
        heap = LazyMaxHeap()
        a, b, c = VReg(1), VReg(2), VReg(3)
        heap.push(a, (1.0, 0.0, -a.id))
        heap.push(b, (3.0, 0.0, -b.id))
        heap.push(c, (2.0, 0.0, -c.id))
        assert [heap.pop(), heap.pop(), heap.pop()] == [b, c, a]

    def test_refresh_supersedes(self):
        heap = LazyMaxHeap()
        a, b = VReg(1), VReg(2)
        heap.push(a, (5.0, 0.0, -a.id))
        heap.push(b, (1.0, 0.0, -b.id))
        heap.push(a, (0.0, 0.0, -a.id))  # refreshed: a now ranks last
        assert [heap.pop(), heap.pop()] == [b, a]

    def test_discard_and_membership(self):
        heap = LazyMaxHeap()
        a, b = VReg(1), VReg(2)
        heap.push(a, (2.0, 0.0, -a.id))
        heap.push(b, (1.0, 0.0, -b.id))
        assert a in heap and len(heap) == 2
        heap.discard(a)
        assert a not in heap and len(heap) == 1
        assert heap.pop() is b
        with pytest.raises(AllocationError):
            heap.pop()

    def test_ties_break_on_id_component(self):
        heap = LazyMaxHeap()
        a, b = VReg(1), VReg(2)
        heap.push(b, (1.0, 1.0, -b.id))
        heap.push(a, (1.0, 1.0, -a.id))
        assert heap.pop() is a  # max(-id) => lowest id first


class TestPushOrderPinned:
    """The exact stack order on known graphs: the production engine,
    the scan oracle, and production under the validate harness."""

    @pytest.mark.parametrize("mode", ["on", "off", "validate"])
    def test_low_batch_then_spill_then_crossers(self, mode):
        # K=3.  5/6 start low; the spill pick is the cheap-per-degree 4;
        # its removal drops 1/2/3 below K as one sorted batch.
        graph, n = make_graph(3, PINNED_EDGES,
                              costs={1: 6.0, 2: 6.0, 3: 6.0, 4: 3.0})
        result = run_engine(mode, graph)
        assert result.stack == [n[5], n[6], n[4], n[1], n[2], n[3]]
        assert result.optimistic == {n[4]}
        assert not result.spilled

    @pytest.mark.parametrize("mode", ["on", "off", "validate"])
    def test_mid_batch_crosser_waits_for_next_batch(self, mode):
        # K=2.  The first batch is {3, 5}; removing 3 makes the
        # *smaller-id* node 2 low mid-batch, but batch semantics park it
        # for the next batch, so 5 still precedes 2 on the stack.
        edges = [(2, 1), (2, 3), (1, 4), (4, 5)]
        graph, n = make_graph(2, edges)
        result = run_engine(mode, graph)
        assert result.stack == [n[3], n[5], n[2], n[4], n[1]]
        assert not result.optimistic

    def test_engines_agree_under_env(self, monkeypatch):
        # The engines agree, and the retired environment switch selects
        # nothing: every setting runs the same production engine.
        stacks = {}
        for mode in ("0", "1", "validate"):
            monkeypatch.setenv("REPRO_SELECT_INDEX", mode)
            graph, _ = make_graph(3, PINNED_EDGES, costs={4: 3.0})
            stacks[mode] = simplify(graph, optimistic=True).stack
        graph, _ = make_graph(3, PINNED_EDGES, costs={4: 3.0})
        assert run_engine("off", graph).stack == stacks["0"] \
            == stacks["1"] == stacks["validate"]


class TestValidateModeDivergence:
    def test_validate_catches_bad_batch(self, monkeypatch):
        graph, _ = make_graph(3, [(1, 2), (3, 4)])

        real_take = DegreeWorklist.take_batch

        def corrupted(self):
            return real_take(self)[1:]  # drop the first candidate

        monkeypatch.setattr(DegreeWorklist, "take_batch", corrupted)
        with pytest.raises(OracleMismatch, match="validation failed"):
            run_engine("validate", graph)

    def test_validate_catches_bad_spill_pick(self, monkeypatch):
        graph, _ = make_graph(1, [(1, 2), (1, 3), (2, 3)],
                              costs={1: 3.0, 2: 6.0, 3: 9.0})

        real_pop = DegreeWorklist.pop_spill

        def corrupted(self):
            real_pop(self)  # discard the true pick
            return real_pop(self)

        monkeypatch.setattr(DegreeWorklist, "pop_spill", corrupted)
        with pytest.raises(OracleMismatch, match="validation failed"):
            run_engine("validate", graph)


class TestSelectorReadyQueue:
    """End-to-end: the selector's heap agrees with the scan oracle."""

    PROFILE = BenchmarkProfile(
        name="selq", stmts=40, int_pool=12, call_prob=0.1,
        branch_prob=0.15, loop_prob=0.15, copy_prob=0.15,
        load_prob=0.2, store_prob=0.05,
        # K=4 machines only have two parameter registers
        max_params=2, max_call_args=2,
    )

    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("k", [4, 8])
    def test_trace_identical_across_engines(self, seed, k):
        func = generate_function("selq", self.PROFILE, seed)
        machine = make_machine(k)
        traces = {}
        for mode, engines in (("scan", scan_select),
                              ("validate", validate_select)):
            with engines():
                allocator = PreferenceDirectedAllocator(keep_trace=True)
                work = prepare_function(clone_function(func), machine)
                result = allocate_function(work, machine, allocator)
            traces[mode] = (allocator.last_trace.steps,
                            sorted((v.id, str(p)) for v, p in
                                   result.assignment.items()),
                            result.stats.spilled_webs)
        # The validate harness already asserted pick-for-pick identity
        # inside the selector; this pins the externally visible
        # sequence against the scan oracle too.
        assert traces["scan"] == traces["validate"]

    def test_validate_catches_corrupted_ready_heap(self, monkeypatch):
        func = generate_function("selq", self.PROFILE, 3)
        machine = make_machine(4)

        real_pop = LazyMaxHeap.pop

        def corrupted(self):
            first = real_pop(self)
            if len(self) == 0:
                return first
            second = real_pop(self)
            self.push(first, (float("inf"), 0.0, 0))
            return second

        monkeypatch.setattr(LazyMaxHeap, "pop", corrupted)
        work = prepare_function(clone_function(func), machine)
        with validate_select():
            with pytest.raises(OracleMismatch, match="validation failed"):
                allocate_function(work, machine,
                                  PreferenceDirectedAllocator())
