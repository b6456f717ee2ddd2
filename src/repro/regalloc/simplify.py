"""Graph simplification: Chaitin-style and Briggs optimistic.

Simplification repeatedly removes a low-degree node (degree < K) and
pushes it on the stack.  When only significant-degree nodes remain:

* **Chaitin** removes the cheapest candidate *marking it spilled*; if the
  phase ends with spill marks, the round aborts to spill-code insertion
  (Figure 1(a): the ``select`` phase is only reached with a colorable
  stack).
* **Briggs optimistic** pushes the candidate anyway ("potential spill");
  the select phase may still find it a color (Figure 1(b)).

The spill candidate is chosen by minimum ``spill_cost / degree``, the
standard Chaitin metric, with the cost supplied by the caller (the paper
uses its Section 5.1 metric "for all algorithms").

The engine drives a :class:`~repro.regalloc.worklist.DegreeWorklist`
off the graph's degree-change hook, so each low-degree candidate is
discovered in O(1) and each spill pick costs O(log n) per heap entry
it re-keys or skips.  The original rescan-per-batch engine is the
oracle in ``tests/oracles.py``; the tests assert the two produce the
identical stack (same batches, same tie-break keys, same spill picks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError
from repro.ir.values import VReg
from repro.profiling import phase
from repro.regalloc.igraph import AllocGraph
from repro.regalloc.worklist import DegreeWorklist

__all__ = ["SimplifyResult", "simplify", "choose_spill_candidate"]


@dataclass(eq=False)
class SimplifyResult:
    """Outcome of the simplify phase.

    ``stack`` holds nodes in *push order*: ``stack[0]`` was removed first
    and will be colored last.  ``optimistic`` flags the potential-spill
    pushes (Briggs); ``spilled`` holds Chaitin-mode definite spill marks.
    """

    stack: list[VReg] = field(default_factory=list)
    optimistic: set[VReg] = field(default_factory=set)
    spilled: set[VReg] = field(default_factory=set)

    @property
    def select_order(self) -> list[VReg]:
        """Nodes in coloring (pop) order."""
        return list(reversed(self.stack))


def choose_spill_candidate(graph: AllocGraph, nodes) -> VReg:
    """Minimum-metric node among ``nodes`` (a linear scan).

    The metric is Chaitin's ``spill_cost / degree``; ties break by
    ``(id, name)``.
    """
    best: VReg | None = None
    best_metric = float("inf")
    for node in nodes:
        metric = graph.spill_cost(node) / max(graph.degree(node), 1)
        if best is None or metric < best_metric or (
            metric == best_metric
            and _tie_break(node) < _tie_break(best)
        ):
            best = node
            best_metric = metric
    if best is None:
        raise AllocationError("no spill candidate available")
    if best_metric == float("inf"):
        raise AllocationError(
            "all remaining nodes are no-spill temporaries; "
            "register pressure cannot be met"
        )
    return best


def _tie_break(node: VReg) -> tuple:
    """The deterministic order of equal-metric nodes and of a batch."""
    return (node.id, node.name or "")


def simplify(graph: AllocGraph, optimistic: bool = True) -> SimplifyResult:
    """Run simplification over the active nodes of ``graph``.

    ``graph`` is mutated: all active nodes are removed.  Copy-related
    nodes are treated like any other (the aggressive-coalescing pipelines
    have coalesced before this phase).
    """
    result = SimplifyResult()
    with phase("simplify"):
        _simplify_indexed(graph, optimistic, result)
    return result


def _simplify_indexed(graph: AllocGraph, optimistic: bool,
                      result: SimplifyResult) -> None:
    """Worklist engine: low-degree buckets + lazy spill heap.

    A batch is "every active low-degree node, tie-break sorted", and
    nodes crossing below K *during* a batch are parked in the
    worklist's pending bucket for the next batch — which is precisely
    what a rescan at the top of the loop would observe, because a batch
    always removes all of its own members (degrees only fall, so no
    member can turn significant mid-batch).
    """
    # While the worklist is attached, this loop only calls
    # ``graph.remove``: degrees only fall and spill costs stay fixed,
    # which the spill heap's lazy re-keying relies on.
    with DegreeWorklist(graph, _tie_break) as worklist:
        while graph.active:
            batch = worklist.take_batch()
            if batch:
                for node in batch:
                    graph.remove(node)
                    result.stack.append(node)
                continue
            with phase("spill_pick"):
                candidate = worklist.pop_spill()
            graph.remove(candidate)
            if optimistic:
                result.stack.append(candidate)
                result.optimistic.add(candidate)
            else:
                result.spilled.add(candidate)
