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
discovered in O(1) and each spill pick costs O(log n).  The original
rescan-per-batch engine is the oracle in ``tests/oracles.py``; the
tests assert the two produce the identical stack (same batches, same
tie-break keys, same spill picks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError
from repro.ir.values import VReg
from repro.policy import DEFAULT_POLICY, Policy
from repro.profiling import phase
from repro.regalloc.igraph import AllocGraph
from repro.regalloc.worklist import DegreeWorklist

__all__ = ["SimplifyResult", "simplify", "choose_spill_candidate",
           "spill_metric_fn", "tie_break_fn"]


def spill_metric_fn(policy: Policy):
    """The spill-candidate scoring function under ``policy``.

    The default exponents (1.0, 1.0) return ``None`` so callers use the
    inlined historical ``cost / degree`` expression, keeping the
    arithmetic byte-identical.  Non-default policies get
    ``cost ** ce / max(degree, 1) ** de``.
    """
    ce = policy.spill_cost_exponent
    de = policy.spill_degree_exponent
    if ce == 1.0 and de == 1.0:
        return None

    def metric(graph: AllocGraph, node: VReg) -> float:
        cost = graph.spill_cost(node)
        if cost == float("inf"):
            return cost  # no-spill temporaries stay un-pickable
        return float(cost) ** ce / float(max(graph.degree(node), 1)) ** de

    return metric


def tie_break_fn(policy: Policy):
    """The deterministic tie-break key under ``policy``.

    The default order ``("id", "name")`` returns the module-level
    :func:`_tie_break` (the historical key) so indexed-engine heap
    entries compare identically to before.
    """
    if policy.spill_tie_break == ("id", "name"):
        return _tie_break
    order = policy.spill_tie_break

    def key(node: VReg) -> tuple:
        return tuple(
            node.id if field == "id" else (node.name or "")
            for field in order
        )

    return key


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


def choose_spill_candidate(graph: AllocGraph, nodes,
                           policy: Policy = DEFAULT_POLICY) -> VReg:
    """Minimum-metric node among ``nodes`` (a linear scan).

    The metric is Chaitin's ``spill_cost / degree`` under the default
    policy, generalized to policy exponents otherwise; ties break by
    the policy's field order (historically ``(id, name)``).
    """
    metric_of = spill_metric_fn(policy)
    tie_break = tie_break_fn(policy)
    best: VReg | None = None
    best_metric = float("inf")
    for node in nodes:
        if metric_of is None:
            metric = graph.spill_cost(node) / max(graph.degree(node), 1)
        else:
            metric = metric_of(graph, node)
        if best is None or metric < best_metric or (
            metric == best_metric
            and tie_break(node) < tie_break(best)
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
    return (node.id, node.name or "")


def simplify(graph: AllocGraph, optimistic: bool = True,
             policy: Policy = DEFAULT_POLICY) -> SimplifyResult:
    """Run simplification over the active nodes of ``graph``.

    ``graph`` is mutated: all active nodes are removed.  Copy-related
    nodes are treated like any other (the aggressive-coalescing pipelines
    have coalesced before this phase; George–Appel iterated coalescing
    interleaves its own simplify loop and does not call this one).

    ``policy`` parameterizes the spill metric and tie-break; the
    default reproduces the historical pick sequence exactly.
    """
    result = SimplifyResult()
    with phase("simplify"):
        _simplify_indexed(graph, optimistic, result, policy)
    return result


def _simplify_indexed(graph: AllocGraph, optimistic: bool,
                      result: SimplifyResult,
                      policy: Policy = DEFAULT_POLICY) -> None:
    """Worklist engine: low-degree buckets + lazy spill heap.

    A batch is "every active low-degree node, tie-break sorted", and
    nodes crossing below K *during* a batch are parked in the
    worklist's pending bucket for the next batch — which is precisely
    what a rescan at the top of the loop would observe, because a batch
    always removes all of its own members (degrees only fall, so no
    member can turn significant mid-batch).
    """
    with DegreeWorklist(graph, tie_break_fn(policy),
                        metric=spill_metric_fn(policy)) as worklist:
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
