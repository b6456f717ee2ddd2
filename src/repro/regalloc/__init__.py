"""Register-allocation machinery and the baseline allocators.

The shared pieces (coloring graph, simplify, coalesce, select, spill,
driver) implement the Chaitin-family infrastructure; the allocator
classes are the paper's comparators:

* :class:`ChaitinAllocator` — the base algorithm of Figure 9's ratios,
* :class:`BriggsAllocator` — optimistic coloring + aggressive coalescing,
* :class:`OptimisticCoalescingAllocator` — Park & Moon,
* :class:`CallCostAllocator` — the "aggressive+volatility" configuration
  of Lueh & Gross used in Figure 11.

The paper's own algorithm lives in :mod:`repro.core`.
"""

from repro.regalloc.base import (
    AllocationOptions,
    AllocationResult,
    AllocationStats,
    Allocator,
    RoundContext,
    RoundOutcome,
    allocate_function,
)
from repro.regalloc.briggs import BriggsAllocator
from repro.regalloc.callcost import CallCostAllocator
from repro.regalloc.chaitin import ChaitinAllocator
from repro.regalloc.coalesce import coalesce_aggressive
from repro.regalloc.costs import compute_spill_costs
from repro.regalloc.igraph import AllocGraph, build_alloc_graph
from repro.regalloc.optimistic import OptimisticCoalescingAllocator
from repro.regalloc.select import SelectResult, select
from repro.regalloc.simplify import SimplifyResult, simplify
from repro.regalloc.spill import SpillReport, insert_spill_code
from repro.regalloc.verify import (
    verify_allocation,
    verify_assignment_against_interference,
)

__all__ = [
    "Allocator",
    "AllocationOptions",
    "AllocationResult",
    "AllocationStats",
    "RoundContext",
    "RoundOutcome",
    "allocate_function",
    "ChaitinAllocator",
    "BriggsAllocator",
    "OptimisticCoalescingAllocator",
    "CallCostAllocator",
    "AllocGraph",
    "build_alloc_graph",
    "SimplifyResult",
    "simplify",
    "SelectResult",
    "select",
    "SpillReport",
    "insert_spill_code",
    "compute_spill_costs",
    "coalesce_aggressive",
    "verify_allocation",
    "verify_assignment_against_interference",
]
