#!/usr/bin/env python3
"""A quick tour of the evaluation: every allocator over one benchmark.

Runs the SPECjvm98-like `jess` module through every allocator on
the high-pressure (16-register) model and prints a comparison table —
a one-minute miniature of Figures 9-11.  Use the full benchmark harness
(pytest benchmarks/ --benchmark-only) to regenerate the paper's figures.

Run:  python examples/benchmark_tour.py [benchmark] [n_regs]
"""

import sys

from repro import (
    BENCHMARK_NAMES,
    BriggsAllocator,
    CallCostAllocator,
    ChaitinAllocator,
    OptimisticCoalescingAllocator,
    PreferenceDirectedAllocator,
    allocate_module,
    make_benchmark,
    make_machine,
    prepare_module,
)
from repro.core import PreferenceConfig

ALLOCATORS = [
    ChaitinAllocator(),
    BriggsAllocator(),
    OptimisticCoalescingAllocator(),
    CallCostAllocator(),
    PreferenceDirectedAllocator(PreferenceConfig.only_coalescing()),
    PreferenceDirectedAllocator(),
]


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "jess"
    n_regs = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    if bench not in BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark {bench!r}; "
                         f"choose from {BENCHMARK_NAMES}")

    machine = make_machine(n_regs)
    module = make_benchmark(bench)
    prepared = prepare_module(module, machine)
    print(f"benchmark {bench}: {len(prepared.functions)} functions, "
          f"{prepared.instruction_count()} lowered instructions, "
          f"{n_regs} registers/class\n")

    header = (f"{'allocator':24s} {'moves elim.':>12s} {'spills':>7s} "
              f"{'caller-sv':>10s} {'paired':>7s} {'cycles':>9s}")
    print(header)
    print("-" * len(header))
    baseline = None
    for allocator in ALLOCATORS:
        run = allocate_module(prepared, machine, allocator)
        stats, cycles = run.stats, run.cycles
        if baseline is None:
            baseline = cycles.total
        print(f"{allocator.name:24s} "
              f"{stats.moves_eliminated:5d}/{stats.moves_before:<6d} "
              f"{stats.spill_instructions:7d} "
              f"{cycles.caller_save_cycles:10.0f} "
              f"{cycles.paired_loads_fused:7d} "
              f"{cycles.total:9.0f}  "
              f"({baseline / cycles.total:.2f}x)")


if __name__ == "__main__":
    main()
