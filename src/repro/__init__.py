"""Preference-Directed Graph Coloring — a full reproduction.

Reimplements Koseki, Komatsu & Nakatani, "Preference-Directed Graph
Coloring" (PLDI 2002): a Chaitin-style register allocator that resolves
spilling, coalescing, and irregular-register preferences in one
integrated select phase, driven by a Register Preference Graph (RPG) and
a Coloring Precedence Graph (CPG), together with every substrate the
evaluation needs — an RTL IR with SSA, liveness/interference analyses,
the five baseline allocators the paper compares against, a cycle-cost
simulator, and a SPECjvm98-like synthetic workload suite.

Quickstart::

    from repro import (make_benchmark, prepare_module, allocate_module,
                       middle_pressure, PreferenceDirectedAllocator)

    machine = middle_pressure()
    prepared = prepare_module(make_benchmark("jess"), machine)
    run = allocate_module(prepared, machine, PreferenceDirectedAllocator())
    print(run.stats.moves_eliminated, run.cycles.total)
"""

from repro.core import (
    ColoringPrecedenceGraph,
    CostModel,
    PreferenceConfig,
    PreferenceDirectedAllocator,
    PreferenceSelector,
    RegisterPreferenceGraph,
    Strength,
    build_cpg,
    build_rpg,
    find_paired_loads,
)
from repro.errors import (
    AllocationError,
    AllocationVerifyError,
    AnalysisError,
    IRError,
    IRValidationError,
    ParseError,
    ReproError,
    SimulationError,
    TargetError,
)
from repro.ir import (
    Function,
    IRBuilder,
    Module,
    parse_function,
    parse_module,
    print_function,
    print_module,
    side_by_side,
    validate_function,
    validate_module,
)
from repro.ir.clone import clone_function, clone_module
from repro.ir.diff import FunctionDelta, ValueEdit, diff_functions
from repro.pipeline import (
    ModuleAllocation,
    allocate_module,
    prepare_function,
    prepare_module,
)
from repro.service.session import (
    FunctionSession,
    SessionStore,
    allocate_function_incremental,
)
from repro.regalloc import (
    AllocationOptions,
    AllocationResult,
    AllocationStats,
    Allocator,
    BriggsAllocator,
    CallCostAllocator,
    ChaitinAllocator,
    OptimisticCoalescingAllocator,
    allocate_function,
    verify_allocation,
)
from repro.reporting import format_ratio_table, format_table, geomean
from repro.viz import cfg_to_dot, cpg_to_dot, interference_to_dot, rpg_to_dot
from repro.sim import (
    CycleReport,
    Interpreter,
    Memory,
    default_registry,
    estimate_cycles,
    run_function,
)
from repro.ssa import from_ssa, to_ssa
from repro.target import (
    PRESSURE_MODELS,
    TargetMachine,
    high_pressure,
    low_pressure,
    lower_function,
    make_machine,
    middle_pressure,
)
from repro.workloads import (
    BENCHMARK_NAMES,
    SPEC_PROFILES,
    make_benchmark,
    make_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core contribution
    "PreferenceDirectedAllocator",
    "PreferenceConfig",
    "RegisterPreferenceGraph",
    "ColoringPrecedenceGraph",
    "PreferenceSelector",
    "CostModel",
    "Strength",
    "build_rpg",
    "build_cpg",
    "find_paired_loads",
    # baselines & framework
    "Allocator",
    "AllocationOptions",
    "AllocationResult",
    "AllocationStats",
    "allocate_function",
    "ChaitinAllocator",
    "BriggsAllocator",
    "OptimisticCoalescingAllocator",
    "CallCostAllocator",
    "verify_allocation",
    # IR
    "IRBuilder",
    "Function",
    "Module",
    "parse_function",
    "parse_module",
    "print_function",
    "print_module",
    "side_by_side",
    "validate_function",
    "validate_module",
    "clone_function",
    "clone_module",
    "diff_functions",
    "FunctionDelta",
    "ValueEdit",
    # pipeline
    "prepare_function",
    "prepare_module",
    "allocate_module",
    "ModuleAllocation",
    "allocate_function_incremental",
    "FunctionSession",
    "SessionStore",
    "to_ssa",
    "from_ssa",
    "lower_function",
    # targets
    "TargetMachine",
    "make_machine",
    "high_pressure",
    "middle_pressure",
    "low_pressure",
    "PRESSURE_MODELS",
    # simulation
    "Interpreter",
    "run_function",
    "Memory",
    "default_registry",
    "CycleReport",
    "estimate_cycles",
    # workloads & reporting
    "make_benchmark",
    "make_suite",
    "BENCHMARK_NAMES",
    "SPEC_PROFILES",
    "format_table",
    "format_ratio_table",
    "geomean",
    "cfg_to_dot",
    "interference_to_dot",
    "rpg_to_dot",
    "cpg_to_dot",
    # errors
    "ReproError",
    "IRError",
    "IRValidationError",
    "ParseError",
    "AnalysisError",
    "AllocationError",
    "AllocationVerifyError",
    "SimulationError",
    "TargetError",
]
