"""Shared machinery for the figure-reproduction benchmarks.

Each ``bench_fig*.py`` file regenerates one figure of the paper's
evaluation: it sweeps the SPECjvm98-like suite through the relevant
allocators and register-usage models, prints the same rows/series the
paper reports, and asserts the figure's qualitative *shape* with
generous tolerances (the substrate is a simulator, not the authors'
Itanium; see EXPERIMENTS.md).

Sweep results are cached per session so the benchmarks stay fast:
``sweep(bench, model, allocator_key)`` runs the pipeline once per unique
combination.  ``benchmark(...)`` fixtures time one representative
allocation per figure so ``--benchmark-only`` reports meaningful
allocation-throughput numbers too.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core import PreferenceConfig, PreferenceDirectedAllocator
from repro.pipeline import ModuleAllocation, allocate_module, prepare_module
from repro.regalloc import (
    BriggsAllocator,
    CallCostAllocator,
    ChaitinAllocator,
    OptimisticCoalescingAllocator,
)
from repro.target.presets import high_pressure, low_pressure, middle_pressure
from repro.workloads import BENCHMARK_NAMES, make_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

MODELS = {
    "16": high_pressure,
    "24": middle_pressure,
    "32": low_pressure,
}

ALLOCATORS = {
    "chaitin": ChaitinAllocator,
    "briggs": BriggsAllocator,
    "optimistic": OptimisticCoalescingAllocator,
    "callcost": CallCostAllocator,
    "only-coalescing": lambda: PreferenceDirectedAllocator(
        PreferenceConfig.only_coalescing()
    ),
    "full": PreferenceDirectedAllocator,
    "full-nocpg": lambda: PreferenceDirectedAllocator(
        name="full-nocpg", use_cpg=False
    ),
    "only-coalescing-nocpg": lambda: PreferenceDirectedAllocator(
        PreferenceConfig.only_coalescing(), name="only-coalescing-nocpg",
        use_cpg=False,
    ),
    "no-volatility": lambda: PreferenceDirectedAllocator(
        PreferenceConfig(volatility=False), name="no-volatility"
    ),
    "no-paired": lambda: PreferenceDirectedAllocator(
        PreferenceConfig(paired_loads=False), name="no-paired"
    ),
    "no-byte": lambda: PreferenceDirectedAllocator(
        PreferenceConfig(byte_loads=False), name="no-byte"
    ),
    "no-coalesce": lambda: PreferenceDirectedAllocator(
        PreferenceConfig(coalesce=False, dedicated=False),
        name="no-coalesce",
    ),
}

_prepared_cache: dict[tuple[str, str], object] = {}
_sweep_cache: dict[tuple[str, str, str], ModuleAllocation] = {}


def prepared_module(bench: str, model: str):
    key = (bench, model)
    if key not in _prepared_cache:
        machine = MODELS[model]()
        _prepared_cache[key] = (prepare_module(make_benchmark(bench),
                                               machine), machine)
    return _prepared_cache[key]


def sweep(bench: str, model: str, allocator: str) -> ModuleAllocation:
    """Cached allocation of one benchmark under one model/allocator."""
    key = (bench, model, allocator)
    if key not in _sweep_cache:
        prepared, machine = prepared_module(bench, model)
        _sweep_cache[key] = allocate_module(
            prepared, machine, ALLOCATORS[allocator]()
        )
    return _sweep_cache[key]


def fp_rows() -> list[str]:
    """The float-result rows the paper adds for mpegaudio and mtrt."""
    return ["mpegaudio fp", "mtrt fp"]


def emit(name: str, text: str) -> None:
    """Print a figure table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def run_one_allocation():
    """Callable for pytest-benchmark: one fresh allocation, timed."""

    def runner(bench: str, model: str, allocator: str):
        prepared, machine = prepared_module(bench, model)

        def work():
            return allocate_module(prepared, machine,
                                   ALLOCATORS[allocator]())

        return work

    return runner


def all_int_rows() -> list[str]:
    return list(BENCHMARK_NAMES)
