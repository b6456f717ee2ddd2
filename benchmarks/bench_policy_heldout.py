"""Held-out table for the ``tuned_v1`` policy preset.

``tuned_v1`` (``src/repro/policies/tuned_v1.json``) was picked by an
offline search scored on three training families (spillstress, jess and
a call-dense module; seed 0; 12 registers).  This table measures it
away from that training set: simulated cycles of the ``full`` allocator
under the default policy and under ``tuned_v1``, per cell of every
suite module x seeds {0, 1} x K in {12, 16, 24}.

Every allocation runs the verifier (``AllocationOptions.verify``).
Nothing else is asserted: the preset wins some cells and loses others,
and the table states which.  EXPERIMENTS.md quotes it.
"""

from repro.core import PreferenceDirectedAllocator
from repro.pipeline import allocate_module, prepare_module
from repro.policy import DEFAULT_POLICY, load_policy
from repro.regalloc import AllocationOptions
from repro.target.presets import make_machine
from repro.workloads import BENCHMARK_NAMES, make_benchmark

from conftest import emit

SEEDS = (0, 1)
REGS = (12, 16, 24)


def full_cycles(prepared, machine, policy) -> float:
    run = allocate_module(prepared, machine, PreferenceDirectedAllocator(),
                          AllocationOptions(policy=policy))
    return run.cycles.total


def heldout_cells() -> list[tuple[str, int, int, float, float]]:
    """``(module, seed, K, default cycles, tuned_v1 cycles)`` per cell."""
    tuned = load_policy("tuned_v1")
    cells = []
    for bench in BENCHMARK_NAMES:
        for seed in SEEDS:
            module = make_benchmark(bench, seed=seed)
            for regs in REGS:
                machine = make_machine(regs)
                prepared = prepare_module(module, machine)
                cells.append((
                    bench, seed, regs,
                    full_cycles(prepared, machine, DEFAULT_POLICY),
                    full_cycles(prepared, machine, tuned),
                ))
    return cells


def format_heldout(cells) -> str:
    title = ("Held-out: full estimated cycles, default policy vs "
             "tuned_v1 (change < 0: tuned_v1 is faster)")
    lines = [title, "=" * len(title),
             f"{'module':<12}{'seed':>5}{'K':>5}{'default':>10}"
             f"{'tuned_v1':>10}{'change':>9}"]
    wins = losses = 0
    for bench, seed, regs, base, tuned in cells:
        wins += tuned < base
        losses += tuned > base
        lines.append(f"{bench:<12}{seed:>5}{regs:>5}{base:>10.0f}"
                     f"{tuned:>10.0f}{(tuned - base) / base:>+9.2%}")
    lines.append(f"tuned_v1 is faster in {wins}, slower in {losses}, "
                 f"equal in {len(cells) - wins - losses} of "
                 f"{len(cells)} cells")
    return "\n".join(lines)


def test_policy_heldout(benchmark):
    cells = benchmark.pedantic(heldout_cells, rounds=1, iterations=1)
    emit("policy_heldout", format_heldout(cells))
