"""The benchmark suite: one generated module per SPECjvm98-like test."""

from __future__ import annotations

from repro.ir.function import Module
from repro.workloads.generator import generate_module
from repro.workloads.profiles import BENCHMARK_NAMES, SPEC_PROFILES
from repro.workloads.spillstress import spill_stress_module

__all__ = ["make_benchmark", "make_suite"]


def make_benchmark(name: str, seed: int = 0) -> Module:
    """The deterministic module for one named benchmark.

    Besides the SPECjvm98-like profiles this also serves
    ``"spillstress"`` — the localized-pressure, many-spill-round
    workload.  It is deliberately *not* part of
    ``BENCHMARK_NAMES`` so the figure sweeps stay exactly the paper's
    suite.
    """
    if name == "spillstress":
        return spill_stress_module()
    try:
        profile = SPEC_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from "
            f"{BENCHMARK_NAMES + ['spillstress']}"
        ) from None
    return generate_module(profile, seed)


def make_suite(names: list[str] | None = None,
               seed: int = 0) -> dict[str, Module]:
    """All (or the named subset of) benchmark modules."""
    return {
        name: make_benchmark(name, seed)
        for name in (names or BENCHMARK_NAMES)
    }
