"""Dataflow analyses feeding the register allocators."""

from repro.analysis.interference import InterferenceGraph, build_interference
from repro.analysis.liveness import (
    Liveness,
    compute_liveness,
    instruction_liveness_masks,
)
from repro.analysis.renumber import RenumberResult, Web, renumber

__all__ = [
    "InterferenceGraph",
    "build_interference",
    "Liveness",
    "compute_liveness",
    "instruction_liveness_masks",
    "RenumberResult",
    "Web",
    "renumber",
]
