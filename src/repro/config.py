"""Runtime facts about how this process computes allocations.

Every hot step has exactly one production path: int-bitmask dataflow
kernels (:mod:`repro.analysis.matrix` and :mod:`repro.core.cpg`), the
indexed simplify/select engines, self-contained codec wire jobs for pool
dispatch, and a from-scratch re-analysis for every spill round and
structural edit.  Each is checked against an independent oracle in
``tests/oracles.py``: the set-based liveness and interference
references, the scalar CPG replay, the scan simplify/select engines,
the full re-analysis (CFG included) and the from-scratch allocation of
an edited function, and the shipped function for the wire.

No implementation strategy is configurable.  The only environment
variable the library consults is ``REPRO_CACHE_DIR``, a deployment
path folded in by
:meth:`repro.regalloc.base.AllocationOptions.from_env`.  Result-relevant
configuration lives in ``AllocationOptions`` and
:class:`repro.policy.Policy`.

:func:`runtime_knobs` is kept for the benchmark records that stamp it,
and :func:`knob_env_snapshot` for callers that refuse to run with
strategy variables set; both are always empty.  The package needs
nothing beyond the standard library.
"""

from __future__ import annotations

__all__ = ["knob_env_snapshot", "runtime_knobs"]


def knob_env_snapshot(environ=None) -> dict[str, str]:
    """Strategy variables in effect: none, since no strategy is
    selectable from the environment."""
    return {}


def runtime_knobs() -> dict:
    """JSON-safe backend facts of this process: none, since every
    kernel is pure Python with no optional backend."""
    return {}
