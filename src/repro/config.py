"""Runtime facts about how this process computes allocations.

Every hot step has exactly one production path: numpy bit-matrix
dataflow (with its own size-class dispatch inside
:mod:`repro.analysis.matrix` and :mod:`repro.core.cpg`), the indexed
simplify/select engines, the codec dispatch wire, and delta patching
for spill rounds and edits (with a from-scratch rebuild only as the
patchers' bail-out).  Each is checked against an independent oracle in
``tests/oracles.py``: the set-based liveness and interference
references, the scalar CPG replay, the scan simplify/select engines,
from-scratch re-analysis, and the shipped function for the wire.

No implementation strategy is configurable.  The only environment
variable the library consults is ``REPRO_CACHE_DIR``, a deployment
path folded in by
:meth:`repro.regalloc.base.AllocationOptions.from_env`.  Result-relevant
configuration lives in ``AllocationOptions`` and
:class:`repro.policy.Policy`.

:func:`runtime_knobs` reports backend facts for benchmark records;
:func:`knob_env_snapshot` is kept for callers that refuse to run with
strategy variables set, and is always empty.
"""

from __future__ import annotations

__all__ = ["knob_env_snapshot", "runtime_knobs"]


def knob_env_snapshot(environ=None) -> dict[str, str]:
    """Strategy variables in effect: none, since no strategy is
    selectable from the environment."""
    return {}


def runtime_knobs() -> dict:
    """JSON-safe backend facts of this process (the numpy version).

    Reads no environment variable; imports numpy (a required
    dependency) only when called.
    """
    from repro.analysis.matrix import numpy_version

    return {"numpy": numpy_version()}
