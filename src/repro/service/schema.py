"""One registry for every JSON document the repo emits.

The shapes leaving the system: ``allocation`` (``alloc --json``,
``submit --json``, and every server response line), ``comparison``
(``compare --json`` / ``bench --json``), ``stats`` (the ``stats``
control reply), ``final_stats`` (the snapshot ``serve`` dumps on
shutdown), and ``policy_tuning`` (the offline tuner's report).
Historically each was assembled at its call site; they now all come
from here, stamped with a shared ``schema`` version so downstream
consumers can detect shape changes without guessing from the fields.

``schema`` versions the *envelope shapes* in this module; it is
orthogonal to ``protocol`` (the request/response conversation version,
:data:`repro.service.protocol.PROTOCOL_VERSION`), which the documents
keep carrying unchanged.
"""

from __future__ import annotations

from repro.service.protocol import PROTOCOL_VERSION, AllocationResponse

__all__ = [
    "SCHEMA_VERSION",
    "SCHEMA_TYPES",
    "SERVICE_COUNTERS",
    "allocation_payload",
    "comparison_payload",
    "stats_payload",
    "final_stats_payload",
    "policy_tuning_payload",
]

#: Bumped whenever any emitted document shape changes incompatibly.
#: v1: first versioned emission (previously the documents carried only
#: ``protocol``).
#: v2: the sharded router's stats snapshot joins the registry and
#: ``stats`` documents are guaranteed to carry
#: every :data:`SERVICE_COUNTERS` counter plus the ``worker_pool`` and
#: ``alloc_phases`` sections.
#: v3: ``allocation`` documents carry ``session_digest`` (the
#: ``allocate_delta`` edit-chain token, empty off the delta path) and
#: the counter contract gains the ``delta_requests`` / ``session_*``
#: family plus the ``session_hit_ratio`` metrics field.
#: v4: ``policy_tuning`` joins the registry (``benchmarks/
#: tune_policy.py``'s report: per-family default/candidate measurements
#: and the winning :class:`repro.policy.Policy`).
#: v5: the counter contract gains ``session_colorings_reused`` (value
#: edits whose allocation started from a retained round-0 coloring).
#: v5 (unchanged): the sharded router's stats snapshot left the registry
#: with the router, which never beat ``serve --jobs N`` on cache-miss
#: traffic.  No remaining document changed shape, so no bump.
SCHEMA_VERSION = 5

#: Every ``type`` tag this module can emit.
SCHEMA_TYPES = ("allocation", "comparison", "stats", "final_stats",
                "policy_tuning")

#: Counters every ``stats``/``final_stats`` metrics section must carry —
#: the contract the schema version vouches for (asserted by the
#: round-trip tests so a renamed counter forces a coherent bump here).
SERVICE_COUNTERS = (
    "requests_total",
    "responses_ok",
    "responses_error",
    "cache_hits",
    "cache_misses",
    "degraded_total",
    "deadline_misses",
    "rejected_total",
    "batches_total",
    "worker_deadline_kills",
    "delta_requests",
    "session_hits",
    "session_misses",
    "session_patches_value",
    "session_patches_struct",
    "session_rebuilds",
    "session_colorings_reused",
)


def _tagged(payload: dict) -> dict:
    payload["schema"] = SCHEMA_VERSION
    return payload


def allocation_payload(response: AllocationResponse) -> dict:
    """The wire/CLI form of one allocation response."""
    return _tagged(response.to_wire())


def comparison_payload(machine_desc: dict, results: dict,
                       bench: str | None = None) -> dict:
    """``compare``/``bench`` --json: one sealed response per allocator.

    ``results`` maps allocator name -> allocation payload (each entry is
    itself an :func:`allocation_payload`-shaped document).
    """
    payload = _tagged({
        "type": "comparison",
        "protocol": PROTOCOL_VERSION,
        "machine": machine_desc,
        "results": results,
    })
    if bench is not None:
        payload["bench"] = bench
    return payload


def stats_payload(queue_depth: int, metrics: dict,
                  cache: dict | None = None) -> dict:
    """The ``stats`` control reply of a running server."""
    payload = _tagged({
        "type": "stats",
        "protocol": PROTOCOL_VERSION,
        "queue_depth": queue_depth,
        "metrics": metrics,
    })
    if cache is not None:
        payload["cache"] = cache
    return payload


def final_stats_payload(metrics: dict, cache: dict) -> dict:
    """The snapshot ``serve`` prints when it shuts down."""
    return _tagged({
        "type": "final_stats",
        "protocol": PROTOCOL_VERSION,
        "metrics": metrics,
        "cache": cache,
    })


def policy_tuning_payload(tuner: dict, families: dict,
                          best: dict | None = None) -> dict:
    """The offline policy tuner's report (``BENCH_policy_tuning.json``).

    ``tuner`` describes the search (seed, budget, workload snapshot,
    runtime knobs); ``families`` maps family name -> that family's
    default/tuned measurements and deltas; ``best`` is the winning
    policy's ``to_dict()`` form plus its digest (absent when no
    candidate beat the default).
    """
    payload = _tagged({
        "type": "policy_tuning",
        "protocol": PROTOCOL_VERSION,
        "tuner": tuner,
        "families": families,
    })
    if best is not None:
        payload["best"] = best
    return payload

