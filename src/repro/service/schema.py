"""One registry for every JSON document the repo emits.

The shapes leaving the system: ``allocation`` (``alloc --json``,
``submit --json``, and every server response line), ``comparison``
(``compare --json`` / ``bench --json``), ``stats`` (the ``stats``
control reply) and ``final_stats`` (the snapshot ``serve`` dumps on
shutdown).  Historically each was assembled at its call site; they now all come
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
#: v4: the offline policy tuner's report joins the registry
#: (per-family default/candidate measurements and the winning
#: :class:`repro.policy.Policy`).
#: v5: the counter contract gains ``session_colorings_reused`` (value
#: edits whose allocation started from a retained round-0 coloring).
#: v5 (unchanged): the sharded router's stats snapshot left the registry
#: with the router, which never beat ``serve --jobs N`` on cache-miss
#: traffic.  No remaining document changed shape, so no bump.
#: v6: the counter contract drops ``session_patches_struct``: the
#: session's struct rung folded into ``rebuild`` (counted by
#: ``session_rebuilds``) when struct edits stopped patching analyses.
#: v7: the counter contract gains ``session_patches_rename`` (struct
#: edits whose prepared body renames the retained one's webs and so
#: keep its analyses and allocations).
#: v8: the ``worker_pool`` section drops ``counters.hung_kills`` and each
#: worker's ``heartbeat_age_s``: pool workers no longer stamp a
#: heartbeat, and an idle worker is never killed for silence.
#: v8 (unchanged): the policy tuner's report type left the registry
#: with the tuner; its one preset (``tuned_v1``) is now judged by a
#: held-out table (``benchmarks/bench_policy_heldout.py``).  No
#: remaining document changed shape, so no bump.
#: v8 (unchanged): ``Policy`` and its ``tuned_v1`` preset left the
#: package with the held-out table; the appendix constants are plain
#: constants and request ``options`` no longer accept a ``policy``
#: field.  No emitted document changed shape, so no bump.
SCHEMA_VERSION = 8

#: Every ``type`` tag this module can emit.
SCHEMA_TYPES = ("allocation", "comparison", "stats", "final_stats")

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
    "session_patches_rename",
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

