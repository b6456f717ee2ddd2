"""Versioned wire protocol of the allocation service.

One request/response pair per allocation.  Both sides are plain
dataclasses with an explicit wire form (``to_wire``/``from_wire``) so
the JSON schema is spelled out in one place and versioned by
``PROTOCOL_VERSION``.  Serialization goes through
:func:`repro.reporting.canonical_json`, which makes equal payloads
byte-equal — the property the content-addressed cache and the
byte-identity tests rely on.

The *result payload* of a response (code + stats + cycles + effective
allocator) deliberately excludes volatile metadata (request id, cache
flag, timings), so ``result_digest`` is stable across server restarts,
cache hits, and direct :func:`repro.pipeline.allocate_module` runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.errors import ServiceError
from repro.regalloc.base import AllocationOptions, AllocationStats
from repro.reporting import canonical_json
from repro.sim.cycles import CycleReport
from repro.target.machine import TargetMachine
from repro.target.presets import make_machine
from repro.workloads import BENCHMARK_NAMES

__all__ = [
    "PROTOCOL_VERSION",
    "SERVICE_ALLOCATORS",
    "MachineSpec",
    "AllocationRequest",
    "AllocationResponse",
    "MAX_MACHINE_REGS",
    "machine_descriptor",
    "machine_content_digest",
    "stats_to_dict",
    "cycles_to_dict",
]

#: Bumped whenever a wire field changes meaning; a request carrying
#: any other version is refused instead of silently misread.  v2
#: requests carry a serialized :class:`AllocationOptions` under
#: ``options`` (v1's bare ``verify``/``deadline_s`` knobs are refused).
#: v2 also admits the ``allocate_delta`` message type (``base`` session
#: token + new ``ir`` body) and responses may carry ``session_digest``;
#: both are additive, so the version number is unchanged — old peers
#: simply never send the type.
PROTOCOL_VERSION = 2

#: Largest register file a request may ask for.  Building a machine is
#: linear in its size (about 6 us and 0.3 KiB per register), so an
#: unbounded ``regs`` would let one request line wedge the scheduler
#: thread and exhaust memory.  The largest machine used in the tree is
#: 32 registers per class.
MAX_MACHINE_REGS = 128

#: Allocator names a request may ask for (the CLI's choices).
SERVICE_ALLOCATORS = (
    "chaitin", "briggs", "optimistic", "callcost", "only-coalescing",
    "full",
)

#: Protocol v1's bare request knobs -> where v2 carries them.
_MOVED_KNOBS = {"verify": "options.verify",
                "deadline_s": "options.deadline_ms (milliseconds)"}


@dataclass(frozen=True)
class MachineSpec:
    """A machine preset: registers per class, as ``make_machine`` takes."""

    regs: int = 24
    has_paired_loads: bool = True

    def build(self) -> TargetMachine:
        return make_machine(self.regs, self.has_paired_loads)

    def to_wire(self) -> dict:
        return {"regs": self.regs, "has_paired_loads": self.has_paired_loads}

    @classmethod
    def from_wire(cls, wire: dict) -> "MachineSpec":
        if not isinstance(wire, dict):
            raise ServiceError(f"machine spec must be an object, got {wire!r}")
        regs = wire.get("regs", 24)
        paired = wire.get("has_paired_loads", True)
        if not isinstance(regs, int) or isinstance(regs, bool):
            raise ServiceError(f"machine regs must be an int, got {regs!r}")
        if regs % 2 or not 2 <= regs <= MAX_MACHINE_REGS:
            raise ServiceError(
                f"machine regs must be even and in 2..{MAX_MACHINE_REGS}, "
                f"got {regs}")
        if not isinstance(paired, bool):
            raise ServiceError("machine has_paired_loads must be a bool")
        return cls(regs=regs, has_paired_loads=paired)


def machine_descriptor(machine: TargetMachine) -> dict:
    """A value-complete, JSON-safe digest of a machine's register model.

    Used in cache fingerprints: two machines with equal descriptors give
    equal allocations, whatever objects they are.
    """
    files = {}
    for rclass, regfile in machine.files.items():
        files[rclass.value] = {
            "k": regfile.k,
            "volatile": sorted(r.index for r in regfile.volatile),
            "param_regs": [r.index for r in regfile.param_regs],
            "return_reg": regfile.return_reg.index,
            "byte_load_regs": sorted(r.index
                                     for r in regfile.byte_load_regs),
        }
    return {
        "name": machine.name,
        "has_paired_loads": machine.has_paired_loads,
        "files": files,
    }


def machine_content_digest(machine: TargetMachine) -> str:
    """sha256 of the canonical :func:`machine_descriptor`: equal for
    any two machines that allocate alike, in any process."""
    descriptor = canonical_json(machine_descriptor(machine))
    return hashlib.sha256(descriptor.encode()).hexdigest()


@dataclass
class AllocationRequest:
    """One allocation job: IR text *or* a benchmark name, plus knobs.

    The knobs ride in ``options``
    (:class:`~repro.regalloc.base.AllocationOptions`), the one stored
    copy: ``options.verify`` checks the result, and
    ``options.deadline_ms`` is how long the client is willing to wait
    before the scheduler degrades the allocator (it never errors).
    """

    id: str = ""
    ir: str | None = None
    bench: str | None = None
    allocator: str = "full"
    machine: MachineSpec = field(default_factory=MachineSpec)
    options: AllocationOptions = field(
        default_factory=AllocationOptions.from_env)
    protocol: int = PROTOCOL_VERSION
    #: non-None makes this an ``allocate_delta`` request (v2 extension):
    #: ``ir`` is the *new* body and the string is the session token of
    #: the edit chain (the ``session_digest`` of the previous response;
    #: empty string starts a fresh chain).  An unknown token degrades
    #: gracefully to a from-scratch build that primes the session.
    base_digest: str | None = None

    def validate(self) -> None:
        if (type(self.protocol) is not int
                or self.protocol != PROTOCOL_VERSION):
            raise ServiceError(
                f"protocol version {self.protocol} unsupported "
                f"(server speaks {PROTOCOL_VERSION})"
            )
        if (self.ir is None) == (self.bench is None):
            raise ServiceError(
                "request needs exactly one of 'ir' (IR text) or "
                "'bench' (benchmark name)"
            )
        if self.ir is not None and not isinstance(self.ir, str):
            raise ServiceError(
                f"'ir' must be a string of IR text, got "
                f"{type(self.ir).__name__}")
        if self.bench is not None and self.bench not in BENCHMARK_NAMES:
            raise ServiceError(
                f"unknown benchmark {self.bench!r}; "
                f"choose from {sorted(BENCHMARK_NAMES)}"
            )
        if self.allocator not in SERVICE_ALLOCATORS:
            raise ServiceError(
                f"unknown allocator {self.allocator!r}; "
                f"choose from {sorted(SERVICE_ALLOCATORS)}"
            )
        if self.base_digest is not None and self.ir is None:
            raise ServiceError(
                "allocate_delta requires 'ir' (the new module body); "
                "'bench' cannot carry an edit stream"
            )

    def to_wire(self) -> dict:
        wire = {
            "type": "allocate" if self.base_digest is None
            else "allocate_delta",
            "protocol": self.protocol,
            "id": self.id,
            "allocator": self.allocator,
            "machine": self.machine.to_wire(),
            "options": self.options.to_dict(),
        }
        if self.ir is not None:
            wire["ir"] = self.ir
        if self.bench is not None:
            wire["bench"] = self.bench
        if self.base_digest is not None:
            wire["base"] = self.base_digest
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "AllocationRequest":
        if not isinstance(wire, dict):
            raise ServiceError(f"request must be a JSON object, got {wire!r}")
        # Bare knobs were honoured once; ignoring them would change what
        # such a client gets without telling it.
        for bare, moved in _MOVED_KNOBS.items():
            if bare in wire:
                raise ServiceError(
                    f"top-level {bare!r} is not read; send {moved}")
        knobs = {}
        if wire.get("options") is not None:
            try:
                knobs["options"] = AllocationOptions.from_dict(
                    wire["options"])
            except (TypeError, ValueError) as err:
                raise ServiceError(f"bad options: {err}") from err
        # Other unknown keys are ignored.  Older clients may still send
        # a ``fingerprint_hint`` (a precomputed cache key); it is never
        # read, because a client-supplied key could address another
        # request's cached result.
        base_digest = None
        if wire.get("type") == "allocate_delta":
            base = wire.get("base", "")
            base_digest = base if isinstance(base, str) else ""
        req = cls(
            id=str(wire.get("id", "")),
            ir=wire.get("ir"),
            bench=wire.get("bench"),
            allocator=wire.get("allocator", "full"),
            machine=MachineSpec.from_wire(wire.get("machine", {})),
            protocol=wire.get("protocol", PROTOCOL_VERSION),
            base_digest=base_digest,
            **knobs,
        )
        req.validate()
        return req

    def to_json(self) -> str:
        return canonical_json(self.to_wire())


@dataclass
class AllocationResponse:
    """The service's answer; also what ``--json`` CLI commands print."""

    id: str = ""
    ok: bool = True
    #: allocator the client asked for / the one actually run
    allocator: str = ""
    effective_allocator: str = ""
    degraded: bool = False
    cached: bool = False
    #: content address of the request (cache key)
    fingerprint: str = ""
    #: sha256 of the canonical result payload (code+stats+cycles)
    result_digest: str = ""
    #: allocated module, as ``repro.ir.printer`` renders it
    code: str = ""
    stats: dict = field(default_factory=dict)
    cycles: dict = field(default_factory=dict)
    error: str = ""
    #: per-phase wall seconds (volatile; excluded from the digest)
    timings: dict = field(default_factory=dict)
    #: ``allocate_delta`` only: the edit chain's session token — echo it
    #: as ``base`` on the next edit.  Volatile metadata like ``timings``:
    #: excluded from the result payload, so delta responses stay
    #: digest-identical to full-path responses for the same IR.
    session_digest: str = ""
    protocol: int = PROTOCOL_VERSION

    def result_payload(self) -> dict:
        """The deterministic part of the response (digest input)."""
        return {
            "effective_allocator": self.effective_allocator,
            "code": self.code,
            "stats": self.stats,
            "cycles": self.cycles,
        }

    def seal(self) -> "AllocationResponse":
        """Stamp ``result_digest`` from the current result payload."""
        digest = hashlib.sha256(
            canonical_json(self.result_payload()).encode()
        ).hexdigest()
        self.result_digest = digest
        return self

    def to_wire(self) -> dict:
        return {
            "type": "allocation",
            "protocol": self.protocol,
            "id": self.id,
            "ok": self.ok,
            "allocator": self.allocator,
            "effective_allocator": self.effective_allocator,
            "degraded": self.degraded,
            "cached": self.cached,
            "fingerprint": self.fingerprint,
            "result_digest": self.result_digest,
            "code": self.code,
            "stats": self.stats,
            "cycles": self.cycles,
            "error": self.error,
            "timings": self.timings,
            "session_digest": self.session_digest,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "AllocationResponse":
        if not isinstance(wire, dict):
            raise ServiceError(f"response must be a JSON object, got {wire!r}")
        return cls(
            id=str(wire.get("id", "")),
            ok=bool(wire.get("ok", False)),
            allocator=wire.get("allocator", ""),
            effective_allocator=wire.get("effective_allocator", ""),
            degraded=bool(wire.get("degraded", False)),
            cached=bool(wire.get("cached", False)),
            fingerprint=wire.get("fingerprint", ""),
            result_digest=wire.get("result_digest", ""),
            code=wire.get("code", ""),
            stats=wire.get("stats", {}),
            cycles=wire.get("cycles", {}),
            error=wire.get("error", ""),
            timings=wire.get("timings", {}),
            session_digest=wire.get("session_digest", ""),
            protocol=wire.get("protocol", PROTOCOL_VERSION),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_wire())

    def for_cache(self) -> "AllocationResponse":
        """A copy stripped of per-request metadata, safe to share."""
        return replace(self, id="", cached=False, timings={},
                       session_digest="")

    @classmethod
    def error_response(cls, request_id: str, message: str,
                       allocator: str = "") -> "AllocationResponse":
        return cls(id=request_id, ok=False, allocator=allocator,
                   error=message)


def stats_to_dict(stats: AllocationStats) -> dict:
    """JSON-safe rendering of :class:`AllocationStats` (sorted class keys)."""

    def by_class(table: dict) -> dict:
        return {rc.value: table[rc] for rc in sorted(table, key=lambda
                                                     rc: rc.value)}

    return {
        "allocator": stats.allocator,
        "rounds": stats.rounds,
        "moves_before": stats.moves_before,
        "moves_before_weighted": stats.moves_before_weighted,
        "moves_eliminated": stats.moves_eliminated,
        "moves_eliminated_weighted": stats.moves_eliminated_weighted,
        "moves_remaining": stats.moves_remaining,
        "spill_loads": stats.spill_loads,
        "spill_stores": stats.spill_stores,
        "spill_instructions": stats.spill_instructions,
        "spill_weighted": stats.spill_weighted,
        "coalesced_count": stats.coalesced_count,
        "biased_hits": stats.biased_hits,
        "spilled_webs": stats.spilled_webs,
        "nonvolatile_used": by_class(stats.nonvolatile_used),
        "moves_before_class": by_class(stats.moves_before_class),
        "moves_eliminated_class": by_class(stats.moves_eliminated_class),
        "spills_class": by_class(stats.spills_class),
    }


def cycles_to_dict(report: CycleReport) -> dict:
    """JSON-safe rendering of :class:`CycleReport`, with the total."""
    return {
        "op_cycles": report.op_cycles,
        "move_cycles": report.move_cycles,
        "spill_cycles": report.spill_cycles,
        "caller_save_cycles": report.caller_save_cycles,
        "callee_save_cycles": report.callee_save_cycles,
        "byte_penalty_cycles": report.byte_penalty_cycles,
        "call_overhead_cycles": report.call_overhead_cycles,
        "paired_saved_cycles": report.paired_saved_cycles,
        "paired_loads_fused": report.paired_loads_fused,
        "moves_remaining": report.moves_remaining,
        "spill_instructions": report.spill_instructions,
        "total": report.total,
    }
