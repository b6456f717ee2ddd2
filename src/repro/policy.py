"""The allocation :class:`Policy`: every result-relevant heuristic knob.

The paper fixes a handful of heuristic constants: the appendix cost
model (Save_Restore_Cost = 3, Callee_Save_Cost = 2, spill load/store
weights 2/1, loop frequency 10**depth), the Chaitin spill metric
(cost / degree) and the preference selector's ready-queue key.  A
``Policy`` holds the eight of them that a preset may change, as one
frozen, serializable value; the rest are plain constants in the code
(``core.costs.SAVE_RESTORE_COST``, the ``(id, name)`` spill tie-break
in ``regalloc.simplify``, the selector's ``-id`` term).  The service's
degradation ladder is service behaviour, not a heuristic, and lives in
``service/scheduler.py``.

The one committed preset, ``tuned_v1`` (``policies/tuned_v1.json``), was
picked by an offline search over three training families.  It is not
the default: its held-out table (``benchmarks/bench_policy_heldout.py``,
quoted in EXPERIMENTS.md) shows it faster in some cells and slower in
others.

Contract: ``Policy()`` — the default — is **byte-identical** to the
historical literals.  Every consumer guards the default value onto the
exact original computation path (same arithmetic, same int/float
types), and the service cache fingerprint only grows a ``policy`` key
when a request carries a *non-default* policy, so existing traffic
keeps its fingerprints and cached results.

Serialization is canonical JSON (sorted keys, fixed separators);
``Policy.digest()`` is the sha256 of that form and is what enters wire
payloads, cache fingerprints, and session memo keys.  Older clients
send four more keys (:data:`RETIRED_FIELDS`); ``from_dict`` accepts
each only at the one value it ever had.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from repro.reporting import canonical_json

__all__ = [
    "Policy",
    "DEFAULT_POLICY",
    "RETIRED_FIELDS",
    "load_policy",
    "preset_path",
    "available_presets",
]

#: Fields ``Policy`` no longer has, each with the one value every preset
#: and caller gave it.  ``Policy.to_dict()`` documents from older clients
#: still carry them; :meth:`Policy.from_dict` drops a retired key at this
#: value and rejects any other value, mirroring
#: ``AllocationOptions.RETIRED_WIRE_FIELDS``.  The ladder is the old
#: default, ``iterated`` rung included; the old ``Policy`` sorted it, so
#: any order of these rungs was the same ladder.
RETIRED_FIELDS = {
    "save_restore_cost": 3,
    "select_id_weight": 1.0,
    "spill_tie_break": ("id", "name"),
    "degradation_ladder": (
        ("briggs", "chaitin"),
        ("callcost", "chaitin"),
        ("full", "chaitin"),
        ("iterated", "briggs"),
        ("only-coalescing", "chaitin"),
        ("optimistic", "briggs"),
        ("priority", "chaitin"),
    ),
}


def _as_tuples(value):
    """``value`` with every (nested) JSON list as a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(_as_tuples(item) for item in value)
    return value


def _is_retired_value(name: str, value) -> bool:
    """True iff ``value`` is the one value retired field ``name`` had."""
    old = RETIRED_FIELDS[name]
    value = _as_tuples(value)
    if name == "degradation_ladder" and isinstance(value, tuple):
        return len(value) == len(old) and all(rung in value for rung in old)
    return type(value) is not bool and value == old


@dataclass(frozen=True)
class Policy:
    """Every result-relevant heuristic constant a preset may change.

    All fields default to the paper's (and this repo's historical)
    constants; see the module docstring for the byte-identity contract.
    Instances are hashable and order-insensitively comparable, so they
    can key caches directly.
    """

    # -- cost-model constants (paper appendix) -------------------------
    #: one-time cycles to claim a callee-save (non-volatile) register
    callee_save_cost: int = 2
    #: weight of one spilled *use* (a load) in spill-cost estimates
    spill_load_cost: int = 2
    #: weight of one spilled *def* (a store) in spill-cost estimates
    spill_store_cost: int = 1
    #: spill-cost block weighting is ``freq ** exponent`` where freq is
    #: the 10**depth loop frequency; 1.0 reproduces the paper exactly.
    #: Applied to spill-cost weighting only — cycle *estimation* always
    #: uses the unmodified frequency.
    loop_depth_exponent: float = 1.0

    # -- spill-candidate scoring (Chaitin's cost/degree metric) --------
    #: metric = spill_cost ** cost_exp / max(degree, 1) ** degree_exp;
    #: (1.0, 1.0) is the classic cost/degree.
    spill_cost_exponent: float = 1.0
    spill_degree_exponent: float = 1.0

    # -- PreferenceSelector ready-queue key ----------------------------
    #: key = (w_diff * differential, w_cost * spill_cost, -id); all-1.0
    #: weights reproduce the historical lexicographic key.
    select_differential_weight: float = 1.0
    select_spill_cost_weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("callee_save_cost", "spill_load_cost",
                     "spill_store_cost"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        for name in ("loop_depth_exponent", "spill_cost_exponent",
                     "spill_degree_exponent", "select_differential_weight",
                     "select_spill_cost_weight"):
            value = getattr(self, name)
            self._check_weight(name, value)
            object.__setattr__(self, name, float(value))

    @staticmethod
    def _check_weight(name: str, value) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {value!r}")
        value = float(value)
        if not (0.0 < value < float("inf")) or value != value:
            raise ValueError(
                f"{name} must be finite and > 0, got {value!r}"
            )

    # -- derived views --------------------------------------------------

    def is_default(self) -> bool:
        """True iff byte-identical to the paper's historical constants."""
        return self == DEFAULT_POLICY

    def replace(self, **changes) -> "Policy":
        return replace(self, **changes)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form, field order canonical."""
        return asdict(self)

    def to_json(self, indent: int | None = None) -> str:
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "Policy":
        if not isinstance(payload, dict):
            raise ValueError(f"policy must be an object, got {payload!r}")
        values = dict(payload)
        for name in sorted(RETIRED_FIELDS.keys() & values.keys()):
            value = values.pop(name)
            if not _is_retired_value(name, value):
                raise ValueError(
                    f"policy field {name!r} is retired and only accepts "
                    f"{RETIRED_FIELDS[name]!r}, got {value!r}"
                )
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown policy field(s) {sorted(unknown)}")
        return cls(**values)

    @classmethod
    def from_json(cls, text: str) -> "Policy":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"invalid policy JSON: {err}") from None
        return cls.from_dict(payload)

    def digest(self) -> str:
        """sha256 of the canonical JSON form — the identity that enters
        cache fingerprints, wire payloads, and session memo keys."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hashlib.sha256(
                canonical_json(self.to_dict()).encode()
            ).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached


DEFAULT_POLICY = Policy()

_PRESET_DIR = Path(__file__).resolve().parent / "policies"


def preset_path(name: str) -> Path:
    """Filesystem path of a named built-in preset (may not exist)."""
    return _PRESET_DIR / f"{name}.json"


def available_presets() -> list[str]:
    """Names of the committed built-in presets."""
    if not _PRESET_DIR.is_dir():
        return []
    return sorted(p.stem for p in _PRESET_DIR.glob("*.json"))


def load_policy(spec: str | None) -> Policy:
    """Resolve a ``--policy`` argument: ``None`` -> defaults, a built-in
    preset name (e.g. ``tuned_v1``) -> the committed preset, anything
    else -> a JSON file path."""
    if spec is None:
        return DEFAULT_POLICY
    if "/" not in spec and "\\" not in spec and not spec.endswith(".json"):
        path = preset_path(spec)
        if not path.is_file():
            raise ValueError(
                f"unknown policy preset {spec!r} "
                f"(available: {available_presets()!r})"
            )
        return Policy.from_json(path.read_text())
    path = Path(spec)
    if not path.is_file():
        raise ValueError(f"policy file not found: {spec}")
    return Policy.from_json(path.read_text())
