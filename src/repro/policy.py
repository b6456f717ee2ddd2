"""The allocation :class:`Policy`: every result-relevant heuristic knob.

The paper fixes a handful of heuristic constants — the appendix cost
model (Save_Restore_Cost = 3, Callee_Save_Cost = 2, spill load/store
weights 2/1, loop frequency 10**depth), the Chaitin spill metric
(cost / degree with an id tie-break), and the preference selector's
ready-queue key — and the service adds one more (the degradation
ladder).  Historically those lived as literals scattered across
``core/costs.py``, ``core/select.py``, ``regalloc/simplify.py``,
``regalloc/worklist.py``, ``regalloc/callcost.py`` and
``service/scheduler.py``.  This module factors them into one frozen,
serializable value so heuristic research (and the offline tuner in
``benchmarks/tune_policy.py``) can vary them without forking the code.

Contract: ``Policy()`` — the default — is **byte-identical** to the
historical literals.  Every consumer guards the default value onto the
exact original computation path (same arithmetic, same int/float
types), and the service cache fingerprint only grows a ``policy`` key
when a request carries a *non-default* policy, so existing traffic
keeps its fingerprints and cached results.

Serialization is canonical JSON (sorted keys, fixed separators);
``Policy.digest()`` is the sha256 of that form and is what enters wire
payloads, cache fingerprints, and session memo keys.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.reporting import canonical_json

__all__ = [
    "Policy",
    "DEFAULT_POLICY",
    "DEFAULT_DEGRADATION_LADDER",
    "load_policy",
    "preset_path",
    "available_presets",
]

#: The service's allocator fallback ladder under deadline pressure /
#: overload, as ordered (allocator, cheaper-allocator) pairs.  Chaitin
#: is terminal.  The default ``Policy.degradation_ladder``, walked one
#: rung at a time by ``service.scheduler.degrade_for``.
DEFAULT_DEGRADATION_LADDER = (
    ("briggs", "chaitin"),
    ("callcost", "chaitin"),
    ("full", "chaitin"),
    ("iterated", "briggs"),
    ("only-coalescing", "chaitin"),
    ("optimistic", "briggs"),
    ("priority", "chaitin"),
)

#: Allocator names a ladder entry may mention (kept as a literal so this
#: module stays a leaf — scheduler imports *us*).
_LADDER_NAMES = frozenset(
    name for pair in DEFAULT_DEGRADATION_LADDER for name in pair
)

_TIE_BREAK_KEYS = ("id", "name")


@dataclass(frozen=True)
class Policy:
    """Every result-relevant heuristic decision point, in one value.

    All fields default to the paper's (and this repo's historical)
    constants; see the module docstring for the byte-identity contract.
    Instances are hashable and order-insensitively comparable, so they
    can key caches directly.
    """

    # -- cost-model constants (paper appendix) -------------------------
    #: cycles to save+restore a volatile register around one call
    save_restore_cost: int = 3
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
    #: deterministic tie-break field order for equal metrics
    spill_tie_break: tuple[str, ...] = ("id", "name")

    # -- PreferenceSelector ready-queue key ----------------------------
    #: key = (w_diff * differential, w_cost * spill_cost, w_id * -id);
    #: all-1.0 weights reproduce the historical lexicographic key.
    select_differential_weight: float = 1.0
    select_spill_cost_weight: float = 1.0
    select_id_weight: float = 1.0

    # -- service degradation ladder ------------------------------------
    degradation_ladder: tuple[tuple[str, str], ...] = (
        DEFAULT_DEGRADATION_LADDER
    )

    def __post_init__(self) -> None:
        for name in ("save_restore_cost", "callee_save_cost",
                     "spill_load_cost", "spill_store_cost"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        for name in ("loop_depth_exponent", "spill_cost_exponent",
                     "spill_degree_exponent"):
            value = getattr(self, name)
            self._check_weight(name, value)
            object.__setattr__(self, name, float(value))
        for name in ("select_differential_weight",
                     "select_spill_cost_weight", "select_id_weight"):
            value = getattr(self, name)
            self._check_weight(name, value)
            object.__setattr__(self, name, float(value))
        tie = tuple(self.spill_tie_break)
        if (not tie or len(set(tie)) != len(tie)
                or any(k not in _TIE_BREAK_KEYS for k in tie)
                or "id" not in tie):
            raise ValueError(
                "spill_tie_break must be a duplicate-free ordering of "
                f"{_TIE_BREAK_KEYS} that includes 'id', got {tie!r}"
            )
        object.__setattr__(self, "spill_tie_break", tie)
        ladder = tuple(
            (str(frm), str(to)) for frm, to in self.degradation_ladder
        )
        seen: set[str] = set()
        for frm, to in ladder:
            if frm not in _LADDER_NAMES or to not in _LADDER_NAMES:
                raise ValueError(
                    f"degradation ladder names unknown allocator in "
                    f"({frm!r}, {to!r})"
                )
            if frm == to:
                raise ValueError(f"ladder entry {frm!r} degrades to itself")
            if frm in seen:
                raise ValueError(f"duplicate ladder entry for {frm!r}")
            seen.add(frm)
        object.__setattr__(
            self, "degradation_ladder", tuple(sorted(ladder))
        )

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

    def ladder_map(self) -> dict[str, str]:
        """The degradation ladder as a lookup dict."""
        return dict(self.degradation_ladder)

    def replace(self, **changes) -> "Policy":
        return replace(self, **changes)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form; tuples become lists, field order canonical."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "degradation_ladder":
                value = [list(pair) for pair in value]
            elif f.name == "spill_tie_break":
                value = list(value)
            out[f.name] = value
        return out

    def to_json(self, indent: int | None = None) -> str:
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "Policy":
        if not isinstance(payload, dict):
            raise ValueError(f"policy must be an object, got {payload!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown policy field(s) {sorted(unknown)}")
        values = dict(payload)
        if "degradation_ladder" in values:
            ladder = values["degradation_ladder"]
            if not isinstance(ladder, (list, tuple)) or any(
                not isinstance(pair, (list, tuple)) or len(pair) != 2
                for pair in ladder
            ):
                raise ValueError(
                    "degradation_ladder must be a list of [from, to] pairs"
                )
            values["degradation_ladder"] = tuple(
                (pair[0], pair[1]) for pair in ladder
            )
        if "spill_tie_break" in values:
            tie = values["spill_tie_break"]
            if not isinstance(tie, (list, tuple)):
                raise ValueError("spill_tie_break must be a list")
            values["spill_tie_break"] = tuple(tie)
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
