"""Value kinds used as instruction operands.

The IR is register-transfer style: operands are virtual registers
(:class:`VReg`), physical registers (:class:`PReg`, which appear after the
calling-convention lowering pass and after register allocation), and
integer/float immediates (:class:`Const`).

Registers carry a :class:`RegClass`; the allocator never mixes classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["RegClass", "VReg", "PReg", "Const", "Value", "Register"]

_setattr = object.__setattr__


class RegClass(enum.Enum):
    """Architectural register class of a value."""

    INT = "int"
    FLOAT = "float"

    # Enum's default __hash__ hashes the member *name* string on every
    # call; registers and class-keyed tables are hashed millions of times
    # per allocation, so use the identity hash (members are singletons,
    # and Enum equality is already identity).
    __hash__ = object.__hash__

    def prefix(self) -> str:
        """Printer prefix for registers of this class (``v``/``f``)."""
        return "v" if self is RegClass.INT else "f"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegClass.{self.name}"


#: an Enum member read through its class costs a lookup each time
_FLOAT = RegClass.FLOAT


@dataclass(frozen=True, slots=True)
class VReg:
    """A virtual register (an unbounded supply, one per SSA-ish name).

    ``no_spill`` marks short-lived temporaries introduced by spill code;
    spilling them again would not terminate, so allocators treat their
    spill cost as infinite.
    """

    id: int
    rclass: RegClass = RegClass.INT
    name: str | None = None
    no_spill: bool = False
    #: precomputed hash; register hashing dominates set/dict operations in
    #: the allocator, and the value is an integer function of the identity
    #: fields so hashing (and set iteration order) is process-independent
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __init__(self, id: int, rclass: RegClass = RegClass.INT,
                 name: str | None = None, no_spill: bool = False) -> None:
        # Written out because the parser makes one register per distinct
        # name: the generated frozen __init__ plus a __post_init__ took
        # about 2.5x as long.
        _setattr(self, "id", id)
        _setattr(self, "rclass", rclass)
        _setattr(self, "name", name)
        _setattr(self, "no_spill", no_spill)
        _setattr(self, "_hash",
                 (id << 3)
                 | (4 if rclass is _FLOAT else 0)
                 | (2 if no_spill else 0))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        base = f"%{self.name}" if self.name else f"%{self.rclass.prefix()}{self.id}"
        return base

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True, slots=True)
class PReg:
    """A physical register, identified by class and index within the file."""

    index: int
    rclass: RegClass = RegClass.INT
    name: str | None = None
    #: precomputed, process-independent hash (bit 0 set: disjoint from VReg)
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            (self.index << 3)
            | (4 if self.rclass is RegClass.FLOAT else 0)
            | 1,
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.name:
            return f"${self.name}"
        prefix = "r" if self.rclass is RegClass.INT else "fr"
        return f"${prefix}{self.index}"

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True, slots=True)
class Const:
    """An immediate operand."""

    value: int | float
    rclass: RegClass = RegClass.INT

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return str(self)


Register = VReg | PReg
Value = VReg | PReg | Const
