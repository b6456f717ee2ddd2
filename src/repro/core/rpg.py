"""The Register Preference Graph (Section 5.1).

A directed graph in which "a node represents a live range, a register, or
a register class, while an edge represents a preference".  Edge kinds:

* ``COALESCE`` — use the same register as the destination node (a live
  range or a physical register; the latter covers the *dedicated* uses:
  parameter registers, return registers);
* ``SEQ_NEXT`` / ``SEQ_PREV`` — use the register whose index is one above
  / below the destination node's register (paired/coupled loads);
* ``GROUP`` — use any register of a register group (volatile,
  non-volatile, byte-load-capable, ...), the paper's *prefers* edges.

Every edge carries a :class:`~repro.core.costs.Strength` — the appendix
``Str(V, P)`` evaluated for a volatile and a non-volatile placement, as in
Figure 7(c)'s "40 when coalescing to a volatile register, but 38 for a
non-volatile".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.costs import Strength
from repro.ir.values import PReg, RegClass, Register, VReg

__all__ = ["PrefKind", "RegGroup", "PrefEdge", "RegisterPreferenceGraph"]


class PrefKind(enum.Enum):
    """The four preference edge kinds of Figure 7(c)."""

    COALESCE = "coalesce"
    SEQ_NEXT = "sequential+"   # wants (destination register) + 1
    SEQ_PREV = "sequential-"   # wants (destination register) - 1
    GROUP = "prefers"


@dataclass(frozen=True)
class RegGroup:
    """A named set of registers (a register-class node of the RPG)."""

    name: str
    rclass: RegClass
    regs: frozenset[PReg]

    def __str__(self) -> str:
        return f"<{self.name}/{self.rclass.value}>"


@dataclass(frozen=True)
class PrefEdge:
    """One preference of ``src`` about its register."""

    src: VReg
    kind: PrefKind
    target: Register | RegGroup
    strength: Strength

    def __str__(self) -> str:
        return (
            f"{self.src} --{self.kind.value}[{self.strength}]--> "
            f"{self.target}"
        )


@dataclass(eq=False)
class RegisterPreferenceGraph:
    """Preference edges indexed by source live range."""

    _out: dict[VReg, list[PrefEdge]] = field(default_factory=dict)
    _in: dict[VReg, list[PrefEdge]] = field(default_factory=dict)

    def add(self, edge: PrefEdge) -> None:
        self._out.setdefault(edge.src, []).append(edge)
        if isinstance(edge.target, VReg):
            self._in.setdefault(edge.target, []).append(edge)

    def edges_from(self, node: VReg) -> list[PrefEdge]:
        """Preferences held *by* ``node``."""
        return self._out.get(node, [])

    def edges_to(self, node: VReg) -> list[PrefEdge]:
        """Live-range preferences *about* ``node`` held by others."""
        return self._in.get(node, [])

    def nodes(self) -> set[VReg]:
        out: set[VReg] = set(self._out)
        out.update(self._in)
        return out

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._out.values())

    def __str__(self) -> str:
        lines = ["RegisterPreferenceGraph {"]
        for src in sorted(self._out, key=lambda v: v.id):
            for edge in self._out[src]:
                lines.append(f"  {edge}")
        lines.append("}")
        return "\n".join(lines)
