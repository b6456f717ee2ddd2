"""Structural diffing of two versions of one function.

:func:`diff_functions` compares a *base* and a *new* version of a
function and produces a :class:`FunctionDelta`: which blocks changed
structurally, which were added or removed, whether the edge set
changed, and the list of pure *value edits* (constant values,
immediate offsets, opcode swaps) that leave the function's structure
untouched.

The session layer (:mod:`repro.service.session`) compares two freshly
parsed, unprepared functions.  Registers must be *identical* — the
diff detects edits that are transparent to the whole prepare pipeline
(SSA construction, DCE, lowering are all value- and
opcode-indifferent), so the session can patch the stored prepared
function instead of re-preparing.  Constant operands of ``call``
arguments and ``ret`` are deliberately *not* value edits: lowering
materializes them into fresh ``ConstInst`` instructions whose identity
the position map cannot track, so those edits are structural.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    ConstInst,
    Instruction,
    Jump,
    Load,
    Move,
    Phi,
    Ret,
    SpillLoad,
    SpillStore,
    Store,
    UnaryOp,
)
from repro.ir.values import Const
from repro.profiling import phase

__all__ = ["ValueEdit", "FunctionDelta", "diff_functions"]


@dataclass(frozen=True)
class ValueEdit:
    """One structure-preserving field change inside a matched block."""

    label: str
    index: int
    #: attribute name on the instruction object (``value``, ``op``,
    #: ``offset``, ``lhs``, ``rhs``, ``src``, ``base``, ``cond``)
    attr: str
    new: object
    old: object = None


@dataclass(eq=False)
class FunctionDelta:
    """What changed between a base and a new version of one function.

    Block classification is by label: ``touched_blocks`` are common
    labels whose bodies differ structurally, ``added_blocks``/
    ``removed_blocks`` exist on only one side.  A relabeled block is
    simply a removed plus an added label — conservative but exact.
    """

    touched_blocks: frozenset[str] = frozenset()
    added_blocks: frozenset[str] = frozenset()
    removed_blocks: frozenset[str] = frozenset()
    #: entry label, any block's successor list, or block membership
    #: changed
    changed_edges: bool = False
    #: the structure-preserving edits, in block order
    value_edits: tuple[ValueEdit, ...] = ()
    #: False when the versions cannot be reconciled at all (name or
    #: parameter list changed) — callers must fall back to a
    #: from-scratch build
    consistent: bool = True

    @property
    def structural(self) -> bool:
        """Any change beyond pure value edits."""
        return bool(self.touched_blocks or self.added_blocks
                    or self.removed_blocks or self.changed_edges)

    @property
    def transparent(self) -> bool:
        """True when the new version is the base with value edits only —
        every prepare/renumber/analysis artifact of the base carries
        over verbatim."""
        return self.consistent and not self.structural

    @property
    def identical(self) -> bool:
        return self.transparent and not self.value_edits


def _operand_edit(old, new, label: str, index: int,
                  attr: str) -> ValueEdit | None | bool:
    """Classify one operand slot.

    Returns ``True`` (equal), a :class:`ValueEdit` (constant value
    changed in place), or ``None`` (structural difference).
    """
    if old == new and (type(old) is not Const
                       or same_constant(old.value, new.value)):
        return True
    if (isinstance(old, Const) and isinstance(new, Const)
            and old.rclass == new.rclass):
        return ValueEdit(label, index, attr, new, old)
    return None


def same_constant(a, b) -> bool:
    """Whether two immediates are the same constant: type-strict (``1``
    is not ``1.0``, though they compare equal) and by ``repr``
    (``-0.0`` is not ``0.0``), as the printed code tells them apart."""
    return type(a) is type(b) and repr(a) == repr(b)


def _raw_edits(a: Instruction, b: Instruction, label: str,
               index: int) -> list[ValueEdit] | None:
    """Value edits turning ``a`` into ``b``; None when structural.

    The transparent field set is exactly what the prepare pipeline
    treats opaquely: constant values (``ConstInst.value`` and ``Const``
    operands of arithmetic/memory/branch instructions), memory
    ``offset`` immediates, and opcode names.  ``call`` arguments,
    ``ret`` values, and load widths are excluded — lowering
    materializes the former into fresh instructions and width changes
    alter pairing preferences structurally.
    """
    if type(a) is not type(b):
        return None
    out: list[ValueEdit] = []

    def slot(old, new, attr) -> bool:
        got = _operand_edit(old, new, label, index, attr)
        if got is None:
            return False
        if got is not True:
            out.append(got)
        return True

    if isinstance(a, ConstInst):
        if a.dst != b.dst:
            return None
        if not same_constant(a.value, b.value):
            out.append(ValueEdit(label, index, "value", b.value, a.value))
        return out
    if isinstance(a, Move):
        return out if a.dst == b.dst and a.src == b.src else None
    if isinstance(a, UnaryOp):
        if a.dst != b.dst or not slot(a.src, b.src, "src"):
            return None
        if a.op != b.op:
            out.append(ValueEdit(label, index, "op", b.op, a.op))
        return out
    if isinstance(a, BinOp):
        if (a.dst != b.dst or not slot(a.lhs, b.lhs, "lhs")
                or not slot(a.rhs, b.rhs, "rhs")):
            return None
        if a.op != b.op:
            out.append(ValueEdit(label, index, "op", b.op, a.op))
        return out
    if isinstance(a, Load):
        if (a.dst != b.dst or a.width != b.width
                or not slot(a.base, b.base, "base")):
            return None
        if a.offset != b.offset:
            out.append(ValueEdit(label, index, "offset", b.offset, a.offset))
        return out
    if isinstance(a, Store):
        if not slot(a.base, b.base, "base") or not slot(a.src, b.src, "src"):
            return None
        if a.offset != b.offset:
            out.append(ValueEdit(label, index, "offset", b.offset, a.offset))
        return out
    if isinstance(a, Branch):
        if a.iftrue != b.iftrue or a.iffalse != b.iffalse:
            return None
        return out if slot(a.cond, b.cond, "cond") else None
    if isinstance(a, Jump):
        return out if a.target == b.target else None
    if isinstance(a, Call):
        same = (a.callee == b.callee and a.dst == b.dst
                and a.args == b.args and a.reg_uses == b.reg_uses
                and a.reg_defs == b.reg_defs)
        return out if same else None
    if isinstance(a, Ret):
        return out if a.src == b.src and a.reg_uses == b.reg_uses else None
    if isinstance(a, Phi):
        return out if a.dst == b.dst and a.incoming == b.incoming else None
    if isinstance(a, SpillLoad):
        return out if a.dst == b.dst and a.slot == b.slot else None
    if isinstance(a, SpillStore):
        return out if a.src == b.src and a.slot == b.slot else None
    return None


def _targets(blk) -> tuple[str, ...]:
    if not blk.instrs:
        return ()
    return tuple(blk.instrs[-1].block_targets())


def diff_functions(base: Function, new: Function) -> FunctionDelta:
    """The :class:`FunctionDelta` turning ``base`` into ``new``.

    Registers must be identical; structure-preserving
    constant/opcode/offset changes are reported as
    :class:`ValueEdit`\\ s.  Neither input is mutated.
    """
    with phase("diff"):
        return _diff_functions(base, new)


def _diff_functions(base: Function, new: Function) -> FunctionDelta:
    if base.name != new.name or base.params != new.params:
        return FunctionDelta(consistent=False)

    base_blocks = {blk.label: blk for blk in base.blocks}
    new_blocks = {blk.label: blk for blk in new.blocks}
    added = frozenset(new_blocks) - set(base_blocks)
    removed = frozenset(base_blocks) - set(new_blocks)
    touched: set[str] = set()
    edits: list[ValueEdit] = []
    changed_edges = bool(added or removed)
    if base.blocks and new.blocks \
            and base.blocks[0].label != new.blocks[0].label:
        changed_edges = True

    for blk in new.blocks:
        label = blk.label
        old_blk = base_blocks.get(label)
        if old_blk is None:
            continue
        if _targets(old_blk) != _targets(blk):
            changed_edges = True
        if len(old_blk.instrs) != len(blk.instrs):
            touched.add(label)
            continue
        block_edits: list[ValueEdit] = []
        for i, (a, b) in enumerate(zip(old_blk.instrs, blk.instrs)):
            got = _raw_edits(a, b, label, i)
            if got is None:
                touched.add(label)
                break
            block_edits.extend(got)
        else:
            edits.extend(block_edits)

    return FunctionDelta(
        touched_blocks=frozenset(touched),
        added_blocks=added,
        removed_blocks=removed,
        changed_edges=changed_edges,
        value_edits=tuple(edits),
    )
