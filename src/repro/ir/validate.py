"""IR well-formedness checks.

``validate_function`` enforces the structural invariants every pass relies
on.  It is deliberately strict: analyses and allocators assume these hold
and do not re-check them.
"""

from __future__ import annotations

from repro.errors import IRValidationError
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Call, Load, Move, Phi, Ret, UnaryOp
from repro.ir.values import Const, PReg, VReg

__all__ = ["validate_function", "validate_module"]


def validate_function(func: Function, ssa: bool = False) -> None:
    """Raise :class:`IRValidationError` unless ``func`` is well formed.

    Checks:

    * every block ends with exactly one terminator (and none mid-block),
    * branch targets resolve to existing blocks,
    * block labels are unique,
    * phis lead their block and have one incoming per CFG predecessor,
    * operand register classes are consistent per instruction,
    * with ``ssa=True``: every virtual register has at most one definition.
    """
    labels = [blk.label for blk in func.blocks]
    if len(labels) != len(set(labels)):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        raise IRValidationError(f"{func.name}: duplicate block labels {dupes}")
    if not func.blocks:
        raise IRValidationError(f"{func.name}: function has no blocks")

    label_set = set(labels)
    preds: dict[str, set[str]] = {l: set() for l in labels}

    for blk in func.blocks:
        if not blk.instrs or not blk.instrs[-1].is_terminator:
            raise IRValidationError(
                f"{func.name}/{blk.label}: block does not end in a terminator"
            )
        for instr in blk.instrs[:-1]:
            if instr.is_terminator:
                raise IRValidationError(
                    f"{func.name}/{blk.label}: terminator {instr} mid-block"
                )
        for target in blk.successors():
            if target not in label_set:
                raise IRValidationError(
                    f"{func.name}/{blk.label}: branch to unknown block "
                    f"{target!r}"
                )
            preds[target].add(blk.label)

    for blk in func.blocks:
        seen_non_phi = False
        for instr in blk.instrs:
            if isinstance(instr, Phi):
                if seen_non_phi:
                    raise IRValidationError(
                        f"{func.name}/{blk.label}: phi {instr} does not lead "
                        f"its block"
                    )
                if set(instr.incoming) != preds[blk.label]:
                    raise IRValidationError(
                        f"{func.name}/{blk.label}: phi {instr} incoming "
                        f"labels {sorted(instr.incoming)} != predecessors "
                        f"{sorted(preds[blk.label])}"
                    )
            else:
                seen_non_phi = True
            _check_classes(func, blk.label, instr)

    if ssa:
        _check_single_assignment(func)


def _check_classes(func: Function, label: str, instr) -> None:
    """Per-instruction register-class consistency."""
    if isinstance(instr, Call) and not instr.lowered:
        return  # argument classes are callee-defined until lowering
    if isinstance(instr, Ret):
        return
    defs = instr.defs()
    if isinstance(instr, Move):
        if instr.dst.rclass is not instr.src.rclass:
            raise IRValidationError(
                f"{func.name}/{label}: move mixes classes: {instr}"
            )
    elif isinstance(instr, BinOp) and not instr.op.startswith("cmp"):
        want = defs[0].rclass
        for operand in instr.uses():
            if not isinstance(operand, Const) and operand.rclass is not want:
                raise IRValidationError(
                    f"{func.name}/{label}: binop mixes classes: {instr}"
                )
    elif isinstance(instr, UnaryOp) and instr.op in ("neg", "not", "zext8", "fneg"):
        operand = instr.src
        if not isinstance(operand, Const) and operand.rclass is not defs[0].rclass:
            raise IRValidationError(
                f"{func.name}/{label}: unary mixes classes: {instr}"
            )
    elif isinstance(instr, Load) and instr.width == "byte":
        if defs[0].rclass.value != "int":
            raise IRValidationError(
                f"{func.name}/{label}: byte load into non-int register: {instr}"
            )


def _check_single_assignment(func: Function) -> None:
    defined: set[VReg] = set(func.params)
    for blk in func.blocks:
        for instr in blk.instrs:
            for d in instr.defs():
                if isinstance(d, PReg):
                    continue
                if d in defined:
                    raise IRValidationError(
                        f"{func.name}: SSA violation, {d} defined twice "
                        f"(second at {instr} in {blk.label})"
                    )
                defined.add(d)


def validate_module(module, ssa: bool = False) -> None:
    """Validate every function in a module."""
    for func in module.functions:
        validate_function(func, ssa=ssa)
