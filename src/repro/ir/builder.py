"""A small convenience layer for constructing IR by hand.

Used heavily by the tests and examples; the workload generator uses it
too.  The builder tracks a current block and appends instructions to it::

    b = IRBuilder("f", n_params=2)
    v = b.add(b.param(0), b.param(1))
    b.ret(v)
    func = b.finish()
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.function import BasicBlock, Function
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
    Store,
    UnaryOp,
)
from repro.ir.values import Const, RegClass, Register, Value, VReg

__all__ = ["IRBuilder"]


class IRBuilder:
    """Imperative construction of a :class:`~repro.ir.function.Function`."""

    def __init__(
        self,
        name: str,
        n_params: int = 0,
        param_classes: list[RegClass] | None = None,
        entry_label: str = "entry",
    ):
        self.func = Function(name)
        classes = param_classes or [RegClass.INT] * n_params
        if len(classes) != n_params:
            raise IRError("param_classes length must equal n_params")
        for i, rclass in enumerate(classes):
            self.func.params.append(self.func.new_vreg(rclass, name=f"p{i}"))
        self._block = BasicBlock(entry_label)
        self.func.blocks.append(self._block)

    # ------------------------------------------------------------------
    # block management

    @property
    def current(self) -> BasicBlock:
        return self._block

    def block(self, label: str) -> BasicBlock:
        """Create a new block and make it current."""
        if any(b.label == label for b in self.func.blocks):
            raise IRError(f"duplicate block label {label!r}")
        self._block = BasicBlock(label)
        self.func.blocks.append(self._block)
        return self._block

    def emit(self, instr: Instruction) -> Instruction:
        if self._block.terminator is not None:
            raise IRError(
                f"block {self._block.label} already terminated; "
                f"cannot append {instr}"
            )
        self._block.instrs.append(instr)
        return instr

    # ------------------------------------------------------------------
    # values

    def param(self, index: int) -> VReg:
        return self.func.params[index]

    def vreg(self, rclass: RegClass = RegClass.INT, name: str | None = None) -> VReg:
        return self.func.new_vreg(rclass, name)

    # ------------------------------------------------------------------
    # instruction helpers (each returns the destination register)

    def const(self, value: int | float, rclass: RegClass = RegClass.INT,
              dst: Register | None = None) -> Register:
        dst = dst or self.func.new_vreg(rclass)
        self.emit(ConstInst(dst, value))
        return dst

    def move(self, src: Register, dst: Register | None = None) -> Register:
        dst = dst or self.func.new_vreg(src.rclass)
        self.emit(Move(dst, src))
        return dst

    def unary(self, op: str, src: Value, dst: Register | None = None,
              rclass: RegClass | None = None) -> Register:
        if rclass is None:
            rclass = src.rclass if not isinstance(src, Const) else RegClass.INT
        dst = dst or self.func.new_vreg(rclass)
        self.emit(UnaryOp(op, dst, src))
        return dst

    def binop(self, op: str, lhs: Value, rhs: Value,
              dst: Register | None = None,
              rclass: RegClass | None = None) -> Register:
        if rclass is None:
            rclass = RegClass.FLOAT if op.startswith("f") else RegClass.INT
            if op.startswith("cmp"):
                rclass = RegClass.INT
        dst = dst or self.func.new_vreg(rclass)
        self.emit(BinOp(op, dst, lhs, rhs))
        return dst

    def add(self, lhs: Value, rhs: Value, dst: Register | None = None) -> Register:
        return self.binop("add", lhs, rhs, dst)

    def load(self, base: Value, offset: int = 0, width: str = "word",
             dst: Register | None = None,
             rclass: RegClass = RegClass.INT) -> Register:
        dst = dst or self.func.new_vreg(rclass)
        self.emit(Load(dst, base, offset, width))
        return dst

    def store(self, base: Value, offset: int, src: Value) -> None:
        self.emit(Store(base, offset, src))

    def call(self, callee: str, args: list[Value] | None = None,
             returns: bool = False,
             rclass: RegClass = RegClass.INT) -> Register | None:
        dst = self.func.new_vreg(rclass) if returns else None
        self.emit(Call(callee, list(args or []), dst))
        return dst

    def phi(self, incoming: dict[str, Value],
            dst: Register | None = None,
            rclass: RegClass = RegClass.INT) -> Register:
        dst = dst or self.func.new_vreg(rclass)
        if self._block.terminator is not None:
            raise IRError(f"block {self._block.label} already terminated")
        # Phis must lead the block.
        pos = len(self._block.phis())
        self._block.instrs.insert(pos, Phi(dst, dict(incoming)))
        return dst

    # ------------------------------------------------------------------
    # terminators

    def jump(self, target: str) -> None:
        self.emit(Jump(target))

    def branch(self, cond: Value, iftrue: str, iffalse: str) -> None:
        self.emit(Branch(cond, iftrue, iffalse))

    def ret(self, value: Value | None = None) -> None:
        if value is not None:
            self.func.returns_value = True
        self.emit(Ret(value))

    # ------------------------------------------------------------------

    def finish(self) -> Function:
        """Validate terminators and return the built function."""
        for blk in self.func.blocks:
            if blk.terminator is None:
                raise IRError(f"block {blk.label} lacks a terminator")
        return self.func
