"""Parser for the textual IR syntax produced by the printer.

The concrete syntax is exactly what ``str(Function)`` emits, so IR can be
round-tripped (used by the test suite and handy for writing compact test
fixtures as strings).  Named physical registers are not parseable; use the
``$r<i>`` / ``$fr<i>`` forms.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    ConstInst,
    Jump,
    Load,
    Move,
    Phi,
    Ret,
    SpillLoad,
    SpillStore,
    Store,
    UnaryOp,
    COMPARE_OPS,
    FLOAT_BINOPS,
    INT_BINOPS,
    UNARY_OPS,
)
from repro.ir.values import Const, PReg, RegClass, Value, VReg

__all__ = ["parse_function", "parse_module"]

_FUNC_RE = re.compile(r"^func\s+(\w+)\(([^)]*)\)(\s*->\s*value)?\s*\{$")
_LABEL_RE = re.compile(r"^(\w+):(\s*;.*)?$")
_VREG_FLOAT_RE = re.compile(r"^%f\d+$")
_PREG_RE = re.compile(r"^\$(fr|r)(\d+)$")
_LOAD_RE = re.compile(r"^load(\.b)?\s*\[(\S+?)\+(-?\d+)\]$")
_STORE_RE = re.compile(r"^store\s*\[(\S+?)\+(-?\d+)\]\s*=\s*(\S+)$")
_CALL_PRE_RE = re.compile(r"^call\s+(\w+)\((.*)\)$")
_CALL_POST_RE = re.compile(r"^call\s+(\w+)\s*\[(.*)\]$")
_PHI_RE = re.compile(r"^phi\s*\[(.*)\]$")
_RELOAD_RE = re.compile(r"^reload\s+slot(\d+)$")
_SPILL_RE = re.compile(r"^spill\s+slot(\d+)\s*=\s*(\S+)$")

_BINOPS = set(INT_BINOPS) | set(FLOAT_BINOPS) | set(COMPARE_OPS)
_UNOPS = set(UNARY_OPS)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.func: Function | None = None
        self.regs: dict[str, VReg] = {}

    # ------------------------------------------------------------------

    def _next_meaningful(self) -> tuple[int, str] | None:
        while self.pos < len(self.lines):
            lineno = self.pos + 1
            raw = self.lines[self.pos]
            self.pos += 1
            stripped = raw.split(";", 1)[0].strip()
            if stripped:
                return lineno, stripped
        return None

    def parse_function(self) -> Function:
        item = self._next_meaningful()
        if item is None:
            raise ParseError("expected function header, found end of input")
        lineno, line = item
        m = _FUNC_RE.match(line)
        if not m:
            raise ParseError(f"bad function header: {line!r}", lineno)
        name, params_text, returns = m.group(1), m.group(2), m.group(3)
        self.func = Function(name, returns_value=bool(returns))
        self.regs = {}
        for token in filter(None, (t.strip() for t in params_text.split(","))):
            reg = self._reg(token, lineno)
            if not isinstance(reg, VReg):
                raise ParseError(f"parameter must be virtual: {token}", lineno)
            self.func.params.append(reg)

        block: BasicBlock | None = None
        while True:
            item = self._next_meaningful()
            if item is None:
                raise ParseError("unterminated function (missing '}')")
            lineno, line = item
            if line == "}":
                break
            label = _LABEL_RE.match(line)
            if label:
                block = BasicBlock(label.group(1))
                self.func.blocks.append(block)
                continue
            if block is None:
                raise ParseError(f"instruction before any label: {line!r}",
                                 lineno)
            block.instrs.append(self._instr(line, lineno))
        return self.func

    # ------------------------------------------------------------------

    def _reg(self, token: str, lineno: int) -> VReg | PReg:
        token = token.strip()
        if token.startswith("%"):
            if token in self.regs:
                return self.regs[token]
            rclass = (RegClass.FLOAT if _VREG_FLOAT_RE.match(token)
                      else RegClass.INT)
            assert self.func is not None
            reg = self.func.new_vreg(rclass, name=token[1:])
            self.regs[token] = reg
            return reg
        m = _PREG_RE.match(token)
        if m:
            rclass = RegClass.FLOAT if m.group(1) == "fr" else RegClass.INT
            return PReg(int(m.group(2)), rclass)
        raise ParseError(f"bad register token {token!r}", lineno)

    def _value(self, token: str, lineno: int,
               rclass: RegClass = RegClass.INT) -> Value:
        token = token.strip()
        if token.startswith(("%", "$")):
            return self._reg(token, lineno)
        try:
            if "." in token or "e" in token.lower():
                return Const(float(token), RegClass.FLOAT)
            return Const(int(token), rclass)
        except ValueError:
            raise ParseError(f"bad value token {token!r}", lineno) from None

    def _instr(self, line: str, lineno: int):
        m = _STORE_RE.match(line)
        if m:
            return Store(self._value(m.group(1), lineno), int(m.group(2)),
                         self._value(m.group(3), lineno))
        m = _SPILL_RE.match(line)
        if m:
            return SpillStore(int(m.group(1)), self._value(m.group(2), lineno))
        m = _CALL_POST_RE.match(line)
        if m:
            uses = [self._reg(t, lineno)
                    for t in filter(None, (x.strip()
                                           for x in m.group(2).split(",")))]
            for u in uses:
                if not isinstance(u, PReg):
                    raise ParseError("lowered call uses must be physical",
                                     lineno)
            return Call(m.group(1), reg_uses=uses)
        if line.startswith("jump "):
            return Jump(line[5:].strip())
        if line.startswith("branch "):
            parts = [p.strip() for p in line[7:].split(",")]
            if len(parts) != 3:
                raise ParseError(f"bad branch: {line!r}", lineno)
            return Branch(self._value(parts[0], lineno), parts[1], parts[2])
        if line == "ret":
            return Ret()
        if line.startswith("ret ["):
            inner = line[len("ret ["):-1]
            uses = [self._reg(t, lineno)
                    for t in filter(None, (x.strip() for x in inner.split(",")))]
            return Ret(None, reg_uses=[u for u in uses if isinstance(u, PReg)])
        if line.startswith("ret "):
            return Ret(self._value(line[4:], lineno))
        if line.startswith("call "):
            return self._call_pre(line, lineno, dst=None)

        if "=" not in line:
            raise ParseError(f"unrecognized instruction {line!r}", lineno)
        dst_text, rhs = (s.strip() for s in line.split("=", 1))
        dst = self._reg(dst_text, lineno)
        return self._assign(dst, rhs, lineno)

    def _call_pre(self, rhs: str, lineno: int, dst):
        m = _CALL_PRE_RE.match(rhs)
        if not m:
            raise ParseError(f"bad call {rhs!r}", lineno)
        args = [self._value(t, lineno)
                for t in filter(None, (x.strip()
                                       for x in m.group(2).split(",")))]
        return Call(m.group(1), args, dst)

    def _assign(self, dst, rhs: str, lineno: int):
        m = _LOAD_RE.match(rhs)
        if m:
            width = "byte" if m.group(1) else "word"
            return Load(dst, self._value(m.group(2), lineno),
                        int(m.group(3)), width)
        m = _RELOAD_RE.match(rhs)
        if m:
            return SpillLoad(dst, int(m.group(1)))
        m = _PHI_RE.match(rhs)
        if m:
            incoming = {}
            for part in filter(None, (x.strip() for x in m.group(1).split(","))):
                if ":" not in part:
                    raise ParseError(f"bad phi arm {part!r}", lineno)
                label, val = (s.strip() for s in part.split(":", 1))
                incoming[label] = self._value(val, lineno, dst.rclass)
            return Phi(dst, incoming)
        if rhs.startswith("call "):
            return self._call_pre(rhs, lineno, dst)

        op, *rest = rhs.split(None, 1) or [""]
        if op in _BINOPS:
            operands = [t.strip() for t in rest[0].split(",")] if rest else []
            if len(operands) != 2:
                raise ParseError(f"binop needs two operands: {rhs!r}", lineno)
            return BinOp(op, dst,
                         self._value(operands[0], lineno, dst.rclass),
                         self._value(operands[1], lineno, dst.rclass))
        if op in _UNOPS:
            if not rest:
                raise ParseError(f"{op} needs an operand: {rhs!r}", lineno)
            return UnaryOp(op, dst, self._value(rest[0], lineno, dst.rclass))
        # Bare value: move (register source) or const materialization.
        value = self._value(rhs, lineno, dst.rclass)
        if isinstance(value, Const):
            return ConstInst(dst, value.value)
        return Move(dst, value)


def parse_function(text: str) -> Function:
    """Parse a single function from its textual form."""
    return _Parser(text).parse_function()


def parse_module(text: str, name: str = "module") -> Module:
    """Parse a module: a sequence of functions."""
    parser = _Parser(text)
    module = Module(name)
    while True:
        save = parser.pos
        probe = parser._next_meaningful()
        if probe is None:
            break
        parser.pos = save
        module.add(parser.parse_function())
    return module
