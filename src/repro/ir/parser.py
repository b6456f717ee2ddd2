"""Parser for the textual IR syntax produced by the printer.

The concrete syntax is exactly what ``str(Function)`` emits, so IR can be
round-tripped (used by the test suite and handy for writing compact test
fixtures as strings).  Named physical registers are not parseable; use the
``$r<i>`` / ``$fr<i>`` forms.

The parser makes one pass over the lines.  Each instruction line is
dispatched on its first character to the form its first word names
(``store``, ``spill``, ``call``, ``jump``, ``branch``, ``ret``, or a
register starting an assignment), and an assignment again on its
right-hand side's operator token.  Register and
constant tokens are interned per function, so each distinct token is
converted once.  Regular expressions are kept for the function header,
block labels and calls; every other form is taken apart with ``str``
methods (see DESIGN.md, "IR text").
"""

from __future__ import annotations

import re
from itertools import islice

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
#: block labels; dots appear in the labels edge splitting mints
_LABEL_RE = re.compile(r"[\w.]+:")
_CALL_PRE_RE = re.compile(r"^call\s+(\w+)\((.*)\)$")
_CALL_POST_RE = re.compile(r"^call\s+(\w+)\s*\[(.*)\]$")

_BINOPS = frozenset(INT_BINOPS + FLOAT_BINOPS + COMPARE_OPS)
_UNOPS = frozenset(UNARY_OPS)
_INT = RegClass.INT
_FLOAT = RegClass.FLOAT


def _bare(token: str) -> bool:
    """True when ``token`` is non-empty and holds no whitespace."""
    return token.split() == [token]


def _is_offset(text: str) -> bool:
    """True for an optionally negative run of decimal digits."""
    return text.isdecimal() or (text[:1] == "-" and text[1:].isdecimal())


def _address(inner: str) -> tuple[str, str] | None:
    """``(base, offset)`` of the text between an address's brackets.

    The offset follows the last ``+`` (it holds none itself); the base
    is everything before it and must be a single token.
    """
    base, plus, offset = inner.rpartition("+")
    if plus and _bare(base) and _is_offset(offset):
        return base, offset
    return None


def _store_fields(line: str) -> tuple[str, str, str] | None:
    """``(base, offset, src)`` of ``store [base+offset] = src``, else None.

    Whitespace may follow ``store`` and surround the ``=``, nowhere
    else.  The printer's spacing is read off the line's tokens.  Any
    other spacing is found by trying each ``]`` after ``store`` in
    turn, leftmost first, as the base token may itself contain one.
    """
    parts = line.split()
    if len(parts) == 4 and parts[0] == "store" and parts[2] == "=":
        addr = parts[1]
        if addr[0] == "[" and addr[-1] == "]":
            base, plus, offset = addr[1:-1].rpartition("+")
            if plus and base and (offset.isdecimal() or _is_offset(offset)):
                return base, offset, parts[3]
    body = line[5:].lstrip()
    if body[:1] != "[":
        return None
    close = 0
    while (close := body.find("]", close + 1)) > 0:
        addr = _address(body[1:close])
        if addr is None:
            continue
        rest = body[close + 1:].lstrip()
        if rest[:1] == "=" and _bare(src := rest[1:].lstrip()):
            return addr[0], addr[1], src
    return None


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.func: Function | None = None
        #: register token -> register
        self.regs: dict[str, VReg | PReg] = {}
        #: token -> value, for operands read in an INT (FLOAT) context;
        #: an integer literal takes the class of its context.  Only
        #: whitespace-free tokens are entered.
        self.ints: dict[str, Value] = {}
        self.floats: dict[str, Value] = {}

    # ------------------------------------------------------------------

    def _next_meaningful(self) -> tuple[int, str] | None:
        while self.pos < len(self.lines):
            lineno = self.pos + 1
            raw = self.lines[self.pos]
            self.pos += 1
            stripped = raw.partition(";")[0].strip()
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
        func = self.func = Function(name, returns_value=bool(returns))
        self.regs, self.ints, self.floats = {}, {}, {}
        for token in filter(None, (t.strip() for t in params_text.split(","))):
            reg = self._reg(token, lineno)
            if not isinstance(reg, VReg):
                raise ParseError(f"parameter must be virtual: {token}", lineno)
            func.params.append(reg)

        forms, assign = _FORMS, _Parser._assign
        instrs: list | None = None
        for lineno, line in enumerate(islice(self.lines, self.pos, None),
                                      self.pos + 1):
            if ";" in line:
                line = line.partition(";")[0]
            line = line.strip()
            if not line:
                continue
            if line == "}":
                self.pos = lineno
                return func
            if line[-1] == ":" and _LABEL_RE.fullmatch(line):
                block = BasicBlock(line[:-1])
                func.blocks.append(block)
                instrs = block.instrs
                continue
            if instrs is None:
                raise ParseError(f"instruction before any label: {line!r}",
                                 lineno)
            instrs.append(forms.get(line[0], assign)(self, line, lineno))
        self.pos = len(self.lines)
        raise ParseError("unterminated function (missing '}')")

    # ------------------------------------------------------------------

    def _reg(self, token: str, lineno: int) -> VReg | PReg:
        token = token.strip()
        reg = self.regs.get(token)
        if reg is not None:
            return reg
        if token.startswith("%"):
            rclass = (_FLOAT if token[1:2] == "f" and token[2:].isdecimal()
                      else _INT)
            assert self.func is not None
            reg = self.func.new_vreg(rclass, name=token[1:])
        elif token.startswith("$fr") and token[3:].isdecimal():
            reg = PReg(int(token[3:]), _FLOAT)
        elif token.startswith("$r") and token[2:].isdecimal():
            reg = PReg(int(token[2:]), _INT)
        else:
            raise ParseError(f"bad register token {token!r}", lineno)
        self.regs[token] = reg
        if _bare(token):
            self.ints[token] = self.floats[token] = reg
        return reg

    def _value(self, token: str, lineno: int,
               rclass: RegClass = _INT) -> Value:
        token = token.strip()
        table = self.ints if rclass is _INT else self.floats
        value = table.get(token)
        if value is not None:
            return value
        if token.startswith(("%", "$")):
            value = self._reg(token, lineno)
        else:
            try:
                if "." in token or "e" in token.lower():
                    value = Const(float(token), _FLOAT)
                else:
                    value = Const(int(token), rclass)
            except ValueError:
                raise ParseError(f"bad value token {token!r}",
                                 lineno) from None
        if _bare(token):
            table[token] = value
        return value

    # One method per first character of an instruction line (_FORMS).
    # A line that is not the form its first word names is read as an
    # assignment, which reports the error.

    def _store_or_spill(self, line: str, lineno: int):
        if line.startswith("store"):
            fields = _store_fields(line)
            if fields is not None:
                base, offset, src = fields
                ints = self.ints
                b = ints.get(base)
                if b is None:
                    b = self._value(base, lineno)
                s = ints.get(src)
                if s is None:
                    s = self._value(src, lineno)
                return Store(b, int(offset), s)
        elif line.startswith("spill"):
            slot, eq, src = line[5:].partition("=")
            slot = slot.strip()
            src = src.lstrip()
            if (eq and line[5:6].isspace() and slot[:4] == "slot"
                    and slot[4:].isdecimal() and _bare(src)):
                return SpillStore(int(slot[4:]), self._value(src, lineno))
        return self._assign(line, lineno)

    def _call_line(self, line: str, lineno: int):
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
        if line.startswith("call "):
            return self._call_pre(line, lineno, dst=None)
        return self._assign(line, lineno)

    def _jump(self, line: str, lineno: int):
        if line.startswith("jump "):
            return Jump(line[5:].strip())
        return self._assign(line, lineno)

    def _branch(self, line: str, lineno: int):
        if line.startswith("branch "):
            parts = [p.strip() for p in line[7:].split(",")]
            if len(parts) != 3:
                raise ParseError(f"bad branch: {line!r}", lineno)
            return Branch(self._value(parts[0], lineno), parts[1], parts[2])
        return self._assign(line, lineno)

    def _ret(self, line: str, lineno: int):
        if line == "ret":
            return Ret()
        if line.startswith("ret ["):
            inner = line[len("ret ["):-1]
            uses = [self._reg(t, lineno)
                    for t in filter(None, (x.strip() for x in inner.split(",")))]
            return Ret(None, reg_uses=[u for u in uses if isinstance(u, PReg)])
        if line.startswith("ret "):
            return Ret(self._value(line[4:], lineno))
        return self._assign(line, lineno)

    def _call_pre(self, rhs: str, lineno: int, dst):
        m = _CALL_PRE_RE.match(rhs)
        if not m:
            raise ParseError(f"bad call {rhs!r}", lineno)
        args = [self._value(t, lineno)
                for t in filter(None, (x.strip()
                                       for x in m.group(2).split(",")))]
        return Call(m.group(1), args, dst)

    def _assign(self, line: str, lineno: int):
        dst_text, eq, rhs = line.partition("=")
        if not eq:
            raise ParseError(f"unrecognized instruction {line!r}", lineno)
        dst_text = dst_text.rstrip()
        dst = self.regs.get(dst_text)
        if dst is None:
            dst = self._reg(dst_text, lineno)
        rclass = dst.rclass
        table = self.ints if rclass is _INT else self.floats
        rhs = rhs.strip()
        op, *rest = rhs.split(None, 1) or [""]

        if op in _BINOPS:
            lhs, comma, rhs_text = (rest[0].partition(",") if rest
                                    else ("", "", ""))
            if not comma or "," in rhs_text:
                raise ParseError(f"binop needs two operands: {rhs!r}", lineno)
            rhs_text = rhs_text.lstrip()
            a = table.get(lhs)
            if a is None:
                a = self._value(lhs, lineno, rclass)
            b = table.get(rhs_text)
            if b is None:
                b = self._value(rhs_text, lineno, rclass)
            return BinOp(op, dst, a, b)
        if op in _UNOPS:
            if not rest:
                raise ParseError(f"{op} needs an operand: {rhs!r}", lineno)
            return UnaryOp(op, dst, self._value(rest[0], lineno, rclass))
        if op.startswith("load"):
            tail = rhs[4:]
            byte = tail[:2] == ".b"
            tail = (tail[2:] if byte else tail).lstrip()
            if len(tail) > 1 and tail[0] == "[" and tail[-1] == "]":
                addr = _address(tail[1:-1])
                if addr is not None:
                    base = self.ints.get(addr[0])
                    if base is None:
                        base = self._value(addr[0], lineno)
                    return Load(dst, base, int(addr[1]),
                                "byte" if byte else "word")
        elif op == "reload":
            if rest and rest[0][:4] == "slot" and rest[0][4:].isdecimal():
                return SpillLoad(dst, int(rest[0][4:]))
        elif op.startswith("phi"):
            tail = rhs[3:].lstrip()
            if len(tail) > 1 and tail[0] == "[" and tail[-1] == "]":
                return Phi(dst, self._phi_arms(tail[1:-1], lineno, rclass))
        elif rhs.startswith("call "):
            return self._call_pre(rhs, lineno, dst)
        # Bare value: move (register source) or const materialization.
        value = table.get(rhs)
        if value is None:
            value = self._value(rhs, lineno, rclass)
        if isinstance(value, Const):
            return ConstInst(dst, value.value)
        return Move(dst, value)

    def _phi_arms(self, inner: str, lineno: int,
                  rclass: RegClass) -> dict[str, Value]:
        incoming = {}
        for part in filter(None, (x.strip() for x in inner.split(","))):
            label, colon, val = part.partition(":")
            if not colon:
                raise ParseError(f"bad phi arm {part!r}", lineno)
            incoming[label.strip()] = self._value(val, lineno, rclass)
        return incoming


#: an instruction line's first character -> the method reading it; any
#: other first character (in valid text, a register's) starts an
#: assignment
_FORMS = {
    "s": _Parser._store_or_spill,
    "c": _Parser._call_line,
    "j": _Parser._jump,
    "b": _Parser._branch,
    "r": _Parser._ret,
}


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
