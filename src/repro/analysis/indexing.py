"""Dense per-function register indexing for bitset dataflow kernels.

All dataflow-heavy analyses (liveness, interference) run over Python
integers used as bitsets: every :class:`~repro.ir.values.Register` that
occurs in a function gets a small dense id, sets of registers become int
masks, and set algebra becomes single machine-word-per-64-registers
``&``/``|``/``~`` operations.

Ids are assigned in *first-encounter order* of a deterministic walk
(parameters, then instructions in block order), so the same function —
or two identical clones of it — produces the same index in every
process.  Nothing here depends on hash order.
"""

from __future__ import annotations

from itertools import compress

from repro.ir.values import PReg, RegClass, Register

__all__ = ["RegisterIndex", "iter_bits", "regs_in"]

#: ``bytes.translate`` table turning the digits of ``format(m, "b")``
#: into 0/1 bytes (usable as :func:`itertools.compress` selectors)
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def regs_in(regs: list, mask: int) -> list:
    """The entries of ``regs`` at the set bits of ``mask``, in id order.

    The mask's binary digits, lowest first, become one 0/1 byte per
    register, and ``compress`` picks the set ones: the per-bit loop
    runs in C rather than once per bit in Python.
    """
    flags = format(mask, "b").encode()[::-1].translate(_DIGIT_FLAGS)
    return list(compress(regs, flags))


class RegisterIndex:
    """Bidirectional Register <-> dense-int mapping plus group masks."""

    __slots__ = ("ids", "regs", "int_mask", "float_mask", "preg_mask")

    def __init__(self) -> None:
        self.ids: dict[Register, int] = {}
        self.regs: list[Register] = []
        #: masks over all indexed registers, by class / physicality
        self.int_mask: int = 0
        self.float_mask: int = 0
        self.preg_mask: int = 0

    def __len__(self) -> int:
        return len(self.regs)

    def add(self, reg: Register) -> int:
        """Id of ``reg``, assigning the next dense id on first sight."""
        idx = self.ids.get(reg)
        if idx is None:
            idx = len(self.regs)
            self.ids[reg] = idx
            self.regs.append(reg)
            bit = 1 << idx
            if reg.rclass is RegClass.INT:
                self.int_mask |= bit
            else:
                self.float_mask |= bit
            if isinstance(reg, PReg):
                self.preg_mask |= bit
        return idx

    def bit_of(self, reg: Register) -> int:
        """``1 << id``, indexing ``reg`` on demand."""
        return 1 << self.add(reg)

    def class_mask(self, reg: Register) -> int:
        """Mask of all indexed registers sharing ``reg``'s class."""
        return self.int_mask if reg.rclass is RegClass.INT else self.float_mask

    def set_of(self, mask: int) -> set[Register]:
        """Materialize a mask back into a ``set[Register]``, inserting
        in dense-id order (see :func:`regs_in`)."""
        return set(regs_in(self.regs, mask))
