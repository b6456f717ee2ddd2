"""Post-allocation verifier.

Checks an :class:`~repro.regalloc.base.AllocationResult` (or any rewritten
function) against the invariants an allocation must satisfy:

* no virtual registers remain anywhere in the code;
* no two simultaneously-live values share a physical register — checked
  by re-running liveness on the *rewritten* code and asserting that every
  register is defined before use along the block-local scan (a register
  carrying two live values would manifest as a def clobbering a live
  value that is still used later under the same name, which the
  rewritten-code liveness cannot express; the stronger check is done by
  the machine interpreter in :mod:`repro.sim`);
* spill slots are used consistently (every reload's slot was stored to
  on some path — approximated as: stored to somewhere in the function);
* byte loads / register-file membership: every register mentioned
  belongs to the target's file of its class.

The decisive semantic check — pre- vs. post-allocation interpreters
producing identical results — lives in the test suite, since it needs
input values.
"""

from __future__ import annotations

from repro.analysis.interference import build_interference
from repro.analysis.liveness import compute_liveness
from repro.cfg.analysis import build_cfg
from repro.errors import AllocationVerifyError
from repro.ir.function import Function
from repro.ir.instructions import SpillLoad, SpillStore
from repro.ir.values import PReg, VReg
from repro.profiling import phase
from repro.target.machine import TargetMachine

__all__ = ["verify_allocation", "verify_assignment_against_interference"]


def verify_allocation(func: Function, machine: TargetMachine) -> None:
    """Structural checks on fully-rewritten code."""
    stored_slots: set[int] = set()
    loaded_slots: set[int] = set()
    # Membership through a set: PReg's hash agrees with its equality.
    members = {rclass: frozenset(regfile.regs)
               for rclass, regfile in machine.files.items()}
    for blk in func.blocks:
        for instr in blk.instrs:
            for reg in list(instr.defs()) + list(instr.used_regs()):
                if isinstance(reg, VReg):
                    raise AllocationVerifyError(
                        f"{func.name}/{blk.label}: virtual register {reg} "
                        f"survived allocation in {instr}"
                    )
                assert isinstance(reg, PReg)
                try:
                    regs = members[reg.rclass]
                except KeyError:  # no such file: TargetError, as before
                    regs = machine.file(reg.rclass).regs
                if reg not in regs:
                    raise AllocationVerifyError(
                        f"{func.name}: register {reg} not in the "
                        f"{reg.rclass.value} file of {machine.name}"
                    )
            if isinstance(instr, SpillStore):
                stored_slots.add(instr.slot)
            elif isinstance(instr, SpillLoad):
                loaded_slots.add(instr.slot)
    orphans = loaded_slots - stored_slots
    if orphans:
        raise AllocationVerifyError(
            f"{func.name}: reloads from never-written slots {sorted(orphans)}"
        )


def verify_assignment_against_interference(
    func: Function,
    assignment: dict[VReg, PReg],
) -> None:
    """Check a vreg->preg map against the *pre-rewrite* function.

    Every pair of interfering virtual registers must get distinct
    registers, and a virtual register interfering with a physical one
    must avoid it.  Call on the function *before* the final rewrite.
    """
    with phase("verify"):
        ig = build_interference(func, None,
                                compute_liveness(func, build_cfg(func)))
    for node in ig.vregs():
        color = assignment.get(node)
        if color is None:
            raise AllocationVerifyError(f"{func.name}: {node} unassigned")
        for neighbor in ig.neighbors(node):
            if isinstance(neighbor, PReg):
                if neighbor == color:
                    raise AllocationVerifyError(
                        f"{func.name}: {node} assigned {color} but "
                        f"interferes with that register"
                    )
            else:
                other = assignment.get(neighbor)
                if other == color:
                    raise AllocationVerifyError(
                        f"{func.name}: interfering {node} and {neighbor} "
                        f"share {color}"
                    )
