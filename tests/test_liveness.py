"""Liveness dataflow, including phi edge semantics and physical registers."""

from oracles import instruction_liveness, live_across_instr, phi_uses_on_edge
from repro.analysis.liveness import compute_liveness
from repro.cfg.analysis import build_cfg
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Call, Jump, Move, Phi, Ret
from repro.ir.values import Const, PReg, VReg

from conftest import build_counted_loop, build_diamond


class TestBasicLiveness:
    def test_param_live_into_loop(self):
        func = build_counted_loop()
        liveness = compute_liveness(func)
        p0 = func.params[0]
        assert p0 in liveness.live_in["head"]
        assert p0 not in liveness.live_in["exit"]

    def test_loop_carried_values_live_around_backedge(self):
        func = build_counted_loop()
        liveness = compute_liveness(func)
        # The accumulator and counter are live out of the loop head
        # (they flow around the back edge).
        head_out = liveness.live_out["head"]
        assert len([v for v in head_out if v.rclass.value == "int"]) >= 2

    def test_diamond_branch_values(self):
        func = build_diamond()
        liveness = compute_liveness(func)
        p0, p1 = func.params
        assert p0 in liveness.live_in["then"]
        assert p1 in liveness.live_in["else_"]
        assert p0 not in liveness.live_in["merge"]

    def test_nothing_live_out_of_exit(self):
        func = build_diamond()
        liveness = compute_liveness(func)
        assert liveness.live_out["merge"] == set()


class TestPhiSemantics:
    def build_phi_func(self):
        a, b, c = VReg(10, name="a"), VReg(11, name="b"), VReg(12, name="c")
        func = Function("f", blocks=[
            BasicBlock("entry", [Move(a, VReg(1)), Jump("m")]),
            BasicBlock("side", [Move(b, VReg(2)), Jump("m")]),
            BasicBlock("m", [Phi(c, {"entry": a, "side": b}), Ret(c)]),
        ])
        return func, a, b, c

    def test_phi_arm_not_live_into_phi_block(self):
        func, a, b, c = self.build_phi_func()
        liveness = compute_liveness(func)
        assert a not in liveness.live_in["m"]
        assert b not in liveness.live_in["m"]

    def test_phi_arm_live_out_of_pred(self):
        func, a, b, c = self.build_phi_func()
        liveness = compute_liveness(func)
        assert a in liveness.live_out["entry"]

    def test_phi_uses_on_edge(self):
        func, a, b, c = self.build_phi_func()
        assert phi_uses_on_edge(func.block("m"), "entry") == {a}
        assert phi_uses_on_edge(func.block("m"), "side") == {b}

    def test_phi_dst_not_live_in(self):
        func, a, b, c = self.build_phi_func()
        liveness = compute_liveness(func)
        assert c not in liveness.live_in["m"]


class TestPhysicalRegisters:
    def test_arg_registers_live_to_call(self):
        r0 = PReg(0)
        func = Function("f", blocks=[BasicBlock("entry", [
            Move(r0, VReg(1)),
            Call("g", reg_uses=[r0]),
            Ret(),
        ])])
        after = instruction_liveness(func, compute_liveness(func))
        move = func.entry.instrs[0]
        assert r0 in after[id(move)]

    def test_return_register_live_to_ret(self):
        r0 = PReg(0)
        func = Function("f", blocks=[BasicBlock("entry", [
            Move(r0, VReg(1)),
            Ret(None, reg_uses=[r0]),
        ])])
        liveness = compute_liveness(func)
        assert r0 in liveness.use["entry"] or r0 in liveness.defs["entry"]


class TestInstructionLiveness:
    def test_value_dies_at_last_use(self):
        b = IRBuilder("f", n_params=1)
        t = b.add(b.param(0), Const(1))
        u = b.add(t, Const(2))
        b.ret(u)
        func = b.finish()
        after = instruction_liveness(func, compute_liveness(func))
        first, second, _ = func.entry.instrs
        assert t in after[id(first)]
        assert t not in after[id(second)]

    def test_live_across_instr_helper(self):
        func = build_counted_loop()
        liveness = compute_liveness(func)
        head = func.block("head")
        live = live_across_instr(liveness, head, 0)
        assert func.params[0] in live
