"""SSA construction, destruction, DCE: invariants plus semantics."""

from repro.cfg.analysis import build_cfg
from repro.ir.clone import clone_function
from repro.ir.instructions import Move, Phi
from repro.ir.parser import parse_function, parse_module
from repro.ir.validate import validate_function
from repro.sim.interp import run_function
from repro.sim.ops import Memory
from repro.ssa.construct import to_ssa
from repro.ssa.dce import eliminate_dead_code
from repro.ssa.destruct import from_ssa, split_critical_edges

from conftest import (
    build_call_heavy,
    build_counted_loop,
    build_diamond,
    build_straightline,
)


def phis_of(func):
    return [i for _, i in func.instructions() if isinstance(i, Phi)]


def same_semantics(before, after, args):
    ref = run_function(clone_function(before), args, memory=Memory())
    got = run_function(clone_function(after), args, memory=Memory())
    assert ref.value == got.value


class TestConstruction:
    def test_diamond_gets_one_phi(self):
        func = build_diamond()
        to_ssa(func)
        validate_function(func, ssa=True)
        assert len(phis_of(func)) == 1
        (phi,) = phis_of(func)
        assert set(phi.incoming) == {"then", "else_"}

    def test_loop_gets_phis_for_carried_values(self):
        func = build_counted_loop()
        to_ssa(func)
        validate_function(func, ssa=True)
        head_phis = func.block("head").phis()
        assert len(head_phis) == 2  # counter and accumulator

    def test_straightline_needs_no_phis(self):
        func = build_straightline()
        to_ssa(func)
        validate_function(func, ssa=True)
        assert not phis_of(func)

    def test_params_renamed(self):
        func = build_diamond()
        old_params = list(func.params)
        to_ssa(func)
        assert func.params != old_params

    def test_pruned_no_dead_phis(self):
        # A variable assigned in both arms but never used afterwards
        # must not get a phi.
        from repro.ir.builder import IRBuilder
        from repro.ir.values import Const

        b = IRBuilder("f", n_params=1)
        dead = b.const(0)
        cond = b.binop("cmplt", b.param(0), Const(5))
        b.branch(cond, "t", "e")
        b.block("t")
        b.const(1, dst=dead)
        b.jump("m")
        b.block("e")
        b.const(2, dst=dead)
        b.jump("m")
        b.block("m")
        b.ret(b.param(0))
        func = b.finish()
        to_ssa(func)
        assert not phis_of(func)

    def test_semantics_preserved(self):
        for build, args in [
            (build_diamond, [3, 9]),
            (build_counted_loop, [7]),
            (build_call_heavy, [2, 5]),
        ]:
            before = build()
            after = clone_function(before)
            to_ssa(after)
            same_semantics(before, after, args)

    def test_use_def_same_instruction(self):
        from repro.ir.builder import IRBuilder
        from repro.ir.values import Const

        b = IRBuilder("f", n_params=1)
        v = b.move(b.param(0))
        b.binop("add", v, Const(1), dst=v)  # v = v + 1
        b.ret(v)
        func = b.finish()
        to_ssa(func)
        validate_function(func, ssa=True)
        add = func.entry.instrs[1]
        assert add.dst != add.lhs  # the two occurrences renamed apart


class TestDestruction:
    def test_no_phis_remain(self):
        func = build_diamond()
        to_ssa(func)
        from_ssa(func)
        assert not phis_of(func)
        validate_function(func)

    def test_copies_inserted(self):
        func = build_diamond()
        to_ssa(func)
        n_before = func.instruction_count()
        from_ssa(func)
        moves = [i for _, i in func.instructions() if isinstance(i, Move)]
        # one carrier copy per phi arm plus one at the phi site
        assert len(moves) >= 3
        assert func.instruction_count() > n_before

    def test_roundtrip_semantics(self):
        for build, args in [
            (build_diamond, [3, 9]),
            (build_diamond, [9, 3]),
            (build_counted_loop, [7]),
            (build_call_heavy, [2, 5]),
        ]:
            before = build()
            after = clone_function(before)
            to_ssa(after)
            from_ssa(after)
            same_semantics(before, after, args)

    def test_critical_edge_split(self):
        from repro.ir.builder import IRBuilder
        from repro.ir.values import Const

        # entry branches to (loop head, exit); the loop head has two
        # preds -> the entry->head edge is critical.
        b = IRBuilder("f", n_params=1)
        cond = b.binop("cmplt", b.param(0), Const(5))
        b.branch(cond, "head", "exit")
        b.block("head")
        c2 = b.binop("cmplt", b.param(0), Const(3))
        b.branch(c2, "head", "exit")
        b.block("exit")
        b.ret(b.param(0))
        func = b.finish()
        n_blocks = len(func.blocks)
        split = split_critical_edges(func)
        assert split >= 3
        assert len(func.blocks) == n_blocks + split
        validate_function(func)

    def test_split_skips_a_label_already_in_use(self):
        func = parse_function(DOTTED_CLIENT)
        assert split_critical_edges(func) == 1
        assert [blk.label for blk in func.blocks] == [
            "entry", "entry.join.1", "entry.join.2", "join"]
        assert func.entry.terminator.iftrue == "entry.join.2"
        validate_function(func)

    def test_client_label_like_a_split_label_allocates(self):
        from repro.regalloc.verify import verify_allocation
        from repro.service import AllocationRequest, MachineSpec
        from repro.service.scheduler import execute_request

        machine = MachineSpec(regs=8)
        response = execute_request(AllocationRequest(
            id="dotted", ir=DOTTED_CLIENT, machine=machine))
        assert response.ok and response.result_digest
        (func,) = parse_module(response.code).functions
        verify_allocation(func, machine.build())


#: entry branches to ``join`` directly and through ``entry.join.1``, the
#: label the splitter would mint for the critical edge entry -> join
DOTTED_CLIENT = """func f(%p0) -> value {
entry:
  branch %p0, join, entry.join.1
entry.join.1:
  jump join
join:
  ret %p0
}"""


class TestDCE:
    def test_removes_dead_arithmetic(self):
        from repro.ir.builder import IRBuilder
        from repro.ir.values import Const

        b = IRBuilder("f", n_params=1)
        b.add(b.param(0), Const(1))  # dead
        live = b.add(b.param(0), Const(2))
        b.ret(live)
        func = b.finish()
        to_ssa(func)
        removed = eliminate_dead_code(func)
        assert removed >= 1

    def test_keeps_stores_and_calls(self):
        func = build_call_heavy()
        to_ssa(func)
        from repro.ir.instructions import Call

        calls_before = sum(isinstance(i, Call)
                           for _, i in func.instructions())
        eliminate_dead_code(func)
        calls_after = sum(isinstance(i, Call)
                          for _, i in func.instructions())
        assert calls_before == calls_after

    def test_drops_dead_call_result(self):
        from repro.ir.builder import IRBuilder

        b = IRBuilder("f", n_params=1)
        b.call("helper", [b.param(0)], returns=True)  # result unused
        b.ret(b.param(0))
        func = b.finish()
        to_ssa(func)
        eliminate_dead_code(func)
        from repro.ir.instructions import Call

        (call,) = [i for _, i in func.instructions()
                   if isinstance(i, Call)]
        assert call.dst is None

    def test_cyclic_dead_phis_removed(self):
        # A loop-carried value never observed outside the loop.
        from repro.ir.builder import IRBuilder
        from repro.ir.values import Const

        b = IRBuilder("f", n_params=1)
        dead = b.const(1)
        i = b.const(0)
        b.jump("head")
        b.block("head")
        b.binop("add", dead, dead, dst=dead)  # only feeds itself
        b.binop("add", i, Const(1), dst=i)
        cond = b.binop("cmplt", i, Const(3))
        b.branch(cond, "head", "exit")
        b.block("exit")
        b.ret(b.param(0))
        func = b.finish()
        to_ssa(func)
        eliminate_dead_code(func)
        adds = [i for _, i in func.instructions()
                if getattr(i, "op", None) == "add"]
        assert len(adds) == 1  # only the induction variable's add survives

    def test_semantics_preserved(self):
        before = build_call_heavy()
        after = clone_function(before)
        to_ssa(after)
        eliminate_dead_code(after)
        same_semantics(before, after, [4, 6])
