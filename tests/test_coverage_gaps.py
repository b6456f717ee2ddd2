"""Focused tests for corners the broader suites pass over: printer
annotations, CPG traversal helpers, interpreter float/byte paths, CLI
error handling, dominance queries, and the chain-CPG ablation hook."""

import io

from repro.cli import main as cli_main
from repro.core import PreferenceDirectedAllocator
from repro.core import allocator as core_allocator
from repro.core.cpg import BOTTOM, TOP, chain_cpg as build_chain
from repro.ir.builder import IRBuilder
from repro.ir.printer import format_assignment, print_function
from repro.ir.values import Const, PReg, RegClass, VReg
from repro.pipeline import prepare_function
from repro.regalloc import allocate_function
from repro.regalloc.igraph import AllocGraph
from repro.sim.interp import run_function
from repro.sim.ops import Memory
from repro.target.presets import make_machine
from repro.workloads.generator import generate_function
from repro.workloads.profiles import BenchmarkProfile

from conftest import build_diamond
from cpg_queries import any_topological_order
from oracles import check_cpg_preds


def chain_cpg(*stack):
    """The chain CPG of a simplification stack over an edgeless graph
    (colored in pop order: the stack reversed)."""
    n = len(stack)
    graph = AllocGraph(rclass=RegClass.INT, k=2, colors=(),
                       nodes=list(stack),
                       ids={node: i for i, node in enumerate(stack)},
                       rows=[0] * n, active=(1 << n) - 1, deg=[0] * n)
    return build_chain(graph, stack[::-1])


class TestPrinterExtras:
    def test_instruction_annotations(self):
        func = build_diamond()
        text = print_function(
            func,
            annotate_instr=lambda i: "move!" if i.is_move else "",
        )
        assert "; move!" not in text or text.count("; move!") >= 1

    def test_block_annotations(self):
        func = build_diamond()
        text = print_function(
            func, annotate_block=lambda blk: f"{len(blk.instrs)} instrs"
        )
        assert "; 1 instrs" in text or "instrs" in text

    def test_format_assignment_lines(self):
        table = {VReg(0, name="a"): PReg(1), VReg(1, name="b"): PReg(2)}
        text = format_assignment(table, per_line=1)
        assert "%a -> $r1" in text
        assert len(text.splitlines()) == 2


class TestChainCPG:
    def test_chain_preserves_stack_order(self):
        a, b, c = VReg(0, name="a"), VReg(1, name="b"), VReg(2, name="c")
        cpg = chain_cpg(a, b, c)
        # select order (pop) is c, b, a -> chain top->c->b->a->bottom
        assert cpg.succs[TOP] == {c}
        assert cpg.succs[c] == {b}
        assert cpg.succs[b] == {a}
        assert BOTTOM in cpg.succs[a]

    def test_empty_stack(self):
        cpg = chain_cpg()
        assert cpg.succs.get(TOP) == set()

    def test_any_topological_order_covers_all(self):
        a, b = VReg(0, name="a"), VReg(1, name="b")
        order = any_topological_order(chain_cpg(a, b))
        assert order == [b, a]

    def test_predecessors_mirror_successors(self):
        a, b, c = VReg(0, name="a"), VReg(1, name="b"), VReg(2, name="c")
        assert check_cpg_preds(chain_cpg(a, b, c)) == []

    def test_ablation_chains_have_consistent_predecessors(self,
                                                          monkeypatch):
        real = core_allocator.chain_cpg
        built = []

        def checked(graph, order):
            cpg = real(graph, order)
            built.append(cpg)
            assert check_cpg_preds(cpg) == []
            return cpg

        monkeypatch.setattr(core_allocator, "chain_cpg", checked)
        machine = make_machine(8)
        func = prepare_function(generate_function("gaps", BenchmarkProfile(
            name="gaps", stmts=16, int_pool=6, max_params=2,
            max_call_args=2), 3), machine)
        allocate_function(func, machine,
                          PreferenceDirectedAllocator(use_cpg=False))
        assert built and any(cpg.succ[i] for cpg in built
                             for i in range(len(cpg.nodes)))


class TestInterpreterPaths:
    def test_float_arithmetic_flow(self):
        b = IRBuilder("f", n_params=0)
        x = b.const(1.5, RegClass.FLOAT)
        y = b.const(2.5, RegClass.FLOAT)
        s = b.binop("fmul", x, y)
        t = b.unary("ftoi", s, rclass=RegClass.INT)
        b.ret(t)
        assert run_function(b.finish()).value == 3

    def test_byte_load_masks_memory(self):
        b = IRBuilder("f", n_params=1)
        v = b.load(b.param(0), 0, width="byte")
        b.ret(v)
        memory = Memory()
        memory.write(400, 0xABC)
        got = run_function(b.finish(), [400], memory=memory)
        assert got.value == 0xBC

    def test_store_then_load_roundtrip(self):
        b = IRBuilder("f", n_params=1)
        b.store(b.param(0), 8, Const(1234))
        v = b.load(b.param(0), 8)
        b.ret(v)
        assert run_function(b.finish(), [64], memory=Memory()).value == 1234

    def test_shift_and_mask_ops(self):
        b = IRBuilder("f", n_params=1)
        x = b.binop("shl", b.param(0), Const(3))
        y = b.binop("and", x, Const(0xFF))
        z = b.unary("not", y)
        w = b.unary("neg", z)
        b.ret(w)
        # p0=5 -> shl 3 = 40 -> and 0xFF = 40 -> not = -41 -> neg = 41
        assert run_function(b.finish(), [5]).value == 41


class TestCLIErrors:
    def test_parse_error_returns_one(self, tmp_path):
        bad = tmp_path / "bad.ir"
        bad.write_text("this is not ir")
        out = io.StringIO()
        assert cli_main(["alloc", str(bad)], out=out) == 1

    def test_missing_file_exits_cleanly(self, tmp_path, capsys):
        # Unreadable input is a CLI error (exit 1 + stderr message),
        # not a traceback.
        assert cli_main(["alloc", str(tmp_path / "nope.ir")],
                        out=io.StringIO()) == 1
        assert "error:" in capsys.readouterr().err


class TestDominanceQueries:
    def test_dominates_along_linear_chain(self):
        b = IRBuilder("f", n_params=0)
        b.jump("m")
        b.block("m")
        b.jump("x")
        b.block("x")
        b.ret()
        from repro.cfg.analysis import build_cfg
        from repro.cfg.dominance import compute_dominance

        dom = compute_dominance(build_cfg(b.finish()))
        assert dom.dominates("entry", "x")
        assert dom.dominates("m", "x")
        assert not dom.dominates("x", "m")

    def test_unreachable_blocks_excluded(self):
        from repro.cfg.analysis import build_cfg
        from repro.cfg.dominance import compute_dominance
        from repro.ir.function import BasicBlock, Function
        from repro.ir.instructions import Jump, Ret

        func = Function("f", blocks=[
            BasicBlock("entry", [Ret()]),
            BasicBlock("island", [Jump("entry")]),
        ])
        dom = compute_dominance(build_cfg(func))
        assert "island" not in dom.idom
        assert "island" not in dom.frontier


class TestMachineDescribe:
    def test_figure7_description(self):
        from repro.target.presets import figure7_machine

        text = figure7_machine().describe()
        assert "$r1" in text and "non-volatile" in text
        assert "K=3" in text
