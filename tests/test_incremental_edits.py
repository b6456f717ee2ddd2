"""Edit-driven incremental re-allocation: sessions, deltas, wire path.

The load-bearing property is *exactness*: every path through the
session ladder (value-patch, rebuild) must produce
byte-identical allocations to a from-scratch run.  The validate
harness (``tests/oracles.py``: :func:`validated_incremental`) checks
this after every edit — it rebuilds every analysis from scratch,
compares phase by phase (:func:`compare_analyses`), re-allocates, and
raises on any divergence — so the property tests below only need to
drive random edit chains through it and let the oracle check.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oracles import (
    OracleMismatch,
    scratch_incremental,
    validated_incremental,
)
import repro.service.session as session_module
from repro.core.allocator import PreferenceDirectedAllocator
from repro.core.pairs import WORD_SIZE, find_paired_loads
from repro.core.prefs import PreferenceConfig
from repro.errors import AllocationError
from repro.ir.clone import clone_function
from repro.ir.function import BasicBlock
from repro.ir.instructions import (
    COMPARE_OPS,
    FLOAT_BINOPS,
    INT_BINOPS,
    BinOp,
    ConstInst,
    Jump,
    Load,
    Store,
)
from repro.ir.parser import parse_module
from repro.ir.printer import print_function
from repro.ir.validate import validate_function
from repro.ir.values import Const, RegClass, VReg
from repro.pipeline import prepare_function
from repro.profiling import profiled
from repro.regalloc import (
    AllocationOptions,
    ChaitinAllocator,
    allocate_function,
)
from repro.service.session import (
    ModuleSession,
    SessionStore,
    allocate_function_incremental,
    session_digest,
)
from repro.target.presets import make_machine
from repro.workloads.generator import generate_function
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.suite import make_benchmark

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

profiles = st.builds(
    BenchmarkProfile,
    name=st.just("edit"),
    stmts=st.integers(6, 16),
    int_pool=st.integers(3, 7),
    float_pool=st.integers(0, 2),
    call_prob=st.floats(0.0, 0.25),
    branch_prob=st.floats(0.0, 0.3),
    loop_prob=st.floats(0.0, 0.25),
    max_loop_depth=st.integers(1, 2),
    paired_prob=st.floats(0.0, 0.4),
    load_prob=st.floats(0.0, 0.3),
    store_prob=st.floats(0.0, 0.2),
    max_params=st.integers(1, 2),
    max_call_args=st.integers(1, 2),
)


# ----------------------------------------------------------------------
# Random edit scripts.  Each op mutates a raw (unprepared) function in
# place and keeps it valid; ops that find no applicable site are no-ops.

def edit_modify_const(func, rng) -> bool:
    sites = [(blk, i) for blk in func.blocks
             for i, ins in enumerate(blk.instrs)
             if isinstance(ins, ConstInst)]
    if not sites:
        return False
    blk, i = rng.choice(sites)
    blk.instrs[i].value += rng.randrange(1, 9)
    return True


def edit_modify_operand_const(func, rng) -> bool:
    sites = [(blk, i) for blk in func.blocks
             for i, ins in enumerate(blk.instrs)
             if isinstance(ins, BinOp) and isinstance(ins.rhs, Const)
             and ins.rhs.rclass is RegClass.INT]
    if not sites:
        return False
    blk, i = rng.choice(sites)
    blk.instrs[i].rhs = Const(blk.instrs[i].rhs.value + rng.randrange(1, 5))
    return True


def edit_swap_opcode(func, rng) -> bool:
    groups = (INT_BINOPS, FLOAT_BINOPS, COMPARE_OPS)
    sites = [(ins, group) for blk in func.blocks for ins in blk.instrs
             if isinstance(ins, BinOp)
             for group in groups if ins.op in group]
    if not sites:
        return False
    ins, group = rng.choice(sites)
    ins.op = rng.choice([op for op in group if op != ins.op])
    return True


def edit_shift_offset(func, rng) -> bool:
    """Move a load/store by a word: can make or break a paired load."""
    sites = [ins for blk in func.blocks for ins in blk.instrs
             if isinstance(ins, (Load, Store))]
    if not sites:
        return False
    ins = rng.choice(sites)
    ins.offset += 4 if ins.offset < 4 else rng.choice((-4, 4))
    return True


def edit_insert_dead(func, rng) -> bool:
    blk = rng.choice(func.blocks)
    blk.instrs.insert(rng.randrange(len(blk.instrs)),
                      ConstInst(func.new_vreg(), rng.randrange(64)))
    return True


def edit_redefine(func, rng) -> bool:
    sites = [(blk, i, d) for blk in func.blocks
             for i, ins in enumerate(blk.instrs)
             for d in ins.defs()
             if isinstance(d, VReg) and d.rclass is RegClass.INT
             and not d.no_spill]
    if not sites:
        return False
    blk, i, d = rng.choice(sites)
    blk.instrs.insert(i + 1, BinOp("add", d, d, Const(rng.randrange(1, 8))))
    return True


def edit_delete_store(func, rng) -> bool:
    sites = [(blk, i) for blk in func.blocks
             for i, ins in enumerate(blk.instrs) if isinstance(ins, Store)]
    if not sites:
        return False
    blk, i = rng.choice(sites)
    del blk.instrs[i]
    return True


def edit_split_block(func, rng) -> bool:
    cands = [b for b in func.blocks if len(b.instrs) >= 2]
    if not cands:
        return False
    blk = rng.choice(cands)
    at = rng.randrange(1, len(blk.instrs))
    labels = {b.label for b in func.blocks}
    n = 0
    while f"split{n}" in labels:
        n += 1
    label = f"split{n}"
    tail = blk.instrs[at:]
    del blk.instrs[at:]
    blk.instrs.append(Jump(label))
    func.blocks.insert(func.blocks.index(blk) + 1, BasicBlock(label, tail))
    return True


def edit_merge_blocks(func, rng) -> bool:
    preds: dict[str, int] = {}
    for b in func.blocks:
        for t in b.instrs[-1].block_targets():
            preds[t] = preds.get(t, 0) + 1
    by_label = {b.label: b for b in func.blocks}
    entry = func.blocks[0].label
    cands = []
    for b in func.blocks:
        term = b.instrs[-1]
        if (isinstance(term, Jump) and term.target != b.label
                and term.target != entry and preds.get(term.target) == 1):
            cands.append((b, by_label[term.target]))
    if not cands:
        return False
    b, t = rng.choice(cands)
    b.instrs = b.instrs[:-1] + t.instrs
    func.blocks.remove(t)
    return True


#: edits the value rung absorbs (the diff classifies them transparent)
VALUE_EDIT_OPS = [
    edit_modify_const,
    edit_modify_operand_const,
    edit_swap_opcode,
    edit_shift_offset,
]

EDIT_OPS = [
    *VALUE_EDIT_OPS,
    edit_insert_dead,
    edit_redefine,
    edit_delete_store,
    edit_split_block,
    edit_merge_blocks,
]


#: ``on`` the production session ladder, ``off`` the from-scratch
#: oracle for every version, ``validate`` production checked against
#: the oracle after every edit
CHAIN_MODES = {
    "on": allocate_function_incremental,
    "off": scratch_incremental,
    "validate": validated_incremental,
}


def run_chain(versions, machine, mode, allocator=None):
    """Allocate each version through one session; returns the outputs."""
    allocator = allocator or ChaitinAllocator()
    options = AllocationOptions()
    step = CHAIN_MODES[mode]
    session, outs = None, []
    for func in versions:
        out = step(session, func, machine, allocator, options)
        session = out.session
        outs.append(out)
    return outs


class TestRandomEditScripts:
    @SLOW
    @given(profile=profiles, seed=st.integers(0, 5000),
           script=st.lists(st.integers(0, len(EDIT_OPS) - 1),
                           min_size=1, max_size=4))
    def test_validate_mode_accepts_random_chains(self, profile, seed,
                                                 script):
        """Retained analyses == rebuilt analyses, phase by phase, and the
        allocation is byte-identical — for every prefix of a random edit
        chain (validate mode raises on any divergence)."""
        base = generate_function("edit", profile, seed)
        rng = random.Random(seed ^ 0xED17)
        versions = [base]
        for op in script:
            nxt = clone_function(versions[-1])
            EDIT_OPS[op](nxt, rng)
            validate_function(nxt)
            versions.append(nxt)
        try:
            outs = run_chain(versions, make_machine(16), "validate")
        except AllocationError as err:
            if "pressure cannot be met" in str(err):
                assume(False)
            raise
        assert outs[0].path == "new"
        assert all(o.path in ("value", "rebuild")
                   for o in outs[1:])

    @SLOW
    @given(profile=profiles, seed=st.integers(0, 5000),
           script=st.lists(st.integers(0, len(EDIT_OPS) - 1),
                           min_size=1, max_size=3))
    def test_modes_agree_on_random_chains(self, profile, seed, script):
        """off/on chains print identically version for version."""
        base = generate_function("edit", profile, seed)
        rng = random.Random(seed)
        versions = [base]
        for op in script:
            nxt = clone_function(versions[-1])
            EDIT_OPS[op](nxt, rng)
            versions.append(nxt)
        machine = make_machine(16)
        try:
            on = run_chain(versions, machine, "on")
            off = run_chain(versions, machine, "off")
        except AllocationError as err:
            if "pressure cannot be met" in str(err):
                assume(False)
            raise
        from repro.service.protocol import stats_to_dict

        for a, b in zip(on, off):
            assert print_function(a.result.func) \
                == print_function(b.result.func)
            assert stats_to_dict(a.result.stats) \
                == stats_to_dict(b.result.stats)
            assert a.cycles.total == b.cycles.total


class TestModeAndBackendIdentity:
    """One deterministic chain through every session mode."""

    def versions(self):
        profile = BenchmarkProfile(name="edit", stmts=24, int_pool=6,
                                   float_pool=2, branch_prob=0.2,
                                   loop_prob=0.2, store_prob=0.12,
                                   paired_prob=0.3, max_params=2)
        base = generate_function("edit", profile, 7)
        rng = random.Random(7)
        versions = [base]
        for op in (edit_modify_const, edit_insert_dead, edit_split_block,
                   edit_redefine, edit_modify_const):
            nxt = clone_function(versions[-1])
            assert op(nxt, rng)
            validate_function(nxt)
            versions.append(nxt)
        return versions

    def test_identical_across_modes_and_backends(self):
        machine = make_machine(12)
        versions = self.versions()
        runs = {mode: [print_function(o.result.func)
                       for o in run_chain(versions, machine, mode)]
                for mode in ("off", "on", "validate")}
        for mode, got in runs.items():
            assert got == runs["off"], f"{mode} diverged from off"

    def test_paths_taken(self):
        outs = run_chain(self.versions(), make_machine(12), "on")
        # const edit -> value patch; dead insert / split / redefine ->
        # rebuild; final const edit -> value patch again.
        assert [o.path for o in outs] \
            == ["new", "value", "rebuild", "rebuild", "rebuild", "value"]


#: value edits round 0 cannot see (no load base or offset moves)
INVISIBLE_EDIT_OPS = [
    edit_modify_const,
    edit_modify_operand_const,
    edit_swap_opcode,
]


def value_chain(seed: int, steps: int = 8, ops=VALUE_EDIT_OPS):
    """A base function plus ``steps`` value-edited versions, cycling
    through ``ops``."""
    profile = BenchmarkProfile(name="edit", stmts=20, int_pool=6,
                               float_pool=2, branch_prob=0.2,
                               loop_prob=0.2, load_prob=0.3,
                               store_prob=0.15, paired_prob=0.4,
                               max_params=2)
    versions = [generate_function("edit", profile, seed)]
    rng = random.Random(seed)
    for step in range(steps):
        nxt = clone_function(versions[-1])
        ops[(seed + step) % len(ops)](nxt, rng)
        validate_function(nxt)
        versions.append(nxt)
    return versions


class TestColoringCarry:
    """The value rung carries each allocator's round-0 coloring."""

    @pytest.mark.parametrize("regs", [8, 24])
    @pytest.mark.parametrize("make_allocator",
                             [PreferenceDirectedAllocator, ChaitinAllocator],
                             ids=["full", "chaitin"])
    def test_validated_value_chains(self, make_allocator, regs):
        """Every version of a value-edit chain matches a from-scratch run
        (validate mode raises otherwise); at K=8 spill rounds run after
        a carried round 0."""
        machine = make_machine(regs)
        assert machine.has_paired_loads
        reused = spilling = 0
        for seed in range(6):
            outs = run_chain(value_chain(seed), machine, "validate",
                             make_allocator())
            assert [o.path for o in outs[1:]] == ["value"] * (len(outs) - 1)
            for out in outs[1:]:
                reused += out.coloring_reused
                spilling += out.coloring_reused and out.result.stats.rounds > 1
        assert reused
        if regs == 8:
            assert spilling

    def offset_edits(self):
        """``(function, edited copy)`` for each jess function with a
        paired load; the copy moves the pair's second load a word on."""
        for func in make_benchmark("jess").functions:
            pairs = find_paired_loads(func)
            if not pairs:
                continue
            blk = pairs[0].block
            index = blk.instrs.index(pairs[0].second)
            edited = clone_function(func)
            target = {b.label: b for b in edited.blocks}[blk.label]
            target.instrs[index].offset += WORD_SIZE
            yield func, edited

    def base_edits(self):
        """``(function, edited copy)`` pairs whose one edit moves a load
        to another constant address, breaking then making a pair (the
        generator only emits register bases)."""
        def version(second_base):
            ir = f"""func f(%p0, %p1) -> value {{
entry:
  %a = add %p0, %p1
  %x = load [100+0]
  %y = load [{second_base}+4]
  %s = add %x, %y
  %t = add %s, %a
  %u = add %t, %p0
  ret %u
}}
"""
            return parse_module(ir).functions[0]

        paired, apart = version(100), version(200)
        assert len(find_paired_loads(paired)) == 1
        assert not find_paired_loads(apart)
        yield paired, apart
        yield apart, paired

    @pytest.mark.parametrize("attr", ["offset", "base"])
    def test_visible_edit_drops_the_coloring(self, attr):
        machine = make_machine(16)
        allocator = PreferenceDirectedAllocator()
        options = AllocationOptions()
        edits = 0
        for func, edited in getattr(self, f"{attr}_edits")():
            base = allocate_function_incremental(None, func, machine,
                                                 allocator, options)
            out = validated_incremental(base.session, edited, machine,
                                        allocator, options)
            assert out.path == "value" and not out.coloring_reused
            edits += 1
        assert edits

    @pytest.mark.parametrize("attr", ["offset", "base"])
    def test_visible_edit_guard_bypassed_is_caught(self, monkeypatch, attr):
        """Carrying a coloring across a made or broken paired load is
        unsound; the scratch oracle must notice."""
        monkeypatch.setattr(session_module, "ROUND0_VISIBLE_EDITS",
                            frozenset())
        machine = make_machine(16)
        allocator = PreferenceDirectedAllocator()
        options = AllocationOptions()
        diverged = 0
        for func, edited in getattr(self, f"{attr}_edits")():
            base = allocate_function_incremental(None, func, machine,
                                                 allocator, options)
            try:
                out = validated_incremental(base.session, edited, machine,
                                            allocator, options)
            except OracleMismatch:
                diverged += 1
            else:
                assert out.coloring_reused
        assert diverged

    def test_carried_outcome_is_never_mutated(self):
        machine = make_machine(8)
        prepared = prepare_function(
            clone_function(make_benchmark("jess").functions[0]), machine)
        allocator = PreferenceDirectedAllocator()
        first = allocate_function(clone_function(prepared), machine,
                                  allocator)
        outcome = first.round0_outcome
        assert first.stats.rounds > 1  # spill rounds follow round 0

        def snapshot():
            return (dict(outcome.assignment), dict(outcome.alias),
                    set(outcome.spilled), outcome.coalesced_count,
                    outcome.biased_hits)

        before = snapshot()
        with profiled() as prof:
            again = allocate_function(clone_function(prepared), machine,
                                      allocator, round0_outcome=outcome)
        assert snapshot() == before
        assert again.round0_outcome is outcome
        # Round 0 is skipped; every spill round still colors.
        assert prof.snapshot()["color"]["calls"] == again.stats.rounds - 1
        assert print_function(again.func) == print_function(first.func)

    def test_memo_key_separates_allocator_configs(self):
        """``use_cpg=False`` keeps the default name; re-sending the same
        body with it must not return the default allocator's result."""
        func = make_benchmark("jess").functions[0]
        machine = make_machine(8)
        options = AllocationOptions()
        first = allocate_function_incremental(
            None, func, machine, PreferenceDirectedAllocator(), options)
        ablated = PreferenceDirectedAllocator(use_cpg=False)
        assert ablated.name == PreferenceDirectedAllocator().name
        again = allocate_function_incremental(first.session, func, machine,
                                              ablated, options)
        scratch = allocate_function_incremental(
            None, func, machine, PreferenceDirectedAllocator(use_cpg=False),
            options)
        assert print_function(again.result.func) \
            == print_function(scratch.result.func)
        assert print_function(again.result.func) \
            != print_function(first.result.func)

    def test_config_keys_tell_same_named_allocators_apart(self):
        variants = [
            PreferenceDirectedAllocator(),
            PreferenceDirectedAllocator(use_cpg=False),
            PreferenceDirectedAllocator(post_coalesce=True),
            PreferenceDirectedAllocator(keep_trace=True),
            PreferenceDirectedAllocator(PreferenceConfig(byte_loads=False)),
        ]
        assert len({a.name for a in variants}) == 1
        assert len({a.config_key() for a in variants}) == len(variants)
        assert ChaitinAllocator().config_key() \
            == ChaitinAllocator().config_key()
        assert ChaitinAllocator().config_key() \
            != ChaitinAllocator(biased=True).config_key()


def bump_const(func, nth: int, by: int):
    """A copy of ``func`` whose ``nth`` constant definition is raised by
    ``by``."""
    edited = clone_function(func)
    sites = [ins for blk in edited.blocks for ins in blk.instrs
             if isinstance(ins, ConstInst)]
    sites[nth].value += by
    return edited


class TestTailCarry:
    """A value advance patches the retained finished allocation instead
    of re-running the allocation tail (rewrite, cycle estimate)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Tail calls as :mod:`repro.service.session` makes them."""
        counts = {"allocate": 0, "cycles": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(session_module, "allocate_function",
                            counting("allocate",
                                     session_module.allocate_function))
        monkeypatch.setattr(session_module, "estimate_cycles",
                            counting("cycles",
                                     session_module.estimate_cycles))
        return counts

    @pytest.mark.parametrize("regs", [8, 24])
    @pytest.mark.parametrize("make_allocator",
                             [PreferenceDirectedAllocator, ChaitinAllocator],
                             ids=["full", "chaitin"])
    def test_value_advance_skips_the_tail(self, calls, make_allocator,
                                          regs):
        """Over a spill-free retained result a value advance allocates
        nothing and estimates no cycles; over one that spilled (K=8) it
        takes the full tail.  Every version matches a from-scratch run."""
        machine = make_machine(regs)
        allocator = make_allocator()
        options = AllocationOptions()
        carried = spilled = 0
        for seed in range(4):
            prev = None
            for func in value_chain(seed, 6, INVISIBLE_EDIT_OPS):
                before = dict(calls)
                out = validated_incremental(
                    prev.session if prev else None, func, machine,
                    allocator, options)
                ran = {key: calls[key] - before[key] for key in calls}
                if prev is not None and prev.result.stats.rounds == 1:
                    assert ran == {"allocate": 0, "cycles": 0}
                    assert out.result.stats is prev.result.stats
                    assert out.cycles is prev.cycles
                    carried += 1
                else:
                    assert ran == {"allocate": 1, "cycles": 1}
                    spilled += prev is not None
                if prev is not None:
                    assert out.path == "value" and out.coloring_reused
                prev = out
        assert carried
        if regs == 8:
            assert spilled

    def test_branches_leave_the_base_unchanged(self):
        """Two different value edits off one base both validate, and
        the base's retained allocation prints as before."""
        machine = make_machine(24)
        allocator = PreferenceDirectedAllocator()
        options = AllocationOptions()
        func = value_chain(0, 0)[0]
        base = allocate_function_incremental(None, func, machine,
                                             allocator, options)
        assert base.result.stats.rounds == 1
        before = print_function(base.result.func)
        texts = []
        for nth in (0, 2):  # two live constants (the second is dead)
            out = validated_incremental(base.session,
                                        bump_const(func, nth, 7), machine,
                                        allocator, options)
            assert out.result.stats is base.result.stats
            texts.append(print_function(out.result.func))
        assert len({before, *texts}) == 3
        assert print_function(base.result.func) == before

    def test_unrequested_allocator_queues_its_edits(self, calls):
        """An allocator skipped on some versions patches every queued
        edit when next requested, a later edit of a slot winning."""
        machine = make_machine(24)
        full, chaitin = PreferenceDirectedAllocator(), ChaitinAllocator()
        options = AllocationOptions()
        v0 = value_chain(1, 0)[0]
        v1 = bump_const(v0, 0, 3)
        v2 = bump_const(v1, 1, 5)
        v3 = bump_const(v2, 0, 4)
        session = allocate_function_incremental(None, v0, machine, full,
                                                options).session
        session = allocate_function_incremental(session, v0, machine,
                                                chaitin, options).session
        for func in (v1, v2):
            session = validated_incremental(session, func, machine, full,
                                            options).session
        assert calls["allocate"] == 2
        out = validated_incremental(session, v3, machine, chaitin, options)
        assert out.coloring_reused and calls["allocate"] == 2

    def test_tail_guard_bypassed_is_caught(self, monkeypatch):
        """Carrying a finished allocation past spill rounds is unsound:
        rematerialization copied the edited constant into new
        instructions the patch cannot reach.  The scratch oracle must
        notice."""
        machine = make_machine(8)
        options = AllocationOptions(rematerialize=True)

        def chain():
            prev = None
            for func in value_chain(6):
                prev = validated_incremental(
                    prev.session if prev else None, func, machine,
                    PreferenceDirectedAllocator(), options)

        chain()  # guarded: every version matches scratch
        monkeypatch.setattr(session_module, "_tail_carries",
                            lambda result: True)
        with pytest.raises(OracleMismatch):
            chain()


class TestSessionStore:
    def put(self, store, digest):
        store.put(digest, ModuleSession(digest=digest, machine_key="mk",
                                        functions={}))

    def test_lru_eviction(self):
        store = SessionStore(capacity=2)
        for d in ("a", "b", "c"):
            self.put(store, d)
        assert len(store) == 2
        assert store.get("a") is None
        assert store.get("c") is not None
        snap = store.snapshot()
        assert snap["evictions"] == 1

    def test_get_refreshes_recency(self):
        store = SessionStore(capacity=2)
        self.put(store, "a")
        self.put(store, "b")
        assert store.get("a") is not None
        self.put(store, "c")  # evicts b, not a
        assert store.get("a") is not None
        assert store.get("b") is None

    def test_machine_key_mismatch_is_miss(self):
        store = SessionStore(capacity=2)
        self.put(store, "a")
        assert store.get("a", machine_key="other") is None
        assert store.get("a", machine_key="mk") is not None

    def test_session_digest_normalization(self):
        from repro.service.protocol import MachineSpec

        machine = MachineSpec(regs=8).build()
        ir = "func f(%p0) -> value {\nentry:\n  ret %p0\n}"
        assert session_digest(ir, machine) == session_digest(ir, machine)
        assert session_digest(ir, machine) \
            != session_digest(ir.replace("%p0)", "%p1)"), machine)


IR = """func acc(%p0, %p1) -> value {
entry:
  %lim = 10
  %acc = 0
  jump loop
loop:
  %x = load [%p0+0]
  %acc = add %acc, %x
  %p0 = add %p0, 4
  %c = cmplt %acc, %lim
  branch %c, loop, done
done:
  ret %acc
}
"""


def delta_request(rid, ir, base):
    from repro.service.protocol import AllocationRequest, MachineSpec

    return AllocationRequest(id=rid, ir=ir, allocator="chaitin",
                             machine=MachineSpec(regs=8), base_digest=base)


def full_request(rid, ir):
    from repro.service.protocol import AllocationRequest, MachineSpec

    return AllocationRequest(id=rid, ir=ir, allocator="chaitin",
                             machine=MachineSpec(regs=8))


class TestDeltaWirePath:
    def run(self, scheduler, request):
        future = scheduler.submit(request)
        while not future.done():
            scheduler.run_once()
        return future.result()

    def test_chain_start_matches_full_path(self):
        from repro.service.cache import ResultCache
        from repro.service.scheduler import Scheduler, execute_request

        scheduler = Scheduler(cache=ResultCache())
        r0 = self.run(scheduler, delta_request("d0", IR, ""))
        assert r0.ok and r0.session_digest
        full = execute_request(full_request("f0", IR))
        assert r0.code == full.code
        assert r0.result_digest == full.result_digest
        assert scheduler.metrics.counters["delta_requests"] == 1

    def test_edit_chain_token_stable_and_results_exact(self):
        from repro.service.cache import ResultCache
        from repro.service.scheduler import Scheduler, execute_request

        scheduler = Scheduler(cache=ResultCache())
        r0 = self.run(scheduler, delta_request("d0", IR, ""))
        token = r0.session_digest
        ir1 = IR.replace("%lim = 10", "%lim = 99")          # value edit
        ir2 = ir1.replace("  %acc = add %acc, %x",
                          "  %acc = add %acc, %x\n  %acc = add %acc, 1")
        prints = []
        for i, ir in enumerate((ir1, ir2)):
            r = self.run(scheduler, delta_request(f"d{i+1}", ir, token))
            assert r.ok and r.session_digest == token
            prints.append(r)
        counters = scheduler.metrics.counters
        assert counters["session_hits"] == 2
        assert counters["session_patches_value"] >= 1
        # The chain start and the struct edit each build from scratch.
        assert counters["session_rebuilds"] == 2
        # The value edit started from the retained coloring.
        assert counters["session_colorings_reused"] == 1
        # Byte-identical to the full path, digest included.
        for r, ir in zip(prints, (ir1, ir2)):
            full = execute_request(full_request("f", ir))
            assert r.code == full.code
            assert r.result_digest == full.result_digest

    def test_unknown_base_falls_back_and_adopts_token(self):
        from repro.service.cache import ResultCache
        from repro.service.scheduler import Scheduler, execute_request

        scheduler = Scheduler(cache=ResultCache())
        token = "f" * 16
        r = self.run(scheduler, delta_request("d0", IR, token))
        assert r.ok
        # The fresh session is stored under the client's token so the
        # chain stabilizes on it.
        assert r.session_digest == token
        assert scheduler.metrics.counters["session_misses"] == 1
        full = execute_request(full_request("f0", IR))
        assert r.result_digest == full.result_digest
        again = self.run(scheduler, delta_request("d1", IR, token))
        assert again.ok
        assert scheduler.metrics.counters["session_hits"] == 1

    def test_delta_wire_round_trip(self):
        from repro.service.protocol import AllocationRequest

        req = delta_request("w", IR, "abc123")
        wire = req.to_wire()
        assert wire["type"] == "allocate_delta"
        assert wire["base"] == "abc123"
        assert AllocationRequest.from_wire(wire) == req
        full = full_request("w2", IR)
        assert full.to_wire()["type"] == "allocate"
        assert "base" not in full.to_wire()

    def test_delta_requires_protocol_v2_and_ir(self):
        from repro.errors import ServiceError

        req = delta_request("v", IR, "")
        req.protocol = 1
        with pytest.raises(ServiceError):
            req.validate()
        bench = delta_request("b", IR, "")
        bench.ir = None
        bench.bench = "db"
        with pytest.raises(ServiceError):
            bench.validate()

    def test_session_digest_excluded_from_result_payload(self):
        from repro.service.cache import ResultCache
        from repro.service.scheduler import Scheduler

        scheduler = Scheduler(cache=ResultCache())
        r = self.run(scheduler, delta_request("d0", IR, ""))
        stripped = r.for_cache()
        assert stripped.session_digest == ""
        assert stripped.result_digest == r.result_digest
