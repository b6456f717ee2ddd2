"""Edit-driven incremental re-allocation: sessions, deltas, wire path.

The load-bearing property is *exactness*: every path through the
session ladder (value-patch, struct-patch, rebuild) must produce
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
    forced_matrix_branches,
    scratch_incremental,
    validated_incremental,
)
from repro.errors import AllocationError
from repro.ir.clone import clone_function
from repro.ir.function import BasicBlock
from repro.ir.instructions import BinOp, ConstInst, Jump, Store
from repro.ir.printer import print_function
from repro.ir.validate import validate_function
from repro.ir.values import Const, RegClass, VReg
from repro.regalloc import AllocationOptions, ChaitinAllocator
from repro.service.session import (
    ModuleSession,
    SessionStore,
    allocate_function_incremental,
    session_digest,
)
from repro.target.presets import make_machine
from repro.workloads.generator import generate_function
from repro.workloads.profiles import BenchmarkProfile

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


EDIT_OPS = [
    edit_modify_const,
    edit_modify_operand_const,
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
        """Patched analyses == rebuilt analyses, phase by phase, and the
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
        assert all(o.path in ("value", "struct", "rebuild")
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
    """One deterministic chain, every mode x dataflow size class."""

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
        from contextlib import nullcontext

        machine = make_machine(12)
        versions = self.versions()
        runs = {}
        for size_class, kernels in (("default", nullcontext),
                                    ("forced", forced_matrix_branches)):
            with kernels():
                for mode in ("off", "on", "validate"):
                    outs = run_chain(versions, machine, mode)
                    runs[(size_class, mode)] = [
                        print_function(o.result.func) for o in outs]
        want = runs[("default", "off")]
        for key, got in runs.items():
            assert got == want, f"{key} diverged from (default, off)"

    def test_paths_taken(self):
        outs = run_chain(self.versions(), make_machine(12), "on")
        # const edit -> value patch; dead insert / split / redefine ->
        # structural; final const edit -> value patch again.
        assert [o.path for o in outs] \
            == ["new", "value", "struct", "struct", "struct", "value"]


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
        assert counters["session_patches_struct"] >= 1
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


class TestClusterDeltaAffinity:
    def test_edit_chain_pins_to_one_shard(self):
        from repro.cluster.router import ClusterRouter, ClusterServerThread
        from repro.cluster.shards import ShardHandle
        from repro.service.client import ServiceClient
        from repro.service.scheduler import Scheduler
        from repro.service.server import ServerThread

        shards, handles = [], []
        try:
            for index in range(2):
                scheduler = Scheduler(cache=None)
                server = ServerThread(scheduler)
                host, port = server.start()
                shards.append((scheduler, server))
                handles.append(ShardHandle(index, host, port))
            router = ClusterRouter(handles, hedge_s=30.0)
            thread = ClusterServerThread(router, "127.0.0.1", 0)
            host, port = thread.start()
            try:
                client = ServiceClient(host, port)
                r0 = client.allocate(delta_request("c0", IR, ""))
                assert r0.ok and r0.session_digest
                token = r0.session_digest
                for i in range(3):
                    ir = IR.replace("%lim = 10", f"%lim = {11 + i}")
                    r = client.allocate(delta_request(f"c{i+1}", ir, token))
                    assert r.ok and r.session_digest == token
            finally:
                thread.stop()
            hits = sum(s.metrics.counters["session_hits"]
                       for s, _ in shards)
            # The token routes every edit to one shard; after at most
            # one miss (chain start may have landed elsewhere) the
            # session lives where the edits go.
            assert hits >= 2
        finally:
            for _scheduler, server in shards:
                server.stop()
