"""Pool dispatch: each job is one pickled ``(func, shared)`` pair, with
the batch's ``(machine, allocator, options)`` pickled once as
``shared``.

Covers byte-identity of pool results with serial in-process runs, the
parent's prepared functions coming out of a batch untouched, and the
inertness of the retired ``REPRO_WIRE``/``REPRO_ROUND0_CACHE``
variables.
"""

from __future__ import annotations

from repro.config import knob_env_snapshot, runtime_knobs
from repro.exec.alloctask import pack_jobs, run_alloc_job
from repro.exec.pool import WorkerPool
from repro.ir.printer import print_function
from repro.pipeline import _allocate_one, allocate_module, prepare_module
from repro.regalloc import AllocationOptions, ChaitinAllocator
from repro.service.protocol import stats_to_dict
from repro.target.presets import make_machine
from repro.workloads.generator import generate_module
from repro.workloads.profiles import BenchmarkProfile

FAST = dict(start_timeout_s=30.0)


def small_prepared(n=4, regs=8):
    profile = BenchmarkProfile(name="wire", n_functions=n, stmts=4,
                               int_pool=4, call_prob=0.2,
                               branch_prob=0.2, loop_prob=0.1,
                               max_loop_depth=1)
    machine = make_machine(regs)
    return prepare_module(generate_module(profile, seed=11), machine), \
        machine


def small_payloads(n=4, regs=8):
    prepared, machine = small_prepared(n, regs)
    options = AllocationOptions(verify=False)
    allocator = ChaitinAllocator()
    return [(func, machine, allocator, options)
            for func in prepared.functions]


def pickled(payload) -> bytes:
    """A job as ``pipeline._pool_results`` ships it."""
    func, machine, allocator, options = payload
    return pack_jobs([func], machine, allocator, options)[0]


class TestKnob:
    def test_runtime_knobs_surface(self, monkeypatch):
        monkeypatch.setenv("REPRO_WIRE", "pickle")
        monkeypatch.setenv("REPRO_ROUND0_CACHE", "17")
        assert runtime_knobs() == {}
        assert knob_env_snapshot() == {}


class TestPoolIdentity:
    def run_pool(self, payloads):
        pool = WorkerPool(workers=2, **FAST)
        try:
            results = pool.run_batch([pickled(p) for p in payloads])
            assert all(r.ok for r in results), \
                [r.error for r in results if not r.ok]
            return [print_function(r.value[0].func) for r in results]
        finally:
            pool.shutdown()

    def test_results_identical_across_modes(self):
        # Pool against serial in-process runs of the very same payloads.
        payloads = small_payloads()
        serial = [print_function(_allocate_one(*p)[0].func)
                  for p in payloads]
        assert self.run_pool(payloads) == serial

    def test_repeated_job_allocates_like_the_first(self):
        """Each run unpickles its own copy of the function, so running
        the same job bytes twice allocates the same code."""
        for payload in small_payloads(n=3):
            job = pickled(payload)
            first, again = run_alloc_job(job), run_alloc_job(job)
            assert print_function(first[0].func) == \
                print_function(again[0].func)
            assert stats_to_dict(first[0].stats) == \
                stats_to_dict(again[0].stats)
            assert first[1].total == again[1].total

    def test_run_alloc_job_matches_the_serial_path(self):
        for payload in small_payloads(n=2):
            direct = _allocate_one(*payload)
            pooled = run_alloc_job(pickled(payload))
            assert print_function(direct[0].func) == \
                print_function(pooled[0].func)
            assert stats_to_dict(direct[0].stats) == \
                stats_to_dict(pooled[0].stats)
            assert direct[1].total == pooled[1].total
            # Only edit sessions carry a round-0 coloring; a pooled
            # result must not pickle one back to the parent.
            assert pooled[0].round0_outcome is None

    def test_parent_functions_untouched(self):
        """Allocation rewrites its function in place; the job's copy,
        not the parent's prepared function, must take the rewrite."""
        prepared, machine = small_prepared()
        before = [print_function(f) for f in prepared.functions]
        options = AllocationOptions(verify=True, jobs=2)
        pool = WorkerPool(workers=2, **FAST)
        try:
            run = allocate_module(prepared, machine, ChaitinAllocator(),
                                  options, pool=pool)
            assert pool.counters["jobs_ok"] == len(before)
        finally:
            pool.shutdown()
        assert [print_function(r.func) for r in run.results] != before
        assert [print_function(f) for f in prepared.functions] == before
        for func in prepared.functions:
            run_alloc_job(pickled((func, machine, ChaitinAllocator(),
                                   options)))
        assert [print_function(f) for f in prepared.functions] == before
