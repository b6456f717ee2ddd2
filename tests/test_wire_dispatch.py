"""The digest-deduped dispatch wire (:mod:`repro.exec.wire`).

Covers the control-tuple format end to end — pack, shared-memory
shipment, worker-side resolve with the decode/object caches — plus the
inertness of the retired ``REPRO_WIRE``/``REPRO_ROUND0_CACHE``
variables, the inline fallback when shared memory is unavailable,
decoded functions checked against the shipped ones
(``tests/oracles.py``), and byte-identity of pool results with serial
in-process runs.
"""

from __future__ import annotations

import pytest

from oracles import OracleMismatch, check_wire_jobs
from repro.config import knob_env_snapshot, runtime_knobs
from repro.errors import CodecError
from repro.exec import alloctask, wire
from repro.exec.alloctask import run_alloc_job
from repro.exec.pool import WorkerPool
from repro.ir.codec import function_digest
from repro.ir.printer import print_function
from repro.pipeline import prepare_module
from repro.regalloc import AllocationOptions, ChaitinAllocator
from repro.target.presets import make_machine
from repro.workloads.generator import generate_module
from repro.workloads.profiles import BenchmarkProfile

FAST = dict(heartbeat_s=0.05, backoff_s=0.01, start_timeout_s=30.0)


@pytest.fixture(autouse=True)
def fresh_caches():
    wire.clear_decode_cache()
    wire.reset_wire_stats()
    yield
    wire.clear_decode_cache()
    wire.reset_wire_stats()


def small_payloads(n=4, regs=8):
    profile = BenchmarkProfile(name="wire", n_functions=n, stmts=4,
                               int_pool=4, call_prob=0.2,
                               branch_prob=0.2, loop_prob=0.1,
                               max_loop_depth=1)
    module = generate_module(profile, seed=11)
    machine = make_machine(regs)
    prepared = prepare_module(module, machine)
    options = AllocationOptions(verify=False)
    allocator = ChaitinAllocator()
    return [(func, machine, allocator, options)
            for func in prepared.functions]


class TestKnob:
    def test_default_is_codec(self, monkeypatch):
        # The retired REPRO_WIRE switch selects nothing: payloads always
        # travel as codec control tuples.
        monkeypatch.setenv("REPRO_WIRE", "pickle")
        jobs, shipment = wire.pack_batch(small_payloads())
        try:
            assert all(wire.is_wire_job(j) for j in jobs)
        finally:
            shipment.cleanup()

    def test_runtime_knobs_surface(self, monkeypatch):
        monkeypatch.setenv("REPRO_WIRE", "pickle")
        monkeypatch.setenv("REPRO_ROUND0_CACHE", "17")
        import numpy

        assert runtime_knobs() == {"numpy": numpy.__version__}
        assert knob_env_snapshot() == {}

    def test_round0_cache_knob(self, monkeypatch):
        # The round-0 LRU bound is the constant 64, whatever the
        # retired REPRO_ROUND0_CACHE variable says.
        monkeypatch.setenv("REPRO_ROUND0_CACHE", "1")
        alloctask.clear_round0_cache()
        try:
            payloads = small_payloads(n=3)
            for payload in payloads:
                run_alloc_job(payload)
            assert alloctask.ROUND0_CACHE_MAX == 64
            assert alloctask.round0_cache_info()["entries"] == 3
        finally:
            alloctask.clear_round0_cache()


class TestPackBatch:
    def test_ineligible_shapes_pass_through(self):
        for payloads in ([], [1, 2, 3], [("not", "a", "job")]):
            jobs, shipment = wire.pack_batch(payloads)
            assert jobs == payloads
            assert shipment is None

    def test_pack_resolve_roundtrip(self):
        payloads = small_payloads()
        jobs, shipment = wire.pack_batch(payloads)
        try:
            assert all(wire.is_wire_job(j) for j in jobs)
            for (func, machine, allocator, options), job in \
                    zip(payloads, jobs):
                got = wire.resolve_job(job)
                rfunc, rmachine, rallocator, roptions, fdig, mdig = got
                assert print_function(rfunc) == print_function(func)
                assert rfunc is not func  # private clone per job
                assert fdig == function_digest(func)
                assert mdig == wire.machine_content_digest(machine)
                assert roptions.verify == options.verify
                assert type(rallocator) is type(allocator)
        finally:
            shipment.cleanup()

    def test_read_only_objects_shared_across_jobs(self):
        """Machine/allocator/options resolve to one cached object per
        digest — the serial path's sharing, not a copy per job."""
        payloads = small_payloads()
        jobs, shipment = wire.pack_batch(payloads)
        try:
            first = wire.resolve_job(jobs[0])
            second = wire.resolve_job(jobs[1])
            assert first[1] is second[1]  # machine
            assert first[2] is second[2]  # allocator
            assert first[3] is second[3]  # options
        finally:
            shipment.cleanup()

    def test_decode_cache_hits_across_batches(self):
        payloads = small_payloads()
        for expected_hits in (0, len(payloads)):
            jobs, shipment = wire.pack_batch(payloads)
            try:
                for job in jobs:
                    wire.resolve_job(job)
            finally:
                shipment.cleanup()
            info = wire.decode_cache_info()
            assert info["hits"] == expected_hits
        stats = wire.wire_stats()
        assert stats["batches_packed"] == 2
        assert stats["encodes"] == len(payloads)
        assert stats["encode_memo_hits"] == len(payloads)
        assert stats["shm_segments"] + stats["inline_batches"] == 2

    def test_segment_unlinked_after_cleanup(self):
        jobs, shipment = wire.pack_batch(small_payloads())
        if shipment.shm is None:
            pytest.skip("shared memory unavailable in this sandbox")
        name = shipment.shm.name
        shipment.cleanup()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_inline_fallback(self, monkeypatch):

        def refuse(*args, **kwargs):
            raise OSError("no shm for you")

        import multiprocessing.shared_memory as shm_mod

        monkeypatch.setattr(shm_mod, "SharedMemory", refuse)
        payloads = small_payloads()
        jobs, shipment = wire.pack_batch(payloads)
        assert shipment.shm is None
        assert wire.wire_stats()["inline_batches"] == 1
        func, *_ = wire.resolve_job(jobs[0])
        assert print_function(func) == print_function(payloads[0][0])
        shipment.cleanup()  # no-op, must not raise


class TestValidateAndErrors:
    """The wire oracle: each decoded function prints byte-identically
    to the function that was shipped (after a pickle round trip, what a
    pickled dispatch would have delivered)."""

    def test_validate_mode_passes_on_honest_blob(self):
        payloads = small_payloads()
        jobs, shipment = wire.pack_batch(payloads)
        try:
            check_wire_jobs(payloads, jobs)
        finally:
            shipment.cleanup()

    def test_validate_mode_catches_divergence(self):
        payloads = small_payloads()
        jobs, shipment = wire.pack_batch(payloads)
        try:
            # Lie about what was shipped: the oracle says function 1,
            # the blob is function 0.
            with pytest.raises(OracleMismatch):
                check_wire_jobs([payloads[1]], [jobs[0]])
        finally:
            shipment.cleanup()

    def test_missing_segment_is_codec_error(self):
        jobs, shipment = wire.pack_batch(small_payloads())
        shipment.cleanup()  # unlink before resolve
        wire.clear_decode_cache()
        with pytest.raises(CodecError):
            wire.resolve_job(jobs[0])

    def test_unknown_digest_is_codec_error(self):
        jobs, shipment = wire.pack_batch(small_payloads())
        try:
            bad = list(jobs[0])
            bad[2] = "0" * 64
            with pytest.raises(CodecError):
                wire.resolve_job(tuple(bad))
        finally:
            shipment.cleanup()


class TestPoolIdentity:
    def run_pool(self, payloads):
        pool = WorkerPool(workers=2, **FAST)
        try:
            results = pool.run_batch(payloads)
            assert all(r.ok for r in results), \
                [r.error for r in results if not r.ok]
            return [print_function(r.value[0].func) for r in results]
        finally:
            pool.shutdown()

    def test_results_identical_across_modes(self):
        # Pool (codec wire) against serial in-process runs of the very
        # same payloads.
        payloads = small_payloads()
        serial = [print_function(run_alloc_job(p)[0].func)
                  for p in payloads]
        assert self.run_pool(payloads) == serial

    def test_run_alloc_job_accepts_both_shapes(self):
        payloads = small_payloads(n=2)
        jobs, shipment = wire.pack_batch(payloads)
        try:
            direct = run_alloc_job(payloads[0])
            via_wire = run_alloc_job(jobs[0])
            assert print_function(direct[0].func) == \
                print_function(via_wire[0].func)
            assert direct[1].total == via_wire[1].total
        finally:
            shipment.cleanup()
