"""The digest-keyed dispatch wire (:mod:`repro.exec.wire`).

Covers the self-contained control tuple end to end — pack, worker-side
resolve with the decode/object caches — plus the inertness of the
retired ``REPRO_WIRE``/``REPRO_ROUND0_CACHE`` variables, decoded
functions checked against the shipped ones (``tests/oracles.py``), and
byte-identity of pool results with serial in-process runs.
"""

from __future__ import annotations

import pytest

from oracles import OracleMismatch, check_wire_jobs
from repro.config import knob_env_snapshot, runtime_knobs
from repro.errors import CodecError
from repro.exec import wire
from repro.exec.alloctask import run_alloc_job
from repro.exec.pool import WorkerPool
from repro.ir.codec import function_digest
from repro.ir.printer import print_function
from repro.pipeline import _allocate_one, prepare_module
from repro.regalloc import AllocationOptions, ChaitinAllocator
from repro.service.protocol import stats_to_dict
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


def pack(payloads):
    return [wire.pack_job(p) for p in payloads]


class TestKnob:
    def test_default_is_codec(self, monkeypatch):
        # The retired REPRO_WIRE switch selects nothing: payloads always
        # travel as codec control tuples.
        monkeypatch.setenv("REPRO_WIRE", "pickle")
        assert all(wire.is_wire_job(j) for j in pack(small_payloads()))

    def test_runtime_knobs_surface(self, monkeypatch):
        monkeypatch.setenv("REPRO_WIRE", "pickle")
        monkeypatch.setenv("REPRO_ROUND0_CACHE", "17")
        assert runtime_knobs() == {}
        assert knob_env_snapshot() == {}


class TestPackBatch:
    def test_wrong_shape_is_type_error(self):
        func, machine, allocator, options = small_payloads(n=1)[0]
        for payload in (1, ("not", "a", "job"), [func, machine,
                        allocator, options], (func, machine, allocator),
                        ("f", machine, allocator, options)):
            with pytest.raises(TypeError, match="wire job packs"):
                wire.pack_job(payload)
        assert wire.wire_stats()["jobs_packed"] == 0

    def test_pack_resolve_roundtrip(self):
        payloads = small_payloads()
        jobs = pack(payloads)
        assert all(wire.is_wire_job(j) for j in jobs)
        for (func, machine, allocator, options), job in zip(payloads, jobs):
            # Each job carries exactly its own four blobs.
            assert set(job[5]) == set(job[1:5])
            rfunc = wire.job_function(job)
            rmachine, rallocator, roptions = wire.resolve_objects(job)
            assert print_function(rfunc) == print_function(func)
            assert rfunc is not func  # private clone per job
            assert job[1] == function_digest(func)
            assert job[2] == wire.machine_content_digest(machine)
            assert roptions.verify == options.verify
            assert type(rallocator) is type(allocator)

    def test_read_only_objects_shared_across_jobs(self):
        """Machine/allocator/options resolve to one cached object per
        digest — the serial path's sharing, not a copy per job."""
        jobs = pack(small_payloads())
        first = wire.resolve_objects(jobs[0])
        second = wire.resolve_objects(jobs[1])
        assert first[0] is second[0]  # machine
        assert first[1] is second[1]  # allocator
        assert first[2] is second[2]  # options

    def test_decode_cache_hits_across_batches(self):
        payloads = small_payloads()
        for expected_hits in (0, len(payloads)):
            for job in pack(payloads):
                wire.job_function(job)
            info = wire.decode_cache_info()
            assert info["hits"] == expected_hits
        stats = wire.wire_stats()
        assert stats["jobs_packed"] == 2 * len(payloads)
        assert stats["encodes"] == len(payloads)
        assert stats["encode_memo_hits"] == len(payloads)


class TestValidateAndErrors:
    """The wire oracle: each decoded function prints byte-identically
    to the function that was shipped (after a pickle round trip, what a
    pickled dispatch would have delivered)."""

    def test_validate_mode_passes_on_honest_blob(self):
        payloads = small_payloads()
        check_wire_jobs(payloads, pack(payloads))

    def test_validate_mode_catches_divergence(self):
        payloads = small_payloads()
        jobs = pack(payloads)
        # Lie about what was shipped: the oracle says function 1, the
        # blob is function 0.
        with pytest.raises(OracleMismatch):
            check_wire_jobs([payloads[1]], [jobs[0]])

    def test_unknown_digest_is_codec_error(self):
        bad = list(pack(small_payloads())[0])
        bad[1] = "0" * 64
        with pytest.raises(CodecError):
            wire.job_function(tuple(bad))


class TestPoolIdentity:
    def run_pool(self, payloads):
        pool = WorkerPool(workers=2, **FAST)
        try:
            results = pool.run_batch(pack(payloads))
            assert all(r.ok for r in results), \
                [r.error for r in results if not r.ok]
            return [print_function(r.value[0].func) for r in results]
        finally:
            pool.shutdown()

    def test_results_identical_across_modes(self):
        # Pool (codec wire) against serial in-process runs of the very
        # same payloads.
        payloads = small_payloads()
        serial = [print_function(_allocate_one(*p)[0].func)
                  for p in payloads]
        assert self.run_pool(payloads) == serial

    def test_repeated_job_allocates_like_the_first(self):
        """A repeated job allocates a clone of the cached decoded
        function; the cached function itself must come out untouched."""
        for payload in small_payloads(n=3):
            job = wire.pack_job(payload)
            first, again = run_alloc_job(job), run_alloc_job(job)
            assert print_function(first[0].func) == \
                print_function(again[0].func)
            assert stats_to_dict(first[0].stats) == \
                stats_to_dict(again[0].stats)
            assert first[1].total == again[1].total
        assert wire.decode_cache_info()["hits"] == 3

    def test_run_alloc_job_accepts_both_shapes(self):
        """Of the two payload shapes the task now takes only one: a
        wire job allocates exactly as the serial path does, and a bare
        payload tuple is refused with a codec error."""
        payloads = small_payloads(n=2)
        with pytest.raises(CodecError):
            run_alloc_job(payloads[0])
        for payload in payloads:
            direct = _allocate_one(*payload)
            via_wire = run_alloc_job(wire.pack_job(payload))
            assert print_function(direct[0].func) == \
                print_function(via_wire[0].func)
            assert direct[1].total == via_wire[1].total
            # Only edit sessions carry a round-0 coloring; a pooled
            # result must not pickle one back to the parent.
            assert via_wire[0].round0_outcome is None
