"""The service layer: protocol, cache, metrics, scheduler."""

import json

import pytest

from repro.errors import ServiceError
from repro.pipeline import allocate_module, prepare_module
from repro.regalloc import AllocationOptions
from repro.reporting import canonical_json
from repro.service.cache import ResultCache, request_fingerprint
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SERVICE_ALLOCATORS,
    AllocationRequest,
    AllocationResponse,
    MachineSpec,
    machine_descriptor,
)
from repro.service.scheduler import (
    ALLOCATOR_FACTORIES,
    DEGRADATION_LADDER,
    Scheduler,
    degrade_for,
    execute_request,
    render_allocation,
)
from repro.target.presets import make_machine

IR = """func axpy(%p0, %p1) -> value {
entry:
  %acc = 0
  jump loop
loop:
  %x = load [%p0+0]
  %y = load [%p0+4]
  %s = add %x, %y
  %acc = add %acc, %s
  %c = cmplt %acc, %p1
  branch %c, done, loop
done:
  ret %acc
}
"""

#: Same function, different formatting/whitespace — must share a cache
#: entry with IR after parse->print normalization.
IR_REFORMATTED = IR.replace("  %acc = 0", "  %acc  =  0")


def make_request(**overrides) -> AllocationRequest:
    base = dict(id="t1", ir=IR, allocator="full",
                machine=MachineSpec(regs=8))
    base.update(overrides)
    return AllocationRequest(**base)


class TestProtocol:
    def test_request_wire_round_trip(self):
        req = make_request(deadline_s=2.5)
        again = AllocationRequest.from_wire(req.to_wire())
        assert again == req

    def test_request_json_is_deterministic(self):
        a = make_request().to_json()
        b = make_request().to_json()
        assert a == b
        assert json.loads(a)["type"] == "allocate"

    def test_response_wire_round_trip(self):
        resp = AllocationResponse(id="x", ok=True, allocator="full",
                                  effective_allocator="full",
                                  code="func f() {}",
                                  stats={"moves_before": 3},
                                  cycles={"total": 9.0}).seal()
        again = AllocationResponse.from_wire(json.loads(resp.to_json()))
        assert again.result_digest == resp.result_digest
        assert again.result_payload() == resp.result_payload()

    def test_digest_ignores_volatile_metadata(self):
        resp = AllocationResponse(
            id="a", code="c", stats={"s": 1}, cycles={"total": 1.0},
            effective_allocator="full").seal()
        other = AllocationResponse(
            id="b", cached=True, timings={"total_s": 1.0},
            code="c", stats={"s": 1}, cycles={"total": 1.0},
            effective_allocator="full").seal()
        assert resp.result_digest == other.result_digest

    def test_needs_exactly_one_source(self):
        with pytest.raises(ServiceError):
            AllocationRequest(id="x").validate()
        with pytest.raises(ServiceError):
            AllocationRequest(id="x", ir=IR, bench="jess").validate()

    def test_rejects_unknown_benchmark_and_allocator(self):
        with pytest.raises(ServiceError, match="benchmark"):
            AllocationRequest(id="x", bench="quake").validate()
        with pytest.raises(ServiceError, match="allocator"):
            AllocationRequest(id="x", ir=IR,
                              allocator="linear-scan").validate()

    def test_rejects_wrong_protocol_version(self):
        with pytest.raises(ServiceError, match="protocol"):
            AllocationRequest(id="x", ir=IR,
                              protocol=PROTOCOL_VERSION + 1).validate()

    def test_allocator_tables_agree(self):
        assert set(SERVICE_ALLOCATORS) == set(ALLOCATOR_FACTORIES)

    def test_machine_descriptor_is_value_based(self):
        a = machine_descriptor(make_machine(8))
        b = machine_descriptor(make_machine(8))
        c = machine_descriptor(make_machine(16))
        assert a == b != c


class TestFingerprint:
    def test_normalized_ir_shares_fingerprint(self):
        from repro.ir.parser import parse_module
        from repro.ir.printer import print_module

        machine = make_machine(8)
        norm_a = print_module(parse_module(IR))
        norm_b = print_module(parse_module(IR_REFORMATTED))
        assert norm_a == norm_b
        assert request_fingerprint(norm_a, machine, "full") == \
            request_fingerprint(norm_b, machine, "full")

    def test_fingerprint_splits_on_every_input(self):
        machine = make_machine(8)
        base = request_fingerprint(IR, machine, "full", verify=True)
        assert base != request_fingerprint(IR + " ", machine, "full")
        assert base != request_fingerprint(IR, make_machine(16), "full")
        assert base != request_fingerprint(IR, machine, "chaitin")
        assert base != request_fingerprint(IR, machine, "full",
                                           verify=False)


class TestResultCache:
    def response(self, tag="a"):
        return AllocationResponse(id=f"id-{tag}", ok=True, code=tag,
                                  effective_allocator="full",
                                  stats={}, cycles={}).seal()

    def test_hit_miss_counters_and_metadata_strip(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", self.response())
        hit = cache.get("k")
        assert hit is not None and hit.id == "" and not hit.cached
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_ratio == 0.5

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", self.response("a"))
        cache.put("b", self.response("b"))
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", self.response("c"))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.evictions == 1

    def test_disk_layer_survives_restart(self, tmp_path):
        first = ResultCache(max_entries=4, disk_dir=tmp_path)
        first.put("deadbeef", self.response("persisted"))
        second = ResultCache(max_entries=4, disk_dir=tmp_path)
        hit = second.get("deadbeef")
        assert hit is not None and hit.code == "persisted"
        assert second.disk_hits == 1
        # now promoted to memory: next hit does not touch disk
        second.get("deadbeef")
        assert second.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        path = cache._disk_path("feedface")
        path.parent.mkdir(parents=True)
        path.write_text("not json{")
        assert cache.get("feedface") is None
        assert cache.disk_errors == 1

    def test_bit_flipped_disk_entry_is_a_counted_miss(self, tmp_path):
        writer = ResultCache(max_entries=4, disk_dir=tmp_path)
        entry = self.response("clean code")
        entry.fingerprint = "c0ffee"
        writer.put("c0ffee", entry)
        path = writer._disk_path("c0ffee")
        wire = json.loads(path.read_text())
        assert wire["code"] == "clean code"
        wire["code"] = "clean codf"  # one flipped bit, still valid JSON
        path.write_text(json.dumps(wire))
        reader = ResultCache(max_entries=4, disk_dir=tmp_path)
        assert reader.get("c0ffee") is None
        assert reader.disk_hits == 0 and reader.misses == 1
        assert reader.snapshot()["integrity_failures"] == 1
        assert reader.snapshot()["backend"]["integrity_failures"] == 1

    def test_misfiled_disk_entry_is_a_counted_miss(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        entry = self.response("right key")
        entry.fingerprint = "aaaa"
        cache.put("aaaa", entry)
        wrong = cache._disk_path("bbbb")
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(cache._disk_path("aaaa").read_text())
        fresh = ResultCache(max_entries=4, disk_dir=tmp_path)
        assert fresh.get("bbbb") is None
        assert fresh.get("aaaa") is not None
        assert fresh.snapshot()["integrity_failures"] == 1

    def test_snapshot_schema(self):
        snap = ResultCache(max_entries=4).snapshot()
        for key in ("entries", "hits", "misses", "hit_ratio",
                    "evictions", "disk_dir"):
            assert key in snap


class TestMetrics:
    def test_histogram_percentiles_cover_samples(self):
        hist = LatencyHistogram()
        for ms in (1, 2, 3, 400):
            hist.observe(ms / 1000.0)
        assert hist.total == 4
        assert hist.percentile(50) <= hist.percentile(99)
        assert hist.percentile(99) >= 0.4 * 0.5  # within a bucket of max

    def test_snapshot_counts_and_ratio(self):
        metrics = ServiceMetrics()
        metrics.inc("cache_hits", 3)
        metrics.inc("cache_misses", 1)
        metrics.observe("total", 0.01)
        metrics.set_queue_depth(5)
        metrics.set_queue_depth(2)
        snap = metrics.snapshot()
        assert snap["cache_hit_ratio"] == 0.75
        assert snap["queue_depth"] == 2
        assert snap["queue_depth_max"] == 5
        assert snap["latency"]["total"]["count"] == 1

    def test_unknown_counter_refused(self):
        with pytest.raises(KeyError):
            ServiceMetrics().inc("nope")


class TestDegradationLadder:
    def test_every_allocator_reaches_chaitin(self):
        for name in SERVICE_ALLOCATORS:
            seen = [name]
            while seen[-1] != "chaitin":
                seen.append(degrade_for(seen[-1]))
                assert len(seen) <= len(DEGRADATION_LADDER) + 1
        assert degrade_for("chaitin") == "chaitin"


class TestScheduler:
    def run_request(self, scheduler, request):
        future = scheduler.submit(request)
        while not future.done():
            scheduler.run_once()
        return future.result()

    def test_result_byte_identical_to_direct_pipeline(self):
        from repro.ir.parser import parse_module

        request = make_request()
        machine = request.machine.build()
        prepared = prepare_module(parse_module(IR), machine)
        direct = allocate_module(prepared, machine,
                                 ALLOCATOR_FACTORIES["full"]())
        scheduler = Scheduler(cache=ResultCache())
        response = self.run_request(scheduler, request)
        assert response.ok and not response.degraded
        assert response.code == render_allocation(direct)
        assert response.code.encode() == \
            render_allocation(direct).encode()

    def test_cache_hit_on_reformatted_ir(self):
        scheduler = Scheduler(cache=ResultCache())
        first = self.run_request(scheduler, make_request(id="a"))
        second = self.run_request(
            scheduler, make_request(id="b", ir=IR_REFORMATTED))
        assert not first.cached and second.cached
        assert second.id == "b"
        assert second.result_digest == first.result_digest
        assert second.code == first.code
        assert scheduler.metrics.counters["cache_hits"] == 1

    def test_past_deadline_degrades_not_errors(self):
        scheduler = Scheduler(cache=ResultCache())
        response = self.run_request(
            scheduler, make_request(deadline_s=0.0))
        assert response.ok
        assert response.degraded
        assert response.effective_allocator == "chaitin"
        assert response.allocator == "full"
        assert "$r" in response.code  # still a real allocation
        assert scheduler.metrics.counters["deadline_misses"] == 1
        assert scheduler.metrics.counters["degraded_total"] == 1

    def test_degraded_response_not_cached(self):
        scheduler = Scheduler(cache=ResultCache())
        self.run_request(scheduler, make_request(deadline_s=0.0))
        assert len(scheduler.cache) == 0
        # a later request with time budget gets the real allocator
        fresh = self.run_request(scheduler, make_request(id="later"))
        assert not fresh.degraded and not fresh.cached
        assert fresh.effective_allocator == "full"

    def test_admission_control_rejects_when_full(self):
        scheduler = Scheduler(cache=None, max_queue=2)
        futures = [scheduler.submit(make_request(id=f"q{i}"))
                   for i in range(3)]
        rejected = futures[2].result(timeout=1)
        assert not rejected.ok
        assert "queue full" in rejected.error
        assert scheduler.metrics.counters["rejected_total"] == 1
        while any(not f.done() for f in futures):
            scheduler.run_once()
        assert all(f.result().ok for f in futures[:2])

    def test_overload_watermark_degrades_admitted_requests(self):
        scheduler = Scheduler(cache=None, max_queue=8,
                              overload_watermark=1)
        futures = [scheduler.submit(make_request(id=f"o{i}"))
                   for i in range(3)]
        while any(not f.done() for f in futures):
            scheduler.run_once()
        responses = [f.result() for f in futures]
        assert not responses[0].degraded
        assert all(r.degraded for r in responses[1:])
        assert all(r.ok for r in responses)

    def test_invalid_request_resolves_with_error(self):
        scheduler = Scheduler()
        response = scheduler.submit(
            AllocationRequest(id="bad")).result(timeout=1)
        assert not response.ok and "exactly one" in response.error

    def test_parse_error_resolves_with_error(self):
        scheduler = Scheduler()
        future = scheduler.submit(make_request(ir="func ("))
        scheduler.run_once()
        response = future.result(timeout=1)
        assert not response.ok and response.error

    def test_worker_thread_lifecycle(self):
        scheduler = Scheduler(cache=ResultCache())
        scheduler.start()
        try:
            response = scheduler.submit(make_request()).result(timeout=30)
            assert response.ok
        finally:
            scheduler.stop()

    def test_execute_request_bench_source(self):
        response = execute_request(AllocationRequest(
            id="b", bench="db", allocator="chaitin",
            machine=MachineSpec(regs=16)))
        assert response.ok and response.stats["moves_before"] > 0


class TestFingerprintHint:
    """The cluster router precomputes the digest; shards trust it to
    short-circuit straight to the cache, read-only."""

    def run_request(self, scheduler, request):
        future = scheduler.submit(request)
        while not future.done():
            scheduler.run_once()
        return future.result()

    def test_hint_hit_skips_the_parse_pass(self):
        scheduler = Scheduler(cache=ResultCache())
        first = self.run_request(scheduler, make_request(id="a"))
        hinted = make_request(id="b")
        hinted.fingerprint_hint = first.fingerprint
        second = self.run_request(scheduler, hinted)
        assert second.cached
        assert second.id == "b"
        assert second.result_digest == first.result_digest
        assert second.fingerprint == first.fingerprint
        # the whole point: the module was never re-normalized
        assert "parse_s" not in second.timings

    def test_wrong_hint_falls_through_to_the_full_path(self):
        scheduler = Scheduler(cache=ResultCache())
        request = make_request(id="a", fingerprint_hint="0" * 64)
        response = self.run_request(scheduler, request)
        assert response.ok and not response.cached
        assert response.fingerprint != request.fingerprint_hint
        # puts go under the *computed* key — a bad hint can misroute a
        # read, never poison the cache
        assert scheduler.cache.get(response.fingerprint) is not None
        assert scheduler.cache.get("0" * 64) is None

    def test_hint_round_trips_on_the_wire(self):
        request = make_request(id="a", fingerprint_hint="ab" * 32)
        wire = request.to_wire()
        assert wire["fingerprint_hint"] == "ab" * 32
        again = AllocationRequest.from_wire(wire)
        assert again.fingerprint_hint == "ab" * 32

    def test_garbled_hint_is_dropped_not_fatal(self):
        wire = make_request(id="a").to_wire()
        wire["fingerprint_hint"] = 1234
        assert AllocationRequest.from_wire(wire).fingerprint_hint is None


class TestPipelineSerialFallback:
    def test_unstartable_pool_falls_back_with_warning(self, monkeypatch):
        from repro.ir.parser import parse_module

        import repro.pipeline as pipeline

        machine = make_machine(8)
        two_funcs = IR + "\n" + IR.replace("axpy", "axpy2")
        prepared = prepare_module(parse_module(two_funcs), machine)
        want = allocate_module(prepared, machine,
                               ALLOCATOR_FACTORIES["full"]())

        def exploding_pool(*a, **kw):
            raise OSError("no fork for you")

        monkeypatch.setattr(pipeline, "get_default_pool", exploding_pool)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            got = allocate_module(prepared, machine,
                                  ALLOCATOR_FACTORIES["full"](),
                                  AllocationOptions(jobs=4))
        assert got.stats.moves_eliminated == want.stats.moves_eliminated
        assert got.cycles.total == want.cycles.total
        assert render_allocation(got) == render_allocation(want)

    def test_fallback_warning_names_the_reason(self, monkeypatch):
        """The serial-fallback warning carries the pool-start failure
        cause, not just the fact of the fallback."""
        from repro.ir.parser import parse_module

        import repro.pipeline as pipeline

        machine = make_machine(8)
        two_funcs = IR + "\n" + IR.replace("axpy", "axpy2")
        prepared = prepare_module(parse_module(two_funcs), machine)

        def exploding_pool(*a, **kw):
            raise OSError("fork refused by sandbox policy")

        monkeypatch.setattr(pipeline, "get_default_pool", exploding_pool)
        with pytest.warns(RuntimeWarning,
                          match="fork refused by sandbox policy"):
            allocate_module(prepared, machine,
                            ALLOCATOR_FACTORIES["full"](),
                            AllocationOptions(jobs=4))

    def test_startup_timeout_names_worker_fates(self):
        """A pool whose workers die before their first heartbeat says
        which workers died and with what exit codes."""
        from repro.exec.pool import WorkerPool, WorkerPoolUnavailable

        pool = WorkerPool(workers=2, task="repro.exec:does_not_exist",
                          start_timeout_s=5.0)
        try:
            with pytest.raises(WorkerPoolUnavailable) as excinfo:
                pool.ensure_started()
        finally:
            pool.shutdown()
        message = str(excinfo.value)
        assert "worker 0" in message and "worker 1" in message
        assert "exited with code" in message


class TestCanonicalJson:
    def test_key_order_and_compactness(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestSchemaRoundTrip:
    """The schema version vouches for the metrics contract.

    Every counter the service has grown (worker pool, degradation,
    cache layers) must appear in the emitted ``stats`` documents, and
    the counter set must match :data:`SERVICE_COUNTERS` exactly — so
    adding or renaming a counter without a coherent schema bump fails
    here, not in a downstream consumer.
    """

    def test_counters_match_the_schema_contract(self):
        from repro.service.schema import SERVICE_COUNTERS

        snapshot = ServiceMetrics().snapshot()
        assert set(snapshot["counters"]) == set(SERVICE_COUNTERS)

    def test_stats_documents_carry_every_counter(self):
        from repro.service.schema import (
            SCHEMA_VERSION,
            SERVICE_COUNTERS,
            final_stats_payload,
            stats_payload,
        )

        cache = ResultCache(max_entries=4)
        metrics = ServiceMetrics()
        scheduler = Scheduler(cache=cache, metrics=metrics)
        scheduler.start()
        try:
            assert scheduler.submit(make_request()).result(timeout=30).ok
            assert scheduler.submit(
                make_request(id="t2")).result(timeout=30).cached
        finally:
            scheduler.stop()

        stats = stats_payload(queue_depth=0, metrics=metrics.snapshot(),
                              cache=cache.snapshot())
        final = final_stats_payload(metrics.snapshot(), cache.snapshot())
        for doc in (stats, final):
            assert doc["schema"] == SCHEMA_VERSION
            counters = doc["metrics"]["counters"]
            for name in SERVICE_COUNTERS:
                assert name in counters, name
            # the sections v2 vouches for
            assert "worker_pool" in doc["metrics"]
            assert "alloc_phases" in doc["metrics"]
        assert stats["metrics"]["counters"]["cache_hits"] >= 1
        # wire round-trip: the document survives canonical JSON intact
        assert json.loads(canonical_json(stats)) == stats

    def test_schema_version_bumped_for_cluster(self):
        from repro.service.schema import SCHEMA_TYPES, SCHEMA_VERSION

        assert SCHEMA_VERSION >= 2
        assert "cluster_stats" in SCHEMA_TYPES
        # cache snapshots grew a backend section in v2
        assert "backend" in ResultCache().snapshot()
