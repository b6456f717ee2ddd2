"""The service layer: protocol, cache, metrics, scheduler."""

import argparse
import errno
import json
import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import build_parser
from repro.errors import ServiceError
from repro.pipeline import allocate_module, prepare_module
from repro.regalloc import AllocationOptions
from repro.reporting import canonical_json
from repro.service.cache import ResultCache, request_fingerprint
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import (
    MAX_MACHINE_REGS,
    PROTOCOL_VERSION,
    SERVICE_ALLOCATORS,
    AllocationRequest,
    AllocationResponse,
    MachineSpec,
    machine_content_digest,
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
from repro.workloads import BENCHMARK_NAMES

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

#: the committed figure tables of ``benchmarks/``
RESULTS_DIR = Path(__file__).parents[1] / "benchmarks" / "results"

#: Same function, different formatting/whitespace — must share a cache
#: entry with IR after parse->print normalization.
IR_REFORMATTED = IR.replace("  %acc = 0", "  %acc  =  0")


#: options of a request whose deadline has passed on arrival
PAST_DEADLINE = AllocationOptions(deadline_ms=0.0)


def make_request(**overrides) -> AllocationRequest:
    base = dict(id="t1", ir=IR, allocator="full",
                machine=MachineSpec(regs=8))
    base.update(overrides)
    return AllocationRequest(**base)


class TestProtocol:
    def test_request_wire_round_trip(self):
        req = make_request(options=AllocationOptions(deadline_ms=2500.0))
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

    def test_retired_iterated_allocator_is_unknown(self):
        # George-Appel iterated coalescing was served until it was
        # retired; a request naming it gets the ordinary clean error.
        request = make_request(allocator="iterated")
        with pytest.raises(ServiceError,
                           match="unknown allocator 'iterated'"):
            AllocationRequest.from_wire(request.to_wire())
        response = Scheduler().submit(request).result(timeout=1)
        assert not response.ok
        assert "unknown allocator 'iterated'" in response.error

    def test_retired_policy_option_is_refused(self):
        # The heuristic constants are fixed; a request asking for other
        # ones is refused rather than answered with the defaults.
        wire = make_request().to_wire()
        wire["options"] = {"policy": {"spill_cost_exponent": 1.25}}
        with pytest.raises(ServiceError, match=r"bad options: unknown "
                           r"option field\(s\) \['policy'\]"):
            AllocationRequest.from_wire(wire)

    def test_rejects_wrong_protocol_version(self):
        for protocol in (1, PROTOCOL_VERSION + 1):
            with pytest.raises(ServiceError,
                               match=f"protocol version {protocol} "
                                     f"unsupported"):
                AllocationRequest(id="x", ir=IR,
                                  protocol=protocol).validate()

    def test_allocator_tables_agree(self):
        assert set(SERVICE_ALLOCATORS) == set(ALLOCATOR_FACTORIES)

    def test_served_surface_is_what_the_figures_use(self):
        # The CLI, the wire and the degradation ladder serve one set of
        # allocators, and each one but chaitin (Figure 9's denominator)
        # is a column of a committed figure table.
        served = set(SERVICE_ALLOCATORS)
        assert set(ALLOCATOR_FACTORIES) == served
        assert set(DEGRADATION_LADDER) | {"chaitin"} == served
        parser = build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        cli_choices = [set(action.choices)
                       for command in commands.choices.values()
                       for action in command._actions
                       if "--allocator" in action.option_strings]
        assert cli_choices and all(c == served for c in cli_choices)
        headers = set()
        for table in RESULTS_DIR.glob("*.txt"):
            lines = table.read_text().splitlines()
            for rule, header in zip(lines, lines[1:]):
                if rule and set(rule) == {"="}:
                    headers.update(header.split())
        assert served - {"chaitin"} <= headers, served - headers

    def test_machine_descriptor_is_value_based(self):
        for view in (machine_descriptor, machine_content_digest):
            a = view(make_machine(8))
            b = view(make_machine(8))
            c = view(make_machine(16))
            assert a == b != c

    @pytest.mark.parametrize("regs", [10**9, MAX_MACHINE_REGS + 2, 7, 0,
                                      -2])
    def test_machine_size_is_bounded(self, regs):
        with pytest.raises(ServiceError, match="machine regs"):
            MachineSpec.from_wire({"regs": regs})

    def test_machine_size_bounds_are_inclusive(self):
        for regs in (2, 32, MAX_MACHINE_REGS):
            assert MachineSpec.from_wire({"regs": regs}).regs == regs

    def test_non_string_ir_is_rejected(self):
        for ir in (123, ["func f() {}"], {"text": IR}, True):
            with pytest.raises(ServiceError, match="'ir' must be a string"):
                AllocationRequest.from_wire({"type": "allocate", "ir": ir})


#: Any JSON value, nested a little.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=6,
)

#: Valid values of each request field; nested fields also draw
#: arbitrary JSON.
VALID_FIELDS = {
    "type": st.sampled_from(["allocate", "allocate_delta"]),
    "protocol": st.just(PROTOCOL_VERSION),
    "id": st.text(max_size=8),
    "allocator": st.sampled_from(SERVICE_ALLOCATORS),
    "machine": st.fixed_dictionaries({}, optional={
        "regs": st.sampled_from([2, 8, 24, MAX_MACHINE_REGS])
        | st.integers() | JSON_VALUES,
        "has_paired_loads": st.booleans() | JSON_VALUES}),
    "options": st.fixed_dictionaries({}, optional={
        "max_rounds": st.integers(1, 80) | JSON_VALUES,
        "verify": st.booleans() | JSON_VALUES,
        "rematerialize": st.booleans() | JSON_VALUES,
        "jobs": st.integers(1, 4) | JSON_VALUES,
        "deadline_ms": st.floats(0, 1e4) | JSON_VALUES,
        # retired: any value is refused
        "incremental": JSON_VALUES,
        "policy": st.just({}) | JSON_VALUES}),
    "base": st.text(max_size=8),
}

#: Values one step off a valid field: wrong types, out-of-range sizes,
#: ``bool`` where an ``int`` is due.
NEAR_MISSES = st.sampled_from([10**9, 7, 0, -1, 1.0, True, "", "db",
                               IR, [IR], {}, None])

#: A valid request with up to two top-level fields replaced by
#: arbitrary JSON (unknown keys included).
REQUEST_OBJECTS = st.builds(
    lambda source, fields, edits: {**fields, **source, **edits},
    st.sampled_from([{"ir": IR}, {"bench": "db"}]),
    st.fixed_dictionaries({}, optional=VALID_FIELDS),
    st.dictionaries(st.sampled_from(["ir", "bench", *VALID_FIELDS])
                    | st.text(max_size=6),
                    NEAR_MISSES | JSON_VALUES, max_size=2),
)


class TestRequestParsing:
    """The request parser is a trust boundary: every JSON object is
    either refused with a :class:`ServiceError` or becomes a request
    whose fields have the types the scheduler relies on."""

    @settings(max_examples=400, deadline=None)
    @given(REQUEST_OBJECTS)
    @example({"ir": 123})
    @example({"bench": "db", "machine": {"regs": 10**9}})
    @example({"ir": IR, "deadline_s": 1.0})
    @example({"ir": IR, "verify": False})
    @example({"ir": IR, "protocol": 1})
    @example({"ir": IR, "protocol": True})
    @example({"ir": IR, "protocol": 1.0})
    @example({"ir": IR, "options": {"max_rounds": True}})
    @example({"ir": IR, "options": {"policy": {}}})
    @example({"ir": IR, "options": {"deadline_ms": float("inf")}})
    @example({"ir": IR, "options": {"deadline_ms": float("nan")}})
    def test_arbitrary_objects_are_rejected_or_well_typed(self, wire):
        try:
            request = AllocationRequest.from_wire(wire)
        except ServiceError:
            return
        assert not {"policy", "incremental"} & set(wire.get("options") or {})
        assert not {"verify", "deadline_s"} & set(wire)
        assert type(request.id) is str
        assert type(request.protocol) is int
        assert request.protocol == PROTOCOL_VERSION
        assert (request.ir is None) != (request.bench is None)
        assert request.ir is None or type(request.ir) is str
        assert request.bench is None or request.bench in BENCHMARK_NAMES
        assert request.allocator in SERVICE_ALLOCATORS
        assert type(request.machine.regs) is int
        assert request.machine.regs % 2 == 0
        assert 2 <= request.machine.regs <= MAX_MACHINE_REGS
        assert type(request.machine.has_paired_loads) is bool
        options = request.options
        assert isinstance(options, AllocationOptions)
        assert type(options.max_rounds) is int and options.max_rounds >= 1
        assert type(options.jobs) is int and options.jobs >= 1
        assert type(options.verify) is bool
        assert type(options.rematerialize) is bool
        assert options.deadline_ms is None or \
            0 <= options.deadline_ms < float("inf")
        assert request.base_digest is None or \
            type(request.base_digest) is str
        if request.base_digest is not None:
            assert request.ir is not None


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
        base = request_fingerprint(IR, machine, "full")
        assert base != request_fingerprint(IR + " ", machine, "full")
        assert base != request_fingerprint(IR, make_machine(16), "full")
        assert base != request_fingerprint(IR, machine, "chaitin")
        assert base != request_fingerprint(
            IR, machine, "full", AllocationOptions(verify=False))


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
        path = cache.disk.path_for("feedface")
        path.parent.mkdir(parents=True)
        path.write_text("not json{")
        assert cache.get("feedface") is None
        assert cache.disk_errors == 1

    def test_bit_flipped_disk_entry_is_a_counted_miss(self, tmp_path):
        writer = ResultCache(max_entries=4, disk_dir=tmp_path)
        entry = self.response("clean code")
        entry.fingerprint = "c0ffee"
        writer.put("c0ffee", entry)
        path = writer.disk.path_for("c0ffee")
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
        wrong = cache.disk.path_for("bbbb")
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(cache.disk.path_for("aaaa").read_text())
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

    def test_scheduler_mirror(self):
        # The ladder names only served allocators and never degrades to
        # itself.
        for frm, to in DEGRADATION_LADDER.items():
            assert {frm, to} <= set(SERVICE_ALLOCATORS) and frm != to
        for name in ALLOCATOR_FACTORIES:
            assert degrade_for(name) == DEGRADATION_LADDER.get(name,
                                                               "chaitin")

    def test_degrade_for_default(self):
        assert degrade_for("full") == "chaitin"
        assert degrade_for("optimistic") == "briggs"
        assert degrade_for("chaitin") == "chaitin"  # terminal floor


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

    @pytest.fixture
    def parses(self, monkeypatch):
        """Every text the scheduler module hands to ``parse_module``."""
        import repro.service.scheduler as scheduler_module

        seen = []
        real = scheduler_module.parse_module

        def counting(text):
            seen.append(text)
            return real(text)

        monkeypatch.setattr(scheduler_module, "parse_module", counting)
        return seen

    def test_repeat_is_answered_without_a_parse(self, parses):
        direct = execute_request(make_request(id="direct"))
        del parses[:]
        scheduler = Scheduler(cache=ResultCache())
        first = self.run_request(scheduler, make_request(id="a"))
        assert len(parses) == 1 and not first.cached
        repeat = self.run_request(scheduler, make_request(id="b"))
        assert len(parses) == 1, "the repeat must not be parsed"
        assert repeat.ok and repeat.cached and repeat.id == "b"
        assert repeat.result_digest == direct.result_digest
        assert repeat.code == direct.code
        assert repeat.fingerprint == first.fingerprint
        assert scheduler.metrics.counters["cache_hits"] == 1
        assert "parse_s" not in repeat.timings

    @pytest.mark.parametrize("change", [
        dict(machine=MachineSpec(regs=16)),
        dict(machine=MachineSpec(regs=8, has_paired_loads=False)),
        dict(allocator="chaitin"),
        dict(options=AllocationOptions(verify=False)),
        dict(options=AllocationOptions(max_rounds=8)),
        dict(options=AllocationOptions(rematerialize=True)),
    ], ids=["regs", "paired", "allocator", "verify", "max_rounds",
            "rematerialize"])
    def test_same_text_with_other_knobs_is_its_own_request(
            self, parses, change):
        direct = execute_request(make_request(id="direct", **change))
        scheduler = Scheduler(cache=ResultCache())
        base = self.run_request(scheduler, make_request(id="a"))
        del parses[:]
        other = self.run_request(scheduler,
                                 make_request(id="b", **change))
        assert len(parses) == 1, "a new knob value must be parsed"
        assert other.ok and not other.cached
        assert other.fingerprint != base.fingerprint
        assert other.result_digest == direct.result_digest
        again = self.run_request(scheduler, make_request(id="c", **change))
        assert again.cached and len(parses) == 1
        assert again.result_digest == direct.result_digest

    def test_ir_text_never_aliases_a_bench_name(self, parses):
        scheduler = Scheduler(cache=ResultCache())
        bench = AllocationRequest(id="b", bench="db", allocator="chaitin",
                                  machine=MachineSpec(regs=16))
        first = self.run_request(scheduler, bench)
        assert first.ok and not first.cached
        as_text = self.run_request(scheduler, AllocationRequest(
            id="t", ir="db", allocator="chaitin",
            machine=MachineSpec(regs=16)))
        assert parses == ["db"]
        assert not as_text.ok and not as_text.cached
        assert as_text.result_digest != first.result_digest
        assert self.run_request(scheduler, bench).cached

    def test_evicted_entry_falls_through_to_the_full_path(self, parses):
        direct = execute_request(make_request(id="direct"))
        del parses[:]
        scheduler = Scheduler(cache=ResultCache(max_entries=1))
        first = self.run_request(scheduler, make_request(id="a"))
        scheduler.cache.put("another-entry", first)  # evicts first's
        misses = scheduler.cache.misses
        again = self.run_request(scheduler, make_request(id="b"))
        assert len(parses) == 2
        assert again.ok and not again.cached and not again.degraded
        assert again.fingerprint == first.fingerprint
        assert again.result_digest == direct.result_digest
        assert again.code == direct.code
        assert scheduler.cache.misses == misses + 1
        assert scheduler.metrics.counters["cache_misses"] == 2
        third = self.run_request(scheduler, make_request(id="c"))
        assert third.cached and len(parses) == 2

    def test_disk_full_on_put_still_answers(self, tmp_path, monkeypatch):
        """ENOSPC while writing the cache's temp file: the request still
        answers ``ok``, ``disk_errors`` counts it once, no temp file is
        left behind, and a fresh cache over the directory misses
        cleanly."""
        real_fdopen = os.fdopen

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fdopen", lambda fd, *args, **kwargs:
                            FullDisk(real_fdopen(fd, *args, **kwargs)))
        cache = ResultCache(disk_dir=tmp_path)
        response = self.run_request(Scheduler(cache=cache), make_request())
        monkeypatch.undo()
        assert response.ok and not response.cached
        assert cache.disk_errors == 1 and cache.disk.puts == 0
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get(response.fingerprint) is None
        snap = fresh.snapshot()
        assert fresh.misses == 1 and snap["disk_errors"] == 0
        assert snap["integrity_failures"] == 0

    def test_past_deadline_degrades_not_errors(self):
        scheduler = Scheduler(cache=ResultCache())
        response = self.run_request(
            scheduler, make_request(options=PAST_DEADLINE))
        assert response.ok
        assert response.degraded
        assert response.effective_allocator == "chaitin"
        assert response.allocator == "full"
        assert "$r" in response.code  # still a real allocation
        assert scheduler.metrics.counters["deadline_misses"] == 1
        assert scheduler.metrics.counters["degraded_total"] == 1

    def test_degraded_response_not_cached(self):
        scheduler = Scheduler(cache=ResultCache())
        self.run_request(scheduler, make_request(options=PAST_DEADLINE))
        assert len(scheduler.cache) == 0
        # a later request with time budget gets the real allocator
        fresh = self.run_request(scheduler, make_request(id="later"))
        assert not fresh.degraded and not fresh.cached
        assert fresh.effective_allocator == "full"

    def test_repeat_of_a_degraded_answer_is_a_correct_miss(self, parses):
        direct = execute_request(make_request(id="direct"))
        del parses[:]
        scheduler = Scheduler(cache=ResultCache())
        degraded = self.run_request(
            scheduler, make_request(id="a", options=PAST_DEADLINE))
        assert degraded.degraded and len(scheduler.cache) == 0
        fresh = self.run_request(scheduler, make_request(id="b"))
        assert len(parses) == 2
        assert not fresh.degraded and not fresh.cached
        assert fresh.result_digest == direct.result_digest
        repeat = self.run_request(scheduler, make_request(id="c"))
        assert repeat.cached and len(parses) == 2
        assert repeat.result_digest == direct.result_digest

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
    """Old clients may still send ``fingerprint_hint``; it is ignored."""

    def run_request(self, scheduler, request):
        future = scheduler.submit(request)
        while not future.done():
            scheduler.run_once()
        return future.result()

    def test_forged_hint_gets_the_requests_own_result(self):
        scheduler = Scheduler(cache=ResultCache())
        other = self.run_request(
            scheduler, make_request(id="a", allocator="chaitin"))
        wire = make_request(id="b", allocator="full").to_wire()
        wire["fingerprint_hint"] = other.fingerprint
        forged = self.run_request(scheduler,
                                  AllocationRequest.from_wire(wire))
        honest = execute_request(make_request(id="c", allocator="full"))
        assert forged.ok and not forged.cached
        assert forged.fingerprint != other.fingerprint
        assert forged.result_digest == honest.result_digest
        assert forged.result_digest != other.result_digest

    @pytest.mark.parametrize("hint", ["ab" * 32, "", 1234, None, ["x"]],
                             ids=["valid", "empty", "int", "null", "list"])
    def test_line_carrying_a_hint_is_accepted(self, hint):
        wire = make_request(id="a").to_wire()
        wire["fingerprint_hint"] = hint
        request = AllocationRequest.from_wire(
            json.loads(canonical_json(wire)))
        assert request.id == "a" and request.ir == IR
        assert "fingerprint_hint" not in request.to_wire()


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
        """A pool whose workers die before sending their "ready" message
        says which workers died and with what exit codes."""
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

    def test_every_session_rung_has_a_contract_counter(self):
        from repro.service.scheduler import _SESSION_RUNG_COUNTERS
        from repro.service.schema import SCHEMA_VERSION, SERVICE_COUNTERS

        assert set(_SESSION_RUNG_COUNTERS) == {"new", "value", "rename",
                                               "rebuild"}
        assert set(_SESSION_RUNG_COUNTERS.values()) <= set(SERVICE_COUNTERS)
        # v7 added session_patches_rename
        assert SCHEMA_VERSION >= 7
        assert "session_patches_rename" in SERVICE_COUNTERS

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

    def test_router_stats_document_is_retired(self):
        from repro.service import schema

        assert "cluster_stats" not in schema.SCHEMA_TYPES
        assert not hasattr(schema, "cluster_stats_payload")
        # the cache snapshot keeps its v2 backend section
        assert "backend" in ResultCache().snapshot()
