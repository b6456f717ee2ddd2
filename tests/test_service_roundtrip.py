"""In-process server round trip: 50 mixed requests over TCP.

The acceptance contract of the service layer:

* non-degraded responses are byte-identical to a direct
  ``allocate_module`` run over the same prepared module;
* repeated submissions answer from the content-addressed cache
  (hit ratio > 0 in ``stats``);
* a past-deadline request degrades to a valid allocation
  (``degraded: true``) instead of erroring.
"""

import io
import json

import pytest

from repro.ir.parser import parse_module
from repro.pipeline import allocate_module, prepare_module
from repro.service import (
    AllocationRequest,
    MachineSpec,
    ResultCache,
    Scheduler,
    ServerThread,
    ServiceClient,
    ServiceMetrics,
)
from repro.service.scheduler import ALLOCATOR_FACTORIES, render_allocation
from repro.service.server import serve_stdio
from repro.workloads import make_benchmark

IR_TEMPLATE = """func kernel{tag}(%p0, %p1) -> value {{
entry:
  %acc = {init}
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
}}
"""


def sample_ir(tag: int) -> str:
    return IR_TEMPLATE.format(tag=tag, init=tag)


def direct_render(ir_or_bench, allocator: str, regs: int) -> str:
    """The reference: a direct pipeline run, rendered like the server."""
    machine = MachineSpec(regs=regs).build()
    if ir_or_bench.startswith("func"):
        module = parse_module(ir_or_bench)
    else:
        module = make_benchmark(ir_or_bench)
    prepared = prepare_module(module, machine)
    run = allocate_module(prepared, machine,
                          ALLOCATOR_FACTORIES[allocator]())
    return render_allocation(run)


def mixed_schedule() -> list:
    """50 requests: 5 IR modules x allocator rotation, heavy duplication,
    one benchmark source, one past-deadline."""
    allocators = ["full", "chaitin", "briggs", "only-coalescing"]
    requests = []
    for i in range(49):
        requests.append(AllocationRequest(
            id=f"mix-{i}",
            ir=sample_ir(i % 5),
            allocator=allocators[i % len(allocators)],
            machine=MachineSpec(regs=8),
        ))
    requests.append(AllocationRequest(
        id="late", ir=sample_ir(999), allocator="full",
        machine=MachineSpec(regs=8), deadline_s=0.0,
    ))
    return requests


@pytest.fixture(scope="module")
def server():
    scheduler = Scheduler(cache=ResultCache(max_entries=128),
                          metrics=ServiceMetrics(), max_queue=128)
    thread = ServerThread(scheduler)
    host, port = thread.start()
    yield host, port
    thread.stop()


class TestRoundTrip:
    def test_fifty_mixed_requests(self, server):
        host, port = server
        client = ServiceClient(host, port, timeout=120.0)
        requests = mixed_schedule()
        responses = [client.allocate(req) for req in requests]

        assert all(r.ok for r in responses)
        by_id = {r.id: r for r in responses}

        # the past-deadline request degraded but still allocated
        late = by_id["late"]
        assert late.degraded
        assert late.effective_allocator == "chaitin"
        assert "$r" in late.code
        assert late.code == direct_render(sample_ir(999), "chaitin", 8)

        # every non-degraded response is byte-identical to a direct run
        reference: dict = {}
        for req, resp in zip(requests, responses):
            if resp.degraded:
                continue
            key = (req.ir, req.allocator)
            if key not in reference:
                reference[key] = direct_render(req.ir, req.allocator, 8)
            assert resp.code == reference[key], resp.id
            assert resp.effective_allocator == req.allocator

        # duplicates hit the cache and return the same digest
        assert any(r.cached for r in responses)
        seen: dict = {}
        for req, resp in zip(requests, responses):
            key = (req.ir, req.allocator)
            if key in seen:
                assert resp.result_digest == seen[key]
            else:
                seen[key] = resp.result_digest

        stats = client.stats()
        metrics = stats["metrics"]
        assert metrics["cache_hit_ratio"] > 0
        assert metrics["counters"]["responses_ok"] >= 50
        assert metrics["counters"]["degraded_total"] == 1
        assert stats["cache"]["hits"] > 0

    def test_bench_source_round_trip(self, server):
        host, port = server
        client = ServiceClient(host, port, timeout=120.0)
        request = AllocationRequest(id="bench-1", bench="db",
                                    allocator="chaitin",
                                    machine=MachineSpec(regs=16))
        response = client.allocate(request)
        assert response.ok and not response.degraded
        assert response.code == direct_render("db", "chaitin", 16)

    def test_ping_and_malformed_line(self, server):
        import socket

        host, port = server
        assert ServiceClient(host, port).ping()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            reply = sock.recv(65536)
        assert b"malformed JSON" in reply

    def test_oversized_line_gets_an_error_then_close(self, server):
        import socket

        from repro.service.server import LINE_LIMIT

        host, port = server
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b'{"type": "allocate", "ir": "'
                         + b"x" * (2 * LINE_LIMIT) + b'"}\n')
            stream = sock.makefile("rb")
            reply = json.loads(stream.readline())
            assert stream.readline() == b""  # connection closed
        assert reply["ok"] is False
        assert f"{LINE_LIMIT}-byte line limit" in reply["error"]
        # The server keeps serving the next connection.
        assert ServiceClient(host, port).ping()

    def test_unknown_allocator_over_the_wire(self, server):
        host, port = server
        reply = ServiceClient(host, port).request({
            "type": "allocate", "id": "bad", "ir": sample_ir(0),
            "allocator": "linear-scan",
        })
        assert reply["ok"] is False
        assert "allocator" in reply["error"]


class TestStdioServer:
    def test_stdio_loop_speaks_the_same_protocol(self):
        scheduler = Scheduler(cache=ResultCache())
        scheduler.start()
        try:
            request = AllocationRequest(id="s1", ir=sample_ir(1),
                                        allocator="chaitin",
                                        machine=MachineSpec(regs=8))
            lines = [
                '{"type": "ping"}',
                request.to_json(),
                request.to_json(),  # cache hit
                '{"type": "stats"}',
                '{"type": "shutdown"}',
            ]
            out = io.StringIO()
            serve_stdio(scheduler, iter(lines), out)
        finally:
            scheduler.stop()
        import json

        replies = [json.loads(line) for line in
                   out.getvalue().splitlines()]
        assert replies[0]["type"] == "pong"
        assert replies[1]["ok"] and not replies[1]["cached"]
        assert replies[2]["ok"] and replies[2]["cached"]
        assert replies[1]["result_digest"] == replies[2]["result_digest"]
        assert replies[3]["metrics"]["cache_hit_ratio"] > 0
        assert replies[4]["type"] == "shutdown"
        assert replies[1]["code"] == direct_render(sample_ir(1),
                                                   "chaitin", 8)
