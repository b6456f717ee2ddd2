"""The cluster tier: cache peer, shard health, router, supervision.

Most tests run the shards *in process* (a Scheduler + ServerThread per
shard, all plugged into one shared CachePeerServer) so they are fast
and deterministic; the resilience drill at the bottom spawns real
``repro serve`` subprocesses and SIGKILLs one mid-load.
"""

import json
import socket
import threading
import time
from dataclasses import replace

import pytest

from repro.cluster.cachepeer import (
    CachePeerServer,
    PeerCacheBackend,
    parse_hostport,
)
from repro.cluster.health import ShardHandle, ShardHealth
from repro.cluster.router import (
    ClusterMetrics,
    ClusterRouter,
    ClusterServerThread,
)
from repro.cluster.shards import ClusterSupervisor
from repro.service.cache import DiskCacheBackend, ResultCache
from repro.service.client import ServiceClient
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AllocationRequest,
    AllocationResponse,
    MachineSpec,
)
from repro.service.scheduler import Scheduler
from repro.service.server import ServerThread


def make_request(rid="c1", bench="compress", allocator="chaitin",
                 regs=12, **overrides) -> AllocationRequest:
    base = dict(id=rid, bench=bench, allocator=allocator,
                machine=MachineSpec(regs=regs))
    base.update(overrides)
    return AllocationRequest(**base)


def sealed_entry(degraded=False) -> AllocationResponse:
    return AllocationResponse(
        ok=True, allocator="full", effective_allocator="full",
        degraded=degraded, code="func f() {}", stats={"moves_before": 1},
        cycles={"total": 2.0}).seal()


class TestParseHostport:
    def test_host_and_port(self):
        assert parse_hostport("10.0.0.7:9000") == ("10.0.0.7", 9000)

    def test_bare_port_gets_default_host(self):
        assert parse_hostport("9000") == ("127.0.0.1", 9000)

    def test_garbage_raises(self):
        with pytest.raises(ValueError, match="bad host:port"):
            parse_hostport("nope")


class TestShardHealth:
    def make(self, n=3, **kw) -> ShardHealth:
        handles = [ShardHandle(i, "127.0.0.1", 7000 + i) for i in range(n)]
        kw.setdefault("saturation", 2)
        return ShardHealth(handles, **kw)

    def test_home_shard_is_digest_stable(self):
        health = self.make()
        digest = "ab" * 32
        assert health.home_shard(digest) == health.home_shard(digest)
        assert 0 <= health.home_shard(digest) < 3

    def test_route_order_is_the_ring_from_home(self):
        health = self.make()
        digest = "00" * 32  # home 0
        assert [s.index for s in health.route_order(digest)] == [0, 1, 2]

    def test_down_shard_leaves_the_ring_until_probe_due(self):
        health = self.make(probe_backoff_s=30.0)
        health.record_failure(1, "boom")
        health.record_failure(1, "boom")  # max_failures=2 -> down
        assert not health.available(1)
        order = [s.index for s in health.route_order("00" * 32)]
        assert order == [0, 2]
        snap = health.snapshot()[1]
        assert not snap["up"] and snap["downs"] == 1
        assert snap["last_error"] == "boom"

    def test_probe_backoff_elapses_then_success_recovers(self):
        health = self.make(probe_backoff_s=0.01)
        health.record_failure(0)
        health.record_failure(0)
        time.sleep(0.05)
        assert health.available(0)  # half-open probe due
        health.begin(0)
        # while one probe is in flight, no second probe is allowed
        assert not health.available(0)
        health.record_success(0)
        health.end(0)
        assert health.available(0) and health.snapshot()[0]["up"]

    def test_backoff_doubles_while_down(self):
        health = self.make(probe_backoff_s=1.0, max_backoff_s=600.0)
        for _ in range(4):
            health.record_failure(2)
        state = health._states[2]
        assert state.backoff_s == 4.0  # 1.0 * 2**(4-2)

    def test_saturation_overload_and_rejection(self):
        health = self.make(saturation=2)  # hard limit 4
        assert not health.overloaded() and not health.rejecting()
        for index in range(3):
            for _ in range(2):
                health.begin(index)
        assert health.overloaded() and not health.rejecting()
        for index in range(3):
            for _ in range(2):
                health.begin(index)
        assert health.rejecting()
        for index in range(3):
            for _ in range(4):
                health.end(index)
        assert not health.overloaded()

    def test_mark_down_and_up_round_trip(self):
        health = self.make(probe_backoff_s=30.0)
        health.mark_down(1, "process died")
        assert not health.available(1)
        health.mark_up(1)
        assert health.available(1) and health.snapshot()[1]["up"]

    def test_no_shards_rejects(self):
        with pytest.raises(ValueError):
            ShardHealth([])


class TestCachePeer:
    @pytest.fixture()
    def peer(self):
        server = CachePeerServer(store=ResultCache(max_entries=16))
        server.start()
        yield server
        server.stop()

    def test_put_get_round_trip_over_tcp(self, peer):
        backend = PeerCacheBackend(peer.host, peer.port)
        entry = sealed_entry()
        backend.put("k1", entry)
        got = backend.get("k1")
        assert got is not None
        assert got.result_digest == entry.result_digest
        assert backend.hits == 1
        assert peer.counters["puts"] == 1
        assert peer.counters["get_hits"] == 1

    def test_miss_is_a_clean_none(self, peer):
        backend = PeerCacheBackend(peer.host, peer.port)
        assert backend.get("absent") is None
        assert backend.errors == 0

    def test_degraded_entries_are_refused(self, peer):
        backend = PeerCacheBackend(peer.host, peer.port)
        backend.put("bad", sealed_entry(degraded=True))
        assert backend.get("bad") is None
        assert len(peer.store) == 0

    def test_malformed_ops_are_counted_not_fatal(self, peer):
        with socket.create_connection((peer.host, peer.port)) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile().readline())
        assert reply["ok"] is False
        assert peer.counters["bad_ops"] == 1
        # the server still works afterwards
        backend = PeerCacheBackend(peer.host, peer.port)
        backend.put("k", sealed_entry())
        assert backend.get("k") is not None

    def test_tampered_peer_reply_is_a_counted_miss(self, peer):
        entry = sealed_entry()
        entry.fingerprint = "k-tamper"
        # The peer serves the entry with a flipped byte in ``code`` — a
        # well-formed reply whose digest no longer matches.
        peer.store.put("k-tamper", replace(entry, code="func g() {}"))
        # ...and a well-formed entry filed under another key.
        peer.store.put("k-misfiled", entry)
        backend = PeerCacheBackend(peer.host, peer.port)
        assert backend.get("k-tamper") is None
        assert backend.get("k-misfiled") is None
        assert backend.hits == 0 and backend.errors == 0
        assert backend.snapshot()["integrity_failures"] == 2
        peer.store.put("k-tamper", entry)
        assert backend.get("k-tamper") is not None

    def test_breaker_trips_after_consecutive_failures(self):
        # grab a port with nothing listening on it
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = PeerCacheBackend("127.0.0.1", port, timeout=0.2,
                                   max_failures=2, cooldown_s=60.0)
        assert backend.get("k") is None
        assert backend.get("k") is None
        assert backend.trips == 1
        # open breaker: instant miss, no further errors recorded
        errors = backend.errors
        assert backend.get("k") is None
        assert backend.errors == errors
        assert backend.snapshot()["tripped"]

    def test_result_cache_uses_peer_as_l2(self, peer):
        writer = ResultCache(max_entries=4,
                             backend=PeerCacheBackend(peer.host, peer.port))
        reader = ResultCache(max_entries=4,
                             backend=PeerCacheBackend(peer.host, peer.port))
        entry = sealed_entry()
        writer.put("shared", entry)
        got = reader.get("shared")  # memory miss -> peer hit
        assert got is not None and got.result_digest == entry.result_digest
        assert reader.disk_hits == 1  # the generalized backend-hit counter
        snap = reader.snapshot()
        assert snap["backend"]["backend"] == "peer"
        assert snap["disk_dir"] is None

    def test_disk_backend_behind_peer_store(self, tmp_path):
        server = CachePeerServer(store=ResultCache(
            max_entries=4, backend=DiskCacheBackend(tmp_path)))
        server.start()
        try:
            backend = PeerCacheBackend(server.host, server.port)
            backend.put("k2", sealed_entry())
            files = list(tmp_path.rglob("*.json"))
            assert len(files) == 1
        finally:
            server.stop()


@pytest.fixture(scope="module")
def cluster():
    """Two in-process shards sharing one cache peer, plus their router."""
    peer = CachePeerServer(store=ResultCache(max_entries=256))
    peer.start()
    shards = []
    handles = []
    for index in range(2):
        cache = ResultCache(max_entries=64,
                            backend=PeerCacheBackend(peer.host, peer.port))
        scheduler = Scheduler(cache=cache)
        server = ServerThread(scheduler)
        host, port = server.start()
        shards.append((scheduler, server, cache))
        handles.append(ShardHandle(index, host, port))
    router = ClusterRouter(handles, hedge_s=5.0)
    thread = ClusterServerThread(router, "127.0.0.1", 0)
    host, port = thread.start()
    yield {
        "peer": peer,
        "handles": handles,
        "router": router,
        "client": ServiceClient(host, port),
    }
    thread.stop()
    for _scheduler, server, _cache in shards:
        server.stop()
    peer.stop()


class TestClusterRouting:
    def test_any_shard_gives_byte_identical_results(self, cluster):
        request = make_request("det", bench="db", regs=14)
        replies = []
        for handle in cluster["handles"]:
            direct = ServiceClient(handle.host, handle.port)
            reply = direct.allocate(make_request("det", bench="db", regs=14))
            assert reply.ok and not reply.degraded
            replies.append(reply)
        assert replies[0].result_digest == replies[1].result_digest
        assert replies[0].result_payload() == replies[1].result_payload()
        via_router = cluster["client"].allocate(request)
        assert via_router.ok
        assert via_router.result_digest == replies[0].result_digest

    def test_repeat_through_router_is_a_cache_hit(self, cluster):
        first = cluster["client"].allocate(make_request("r1", regs=10))
        second = cluster["client"].allocate(make_request("r2", regs=10))
        assert first.ok and second.ok
        assert second.cached
        assert first.result_digest == second.result_digest
        # The router forwarded its memoized digest as a fingerprint
        # hint, so the shard served the hit without re-normalizing the
        # module — no parse pass appears in the shard-side timings.
        assert "parse_s" not in second.timings

    def test_shards_share_results_through_the_peer(self, cluster):
        request = make_request("share-a", bench="jess", regs=8)
        a, b = cluster["handles"]
        hits_before = cluster["peer"].counters["get_hits"]
        first = ServiceClient(a.host, a.port).allocate(request)
        second = ServiceClient(b.host, b.port).allocate(
            make_request("share-b", bench="jess", regs=8))
        assert first.ok and second.ok
        assert second.cached  # b never computed it: served from the peer
        assert first.result_digest == second.result_digest
        assert cluster["peer"].counters["get_hits"] > hits_before

    def test_forced_hedging_still_non_degraded_and_identical(self, cluster):
        baseline = cluster["client"].allocate(
            make_request("h0", bench="javac", regs=10))
        handles = cluster["handles"]
        router = ClusterRouter(handles, hedge_s=0.0)  # hedge immediately
        thread = ClusterServerThread(router, "127.0.0.1", 0)
        host, port = thread.start()
        try:
            client = ServiceClient(host, port)
            for i in range(4):
                reply = client.allocate(
                    make_request(f"h{i + 1}", bench="javac", regs=10))
                assert reply.ok and not reply.degraded
                assert reply.result_digest == baseline.result_digest
            counters = router.metrics.snapshot()["counters"]
            assert counters["hedges_started"] >= 1
            wins = (counters["hedge_wins_primary"]
                    + counters["hedge_wins_fallback"])
            assert wins == counters["hedges_started"]
        finally:
            thread.stop()

    def test_stats_document_shape(self, cluster):
        stats = cluster["client"].stats()
        assert stats["type"] == "cluster_stats"
        assert stats["protocol"] == PROTOCOL_VERSION
        assert "requests_total" in stats["router"]["counters"]
        assert len(stats["shards"]) == 2
        # each probed shard answered with its own stats document
        for doc in stats["shard_stats"].values():
            assert doc["type"] == "stats"

    def test_ping_and_unknown_type(self, cluster):
        client = cluster["client"]
        assert client.request({"type": "ping"})["type"] == "pong"
        reply = client.request({"type": "frobnicate"})
        assert "unknown message type" in reply["error"]

    def test_oversized_line_gets_an_error_then_close(self, cluster):
        from repro.service.server import LINE_LIMIT

        router = cluster["router"]
        thread = ClusterServerThread(router, "127.0.0.1", 0)
        host, port = thread.start()
        try:
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(b'{"type": "allocate", "ir": "'
                             + b"x" * (2 * LINE_LIMIT) + b'"}\n')
                stream = sock.makefile("rb")
                reply = json.loads(stream.readline())
                assert stream.readline() == b""  # connection closed
            assert reply["ok"] is False
            assert f"{LINE_LIMIT}-byte line limit" in reply["error"]
            # The router keeps serving the next connection.
            assert ServiceClient(host, port).request(
                {"type": "ping"})["type"] == "pong"
        finally:
            thread.stop()

    def test_bad_request_is_an_error_response(self, cluster):
        reply = cluster["client"].request(
            {"type": "allocate", "id": "bad", "bench": "quake"})
        assert reply["ok"] is False
        assert "quake" in reply["error"]

    def test_overload_degrades_at_the_router(self, cluster):
        handles = cluster["handles"]
        router = ClusterRouter(handles, hedge_s=None, saturation=1)
        thread = ClusterServerThread(router, "127.0.0.1", 0)
        host, port = thread.start()
        try:
            for index in range(len(handles)):
                router.health.begin(index)  # soft watermark everywhere
            reply = ServiceClient(host, port).allocate(
                make_request("ov", allocator="full", regs=10))
            assert reply.ok
            assert reply.degraded
            assert reply.allocator == "full"
            assert reply.effective_allocator != "full"
            assert router.metrics.counters["degraded_total"] == 1
        finally:
            thread.stop()

    def test_full_saturation_rejects(self, cluster):
        handles = cluster["handles"]
        router = ClusterRouter(handles, hedge_s=None, saturation=1)
        thread = ClusterServerThread(router, "127.0.0.1", 0)
        host, port = thread.start()
        try:
            for index in range(len(handles)):
                for _ in range(router.health.hard_limit):
                    router.health.begin(index)
            reply = ServiceClient(host, port).request(
                make_request("rej").to_wire())
            assert reply["ok"] is False
            assert "admission control" in reply["error"]
            assert router.metrics.counters["rejected_total"] == 1
        finally:
            thread.stop()

    def test_dead_shard_is_rerouted_around(self, cluster):
        # one live shard + one dead address
        live = cluster["handles"][0]
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        handles = [ShardHandle(0, "127.0.0.1", dead_port),
                   ShardHandle(1, live.host, live.port)]
        router = ClusterRouter(handles, hedge_s=None)
        thread = ClusterServerThread(router, "127.0.0.1", 0)
        host, port = thread.start()
        try:
            client = ServiceClient(host, port)
            for i in range(4):  # some digests will home on the dead shard
                reply = client.allocate(
                    make_request(f"rr{i}", regs=8 + 2 * i))
                assert reply.ok
            counters = router.metrics.snapshot()["counters"]
            assert counters["responses_ok"] == 4
        finally:
            thread.stop()

    def test_worker_crash_inside_shard_is_invisible(self, cluster):
        from repro.exec.faults import FaultPlan

        from repro.regalloc import AllocationOptions

        cache = ResultCache(max_entries=8)
        scheduler = Scheduler(cache=cache,
                              options=AllocationOptions(jobs=2),
                              fault_plan=FaultPlan.crash_on(0))
        shard = ServerThread(scheduler)
        host, port = shard.start()
        router = ClusterRouter([ShardHandle(0, host, port)], hedge_s=None)
        thread = ClusterServerThread(router, "127.0.0.1", 0)
        rhost, rport = thread.start()
        try:
            reply = ServiceClient(rhost, rport).allocate(
                make_request("crash", bench="db", allocator="full", regs=8))
            assert reply.ok  # the pool's retry absorbed the crash
        finally:
            thread.stop()
            shard.stop()


class TestClusterMetrics:
    def test_hedge_win_rate(self):
        metrics = ClusterMetrics()
        assert metrics.hedge_win_rate == 0.0
        metrics.inc("hedges_started", 4)
        metrics.inc("hedge_wins_fallback", 1)
        assert metrics.hedge_win_rate == 0.25
        assert metrics.snapshot()["hedge_win_rate"] == 0.25


@pytest.mark.slow
class TestClusterResilience:
    """Real subprocess shards; one gets SIGKILLed under load."""

    def test_shard_kill_under_load_loses_no_requests(self, tmp_path):
        supervisor = ClusterSupervisor(shards=3, jobs=1, cache_size=32,
                                       disk_dir=None)
        handles = supervisor.start()
        router = ClusterRouter(handles, supervisor=supervisor, hedge_s=1.0,
                               supervise_interval_s=0.2)
        thread = ClusterServerThread(router, "127.0.0.1", 0)
        host, port = thread.start()
        failures: list = []
        responses: list = []
        lock = threading.Lock()

        def submit(rid: str, regs: int) -> None:
            try:
                reply = ServiceClient(host, port, timeout=120.0).allocate(
                    make_request(rid, regs=regs))
            except Exception as err:  # noqa: BLE001 - recording, not hiding
                with lock:
                    failures.append((rid, repr(err)))
                return
            with lock:
                responses.append(reply)
                if not reply.ok:
                    failures.append((rid, reply.error))

        try:
            # find request "warm"'s home shard, then warm the caches
            warm = make_request("warm", regs=10)
            digest = router._digest_for(warm)
            home = router.health.home_shard(digest)
            first = ServiceClient(host, port).allocate(warm)
            assert first.ok and not first.cached

            threads = [
                threading.Thread(target=submit,
                                 args=(f"load{i}", 8 + 2 * (i % 4)))
                for i in range(10)
            ]
            for worker in threads:
                worker.start()
            time.sleep(0.15)  # let the load get in flight
            victim_pid = supervisor.processes[home].pid
            supervisor.kill_shard(home)
            for worker in threads:
                worker.join(timeout=150)
            assert failures == []
            assert len(responses) == 10
            assert all(reply.ok for reply in responses)

            # the killed home shard's entry survives in the peer tier:
            # the rerouted (or respawned, cold-L1) shard serves it as a hit
            again = ServiceClient(host, port).allocate(
                make_request("warm2", regs=10))
            assert again.ok
            assert again.cached
            assert again.result_digest == first.result_digest
            assert supervisor.peer.counters["get_hits"] >= 1

            # supervision refills the seat with a fresh process
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                shard = supervisor.processes[home]
                if (shard is not None and shard.alive()
                        and shard.pid != victim_pid):
                    break
                time.sleep(0.2)
            shard = supervisor.processes[home]
            assert shard is not None and shard.alive()
            assert shard.pid != victim_pid
            assert supervisor.respawns >= 1
        finally:
            thread.stop()
            supervisor.stop()
