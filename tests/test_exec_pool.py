"""The persistent worker pool: mechanics, faults, and the alloc path.

The pool contract under test (see :mod:`repro.exec.pool`): results come
back in submission order whatever the completion order; a crashed worker
is respawned and its job retried; a job past its deadline gets its
worker killed without stalling the rest of the batch; task errors
propagate deterministically instead of being retried; and — the property
everything else serves — a batch that survives faults is byte-identical
to a serial run.

Fault injection is deterministic (:class:`repro.exec.FaultPlan`, keyed
by pool-assigned job sequence numbers), so none of these tests rely on
timing races to produce a failure.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import repro

from repro.errors import AllocationError
from repro.exec import (
    DEFAULT_TASK,
    FaultPlan,
    FaultSpec,
    JobCrashError,
    JobDeadlineError,
    WorkerPool,
    WorkerPoolUnavailable,
)
from repro.exec.pool import _worker_main, resolve_task
from repro.ir.parser import parse_module
from repro.pipeline import allocate_module, prepare_module
from repro.regalloc import AllocationOptions
from repro.service.cache import ResultCache
from repro.service.protocol import AllocationRequest, MachineSpec
from repro.service.scheduler import (
    ALLOCATOR_FACTORIES,
    Scheduler,
    degrade_for,
    render_allocation,
)
from repro.target.presets import make_machine

#: fast-failure knobs shared by the mechanics tests
FAST = dict(heartbeat_s=0.05, backoff_s=0.01, start_timeout_s=30.0)

PERSISTENT = tuple(range(16))


def double(payload):
    return payload * 2


def failing(payload):
    raise ValueError(f"task rejected {payload!r}")


def run_batch(pool, payloads, deadline_s=None):
    with pool:
        return pool.run_batch(payloads, deadline_s=deadline_s)


class TestFaultPlan:
    def test_crash_on_fires_only_on_listed_attempts(self):
        plan = FaultPlan.crash_on(3)
        assert plan.lookup(3, 0).kind == "crash"
        assert plan.lookup(3, 1) is None
        assert plan.lookup(4, 0) is None

    def test_poison_persists_across_attempts(self):
        plan = FaultPlan.poison(1)
        for attempt in range(8):
            assert plan.lookup(1, attempt).kind == "error"

    def test_sleep_requires_positive_duration(self):
        with pytest.raises(ValueError, match="sleep_s"):
            FaultSpec("sleep", sleep_s=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec("segfault")

    def test_merged_and_truthiness(self):
        merged = FaultPlan.merged(FaultPlan.crash_on(0),
                                  FaultPlan.poison(2))
        assert merged.lookup(0, 0).kind == "crash"
        assert merged.lookup(2, 0).kind == "error"
        assert merged and not FaultPlan()


class TestResolveTask:
    def test_callable_passes_through(self):
        assert resolve_task(double) is double

    def test_module_attr_spec_resolves(self):
        from repro.exec.alloctask import run_alloc_job

        assert resolve_task(DEFAULT_TASK) is run_alloc_job

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError, match="module:attr"):
            resolve_task("no-colon-here")


class TestPoolMechanics:
    def test_results_in_submission_order(self):
        pool = WorkerPool(workers=2, task=double, **FAST)
        results = run_batch(pool, list(range(8)))
        assert [r.value for r in results] == [i * 2 for i in range(8)]
        assert all(r.ok and r.kind == "ok" and r.attempts == 1
                   for r in results)
        assert pool.counters["jobs_ok"] == 8

    def test_task_error_propagates_and_worker_survives(self):
        pool = WorkerPool(workers=2, task=failing, **FAST)
        with pool:
            first = pool.run_batch(["a"])
            # the worker that raised is still alive for the next batch
            second = pool.run_batch(["b"])
        for res in (first[0], second[0]):
            assert not res.ok and res.kind == "error"
            assert isinstance(res.error, ValueError)
            assert "task rejected" in str(res.error)
        assert pool.counters["jobs_error"] == 2
        assert pool.counters["crashes"] == 0

    def test_injected_error_is_not_retried(self):
        pool = WorkerPool(workers=1, task=double,
                          fault_plan=FaultPlan.poison(0), **FAST)
        results = run_batch(pool, [5, 6])
        assert results[0].kind == "error" and results[0].attempts == 1
        assert isinstance(results[0].error, RuntimeError)
        assert results[1].ok and results[1].value == 12
        assert pool.counters["retries"] == 0

    def test_crashed_worker_respawns_and_job_retries(self):
        pool = WorkerPool(workers=2, task=double,
                          fault_plan=FaultPlan.crash_on(1), **FAST)
        results = run_batch(pool, list(range(4)))
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert results[1].attempts == 2
        assert pool.counters["crashes"] >= 1
        assert pool.counters["retries"] >= 1
        assert pool.counters["respawns"] >= 1

    def test_persistent_crash_exhausts_retries(self):
        pool = WorkerPool(workers=2, task=double, max_retries=1,
                          fault_plan=FaultPlan.crash_on(
                              0, attempts=PERSISTENT), **FAST)
        results = run_batch(pool, [1, 2, 3])
        assert results[0].kind == "crash"
        assert isinstance(results[0].error, JobCrashError)
        assert results[0].attempts == 2  # first try + one retry
        # the rest of the batch was never held hostage
        assert [r.value for r in results[1:]] == [4, 6]
        assert pool.counters["jobs_crashed"] == 1

    def test_deadline_kills_and_recovers_on_retry(self):
        pool = WorkerPool(workers=2, task=double,
                          fault_plan=FaultPlan.sleep_on(0, 5.0), **FAST)
        results = run_batch(pool, [7, 8], deadline_s=0.2)
        assert results[0].ok and results[0].value == 14
        assert results[0].attempts == 2
        assert results[1].ok
        assert pool.counters["deadline_kills"] == 1

    def test_deadline_exhausted_surfaces_without_stalling(self):
        pool = WorkerPool(workers=2, task=double, max_retries=1,
                          fault_plan=FaultPlan.sleep_on(
                              0, 5.0, attempts=PERSISTENT), **FAST)
        results = run_batch(pool, [1, 2, 3, 4], deadline_s=0.15)
        assert results[0].kind == "deadline"
        assert isinstance(results[0].error, JobDeadlineError)
        assert "deadline" in str(results[0].error)
        assert [r.value for r in results[1:]] == [4, 6, 8]
        assert pool.counters["deadline_kills"] == 2
        assert pool.counters["jobs_deadline"] == 1

    def test_no_respawn_budget_fails_pending_jobs(self):
        pool = WorkerPool(workers=1, task=double, max_respawns=0,
                          fault_plan=FaultPlan.crash_on(
                              0, attempts=PERSISTENT), **FAST)
        results = run_batch(pool, [1])
        assert results[0].kind == "crash"
        assert "no live workers" in str(results[0].error) \
            or "lost its worker" in str(results[0].error)

    def test_sequence_numbers_span_batches(self):
        # The fault targets job seq 2 — the first job of the *second*
        # batch — proving plans key on pool-lifetime sequence numbers.
        pool = WorkerPool(workers=1, task=double,
                          fault_plan=FaultPlan.crash_on(2), **FAST)
        with pool:
            first = pool.run_batch([1, 2])
            second = pool.run_batch([3, 4])
        assert all(r.ok for r in first) and first[0].attempts == 1
        assert second[0].ok and second[0].attempts == 2

    def test_snapshot_shape_and_counters(self):
        pool = WorkerPool(workers=2, task=double, **FAST)
        with pool:
            pool.run_batch([1, 2, 3])
            snap = pool.snapshot()
        assert snap["workers"] == 2
        assert snap["alive"] == 2
        assert snap["started"] is True
        assert snap["counters"]["jobs_submitted"] == 3
        assert len(snap["per_worker"]) == 2
        for worker in snap["per_worker"]:
            assert {"slot", "pid", "alive", "busy", "retired", "jobs_ok",
                    "jobs_err", "deaths", "heartbeat_age_s"} <= set(worker)

    def test_shutdown_is_idempotent_and_closes_the_pool(self):
        pool = WorkerPool(workers=1, task=double, **FAST)
        pool.ensure_started()
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(WorkerPoolUnavailable, match="shut down"):
            pool.run_batch([1])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)


#: a pool owner that prints its worker pids, then idles until killed
POOL_OWNER = """
import time
from repro.exec import WorkerPool
pool = WorkerPool(workers=2)
pool.ensure_started()
print(*(w["pid"] for w in pool.snapshot()["per_worker"]), flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestOrphanedWorkers:
    def test_sigterm_to_the_owner_stops_its_workers(self):
        # SIGTERM skips the interpreter's exit hooks, so the pool never
        # shuts down; each worker must notice its parent is gone.
        src = str(Path(repro.__file__).resolve().parents[1])
        owner = subprocess.Popen(
            [sys.executable, "-c", POOL_OWNER], stdout=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": src})
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2
            assert all(_running(pid) for pid in pids)
            owner.send_signal(signal.SIGTERM)
            owner.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in pids) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()

    def test_worker_checks_the_owner_it_was_given(self):
        # The owner pid comes from the spawning process, not from the
        # worker's own getppid() after its task import: a worker whose
        # parent is not the owner it was handed is orphaned and must
        # return at its first idle tick.
        beats = [0.0]
        worker = threading.Thread(target=_worker_main, args=(
            0, queue.Queue(), queue.Queue(), beats, "builtins:len",
            None, 0.01, os.getpid()), daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert beats[0] > 0.0


# ----------------------------------------------------------------------
# the allocation path: faults must never change results

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


def module_ir(n: int = 3) -> str:
    return "\n".join(IR.replace("axpy", f"axpy{i}") for i in range(n))


def alloc_fingerprint(run) -> tuple:
    return (render_allocation(run), vars(run.stats), run.cycles.total)


class TestAllocationUnderFaults:
    @pytest.fixture
    def prepared(self):
        machine = make_machine(8)
        return prepare_module(parse_module(module_ir()), machine), machine

    def serial(self, prepared, machine):
        return allocate_module(prepared, machine,
                               ALLOCATOR_FACTORIES["full"]())

    @pytest.mark.parametrize("plan,deadline_ms,minimums", [
        pytest.param(FaultPlan.crash_on(1), None, {"crashes": 1},
                     id="crash"),
        pytest.param(FaultPlan.crash_on(0, 1, 2), None,
                     {"crashes": 2, "respawns": 1}, id="crash_storm"),
        pytest.param(FaultPlan.sleep_on(0, 5.0), 500,
                     {"deadline_kills": 1}, id="deadline"),
    ])
    def test_crash_recovery_is_byte_identical(self, prepared, plan,
                                              deadline_ms, minimums):
        prepared, machine = prepared
        want = alloc_fingerprint(self.serial(prepared, machine))
        with WorkerPool(workers=4, fault_plan=plan, **FAST) as pool:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no fallback happened
                got = allocate_module(
                    prepared, machine, ALLOCATOR_FACTORIES["full"](),
                    AllocationOptions(jobs=4, deadline_ms=deadline_ms),
                    pool=pool)
            for counter, floor in minimums.items():
                assert pool.counters[counter] >= floor, counter
        assert alloc_fingerprint(got) == want

    def test_retries_exhausted_falls_back_serially(self, prepared):
        prepared, machine = prepared
        want = alloc_fingerprint(self.serial(prepared, machine))
        with WorkerPool(workers=2, max_retries=0,
                        fault_plan=FaultPlan.crash_on(
                            0, attempts=PERSISTENT), **FAST) as pool:
            with pytest.warns(RuntimeWarning, match="gave up on 'axpy0'"):
                got = allocate_module(
                    prepared, machine, ALLOCATOR_FACTORIES["full"](),
                    AllocationOptions(jobs=2), pool=pool)
        assert alloc_fingerprint(got) == want

    def test_worker_task_error_propagates(self, prepared):
        prepared, machine = prepared
        with WorkerPool(workers=2, fault_plan=FaultPlan.poison(0),
                        **FAST) as pool:
            with pytest.raises(RuntimeError, match="injected fault"):
                allocate_module(prepared, machine,
                                ALLOCATOR_FACTORIES["full"](),
                                AllocationOptions(jobs=2), pool=pool)

    def test_deadline_exhausted_raises_for_the_caller(self, prepared):
        prepared, machine = prepared
        plan = FaultPlan.sleep_on(0, 5.0, attempts=PERSISTENT)
        with WorkerPool(workers=2, max_retries=0, fault_plan=plan,
                        **FAST) as pool:
            with pytest.raises(JobDeadlineError):
                allocate_module(prepared, machine,
                                ALLOCATOR_FACTORIES["full"](),
                                AllocationOptions(jobs=2, deadline_ms=150),
                                pool=pool)

    def test_allocation_error_crosses_the_process_boundary(self):
        # A genuinely unallocatable function (peak no-spill pressure
        # over k) must raise the same AllocationError from a worker as
        # it does serially — error-kind results re-raise, not retry.
        from repro.workloads.generator import generate_function
        from repro.workloads.profiles import BenchmarkProfile

        profile = BenchmarkProfile(name="press", stmts=14, int_pool=8,
                                   float_pool=2, call_prob=0.3,
                                   branch_prob=0.2, paired_prob=0.6,
                                   load_prob=0.4, store_prob=0.2,
                                   max_params=1, max_call_args=1)
        machine = make_machine(2)  # one parameter register only
        module = parse_module("""func fine(%p0) -> value {
entry:
  %x = load [%p0+0]
  %y = add %x, 1
  ret %y
}
""")
        module.add(generate_function("press", profile, seed=0))
        prepared = prepare_module(module, machine)
        with WorkerPool(workers=2, **FAST) as pool:
            with pytest.raises(AllocationError,
                               match="pressure cannot be met"):
                allocate_module(prepared, machine,
                                ALLOCATOR_FACTORIES["chaitin"](),
                                AllocationOptions(jobs=2), pool=pool)


class TestSchedulerWithPool:
    def run_request(self, scheduler, request):
        future = scheduler.submit(request)
        while not future.done():
            scheduler.run_once()
        return future.result()

    def request(self, **overrides):
        base = dict(id="pool", ir=module_ir(), allocator="full",
                    machine=MachineSpec(regs=8))
        base.update(overrides)
        return AllocationRequest(**base)

    def serial_digest(self):
        scheduler = Scheduler(cache=None)
        try:
            return self.run_request(scheduler, self.request()).result_digest
        finally:
            scheduler.stop()

    def test_pooled_scheduler_matches_serial_digest(self):
        want = self.serial_digest()
        scheduler = Scheduler(cache=ResultCache(),
                              options=AllocationOptions(jobs=2))
        try:
            response = self.run_request(scheduler, self.request())
            assert response.ok and not response.degraded
            assert response.result_digest == want
        finally:
            scheduler.stop()

    def test_worker_crash_mid_batch_still_matches_serial(self):
        want = self.serial_digest()
        scheduler = Scheduler(cache=ResultCache(),
                              options=AllocationOptions(jobs=2),
                              fault_plan=FaultPlan.crash_on(0))
        try:
            response = self.run_request(scheduler, self.request())
            assert response.ok and not response.degraded
            assert response.result_digest == want
            pool_stats = scheduler.metrics.snapshot()["worker_pool"]
            assert pool_stats["counters"]["crashes"] >= 1
            assert pool_stats["counters"]["retries"] >= 1
            assert len(pool_stats["per_worker"]) == 2
        finally:
            scheduler.stop()

    def test_worker_deadline_kill_degrades_gracefully(self):
        plan = FaultPlan({seq: FaultSpec("sleep", sleep_s=5.0,
                                         attempts=PERSISTENT)
                          for seq in range(3)})
        scheduler = Scheduler(cache=ResultCache(),
                              options=AllocationOptions(jobs=2),
                              fault_plan=plan)
        try:
            request = self.request(
                options=AllocationOptions(deadline_ms=150))
            response = self.run_request(scheduler, request)
            # the client still gets a real allocation, one rung down
            assert response.ok and response.degraded
            assert response.effective_allocator == degrade_for("full")
            assert "$r" in response.code
            counters = scheduler.metrics.counters
            assert counters["worker_deadline_kills"] == 1
            assert counters["deadline_misses"] >= 1
        finally:
            scheduler.stop()

    def test_serve_jobs_survives_worker_kill_byte_identically(self):
        # The acceptance scenario end-to-end: a TCP client submits to a
        # --jobs 2 server whose pool loses a worker mid-batch; the bytes
        # on the wire equal the no-fault server's bytes.
        from repro.service import ServerThread, ServiceClient

        def serve_and_collect(fault_plan):
            scheduler = Scheduler(cache=ResultCache(),
                                  options=AllocationOptions(jobs=2),
                                  fault_plan=fault_plan)
            thread = ServerThread(scheduler)
            host, port = thread.start()
            try:
                client = ServiceClient(host, port, timeout=120.0)
                return client.allocate(self.request())
            finally:
                thread.stop()

        clean = serve_and_collect(None)
        faulted = serve_and_collect(FaultPlan.crash_on(1))
        assert clean.ok and faulted.ok
        assert faulted.result_digest == clean.result_digest
        assert faulted.code == clean.code
