"""Persistent fault-tolerant worker pool.

The execution backend behind ``allocate_module(jobs=N)`` and the
service scheduler.  Unlike a per-call ``ProcessPoolExecutor``, the pool
is long-lived: worker processes stay up across batches and pay their
imports once, and the pool survives the worst-case behavior the
spill-everywhere complexity results promise — a crashed worker, a
wedged worker, a poisoned job:

* **isolation** — every worker has its own inbox/outbox queue pair, so
  a worker killed mid-write can only corrupt its *own* channel, which
  is discarded on respawn;
* **health** — workers stamp a shared heartbeat array on every loop
  tick; liveness is ``Process.is_alive`` plus heartbeat age for idle
  workers (a worker wedged outside any job is killed and respawned);
* **respawn** — a dead worker's slot is refilled (bounded by
  ``max_respawns``) and its in-flight job is retried elsewhere with
  exponential backoff, up to ``max_retries`` extra attempts;
* **deadline** — a job running past ``deadline_s`` gets its worker
  killed (SIGKILL — a wedged process ignores polite signals) and is
  retried; retries exhausted surface as a ``deadline``-kind failure the
  caller can degrade on, *without* stalling the rest of the batch;
* **determinism** — job payloads and results travel whole, attempts
  are replays of the same pure payload, and results are merged in
  submission order, so a batch that survives faults is byte-identical
  to a serial run.

The pool is task-agnostic: it pickles each payload onto a worker's
inbox and hands it to the task unchanged.  The allocation task
(:data:`DEFAULT_TASK`) takes one pickled ``(func, shared)`` pair as
bytes, ``shared`` being the batch's ``(machine, allocator, options)``
pickled once; :func:`repro.pipeline._pool_results` pickles both in the
calling thread before :meth:`WorkerPool.run_batch`.

Failure kinds a :class:`JobResult` can carry:

``ok``        the task returned a value.
``error``     the task raised; the exception propagates (deterministic
              — a retry would raise again).
``crash``     the worker died; retries exhausted (or no respawn budget
              left).  Callers fall back to running the job in-process.
``deadline``  the job ran past its deadline on every attempt.

Fault injection (:mod:`repro.exec.faults`) hooks into the worker loop
only, keyed by the pool-assigned job sequence number, so tests can
script crashes deterministically.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.exec.faults import FaultPlan

__all__ = [
    "WorkerPool",
    "JobResult",
    "WorkerPoolError",
    "WorkerPoolUnavailable",
    "JobCrashError",
    "JobDeadlineError",
    "get_default_pool",
    "shutdown_default_pool",
    "DEFAULT_TASK",
]

#: Exit code of a fault-injected crash (visible in worker stats).
_CRASH_EXIT = 71

#: Upper bound on one idle wait of the batch drive loop (seconds).
#: Result arrival interrupts the wait (``connection.wait`` on the
#: outbox pipes), so the bound only caps how stale the police pass
#: (deadlines, heartbeats, corpse detection) can get.
_IDLE_WAIT_MAX = 0.005

#: The allocation task; resolved inside the worker on first use.
DEFAULT_TASK = "repro.exec.alloctask:run_alloc_job"

class WorkerPoolError(ReproError):
    """Base class for worker-pool failures."""


class WorkerPoolUnavailable(WorkerPoolError):
    """The pool could not start any worker (sandbox, no fork, ...)."""


class JobCrashError(WorkerPoolError):
    """A job's worker died on every allowed attempt."""


class JobDeadlineError(WorkerPoolError):
    """A job exceeded its deadline on every allowed attempt."""


def resolve_task(spec):
    """A task callable from either a callable or a ``"module:attr"``."""
    if callable(spec):
        return spec
    module, _, attr = spec.partition(":")
    if not module or not attr:
        raise ValueError(f"task spec must be 'module:attr', got {spec!r}")
    return getattr(importlib.import_module(module), attr)


def _worker_main(slot: int, inbox, outbox, beats, task_spec,
                 fault_plan: FaultPlan | None, heartbeat_s: float,
                 owner: int) -> None:
    """Worker loop: heartbeat, pull a job, run it, push the result.

    ``owner`` is the pid of the process that spawned the worker, taken
    there rather than read here: a worker whose owner is killed while
    it is still importing its task would otherwise record its adoptive
    parent as the owner.  A worker whose parent is no longer ``owner``
    (the owner died without shutting the pool down) returns at its next
    idle tick, so a killed server does not leave its workers running.
    Messages are pre-pickled here so a value the task produced that
    cannot cross the process boundary turns into an ``err`` message
    instead of silently wedging the queue's feeder thread.
    """
    task = resolve_task(task_spec)
    beats[slot] = time.time()
    while True:
        try:
            item = inbox.get(timeout=heartbeat_s)
        except queue.Empty:
            if os.getppid() != owner:
                # Orphaned: the parent died without a clean shutdown
                # (SIGTERM, SIGKILL), which daemonic workers never see.
                return
            beats[slot] = time.time()
            continue
        except (EOFError, OSError):  # parent went away
            return
        if item is None:
            return
        seq, attempt, payload = item
        beats[slot] = time.time()
        fault = fault_plan.lookup(seq, attempt) if fault_plan else None
        if fault is not None and fault.kind == "crash":
            os._exit(_CRASH_EXIT)
        if fault is not None and fault.kind == "sleep":
            time.sleep(fault.sleep_s)
        try:
            if fault is not None and fault.kind == "error":
                raise RuntimeError(fault.message)
            message = ("ok", slot, seq, task(payload))
        except BaseException as err:  # the pool decides what propagates
            message = ("err", slot, seq, err)
        try:
            blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            blob = pickle.dumps(("err", slot, seq, RuntimeError(
                f"result of job {seq} could not cross the process "
                f"boundary: {type(err).__name__}: {err}")),
                protocol=pickle.HIGHEST_PROTOCOL)
        outbox.put(blob)
        beats[slot] = time.time()


@dataclass(eq=False)
class JobResult:
    """Outcome of one job, in submission order."""

    seq: int
    ok: bool
    value: object = None
    error: BaseException | None = None
    kind: str = "ok"  # ok | error | crash | deadline
    attempts: int = 1


@dataclass(eq=False)
class _Job:
    seq: int
    payload: object
    deadline_s: float | None = None
    attempts: int = 0  # failed attempts so far
    not_before: float = 0.0


@dataclass(eq=False)
class _Slot:
    """One worker seat; the process in it may be replaced on death."""

    index: int
    process: multiprocessing.Process | None = None
    inbox: object = None
    outbox: object = None
    job: _Job | None = None
    job_started: float = 0.0
    jobs_ok: int = 0
    jobs_err: int = 0
    deaths: int = 0
    retired: bool = False  # no respawn budget left for this seat


class WorkerPool:
    """``workers`` persistent processes executing one task function.

    The pool is lazy: processes spawn on :meth:`ensure_started` (or the
    first :meth:`run_batch`).  ``run_batch`` is thread-safe via one
    internal lock — batches from different threads serialize, which
    matches the scheduler's single-worker drain model.
    """

    def __init__(
        self,
        workers: int = 2,
        task=DEFAULT_TASK,
        fault_plan: FaultPlan | None = None,
        heartbeat_s: float = 0.2,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        max_respawns: int = 8,
        idle_kill_factor: float = 25.0,
        start_timeout_s: float = 10.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.task = task
        self.fault_plan = fault_plan
        self.heartbeat_s = heartbeat_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.max_respawns = max_respawns
        self.idle_kill_factor = idle_kill_factor
        self.start_timeout_s = start_timeout_s
        self._ctx = multiprocessing.get_context()
        self._slots = [_Slot(index=i) for i in range(workers)]
        self._beats = None
        self._lock = threading.Lock()
        self._seq = 0
        self._started = False
        self._closed = False
        self.counters = {
            "batches": 0,
            "jobs_submitted": 0,
            "jobs_ok": 0,
            "jobs_error": 0,
            "jobs_crashed": 0,
            "jobs_deadline": 0,
            "retries": 0,
            "crashes": 0,
            "deadline_kills": 0,
            "hung_kills": 0,
            "respawns": 0,
        }

    # -- lifecycle -----------------------------------------------------

    def ensure_started(self) -> None:
        """Spawn the workers; :class:`WorkerPoolUnavailable` if none come
        up within ``start_timeout_s``."""
        with self._lock:
            self._ensure_started_locked()

    def _ensure_started_locked(self) -> None:
        if self._closed:
            raise WorkerPoolUnavailable("pool has been shut down")
        if self._started:
            return
        try:
            self._beats = self._ctx.Array("d", [0.0] * self.workers)
            for slot in self._slots:
                self._spawn(slot, count_respawn=False)
        except (OSError, PermissionError, RuntimeError, ValueError) as err:
            self._teardown_locked()
            raise WorkerPoolUnavailable(
                f"cannot start worker processes: {err}") from err
        deadline = time.monotonic() + self.start_timeout_s
        while time.monotonic() < deadline:
            if any(self._beats[i] > 0.0 for i in range(self.workers)):
                self._started = True
                return
            if all(s.process is None or not s.process.is_alive()
                   for s in self._slots):
                break
            time.sleep(0.01)
        detail = self._startup_failure_detail()
        self._teardown_locked()
        raise WorkerPoolUnavailable(
            f"no worker became ready within {self.start_timeout_s}s "
            f"({detail})")

    def _startup_failure_detail(self) -> str:
        """Each slot's fate, gathered before teardown erases it.

        The serial-fallback warning in :mod:`repro.pipeline` carries
        this message verbatim, so "the pool didn't start" always names
        *why*: a worker that died at import/resolve time reports its
        exit code, one that hung reports the missing heartbeat.
        """
        states = []
        for slot in self._slots:
            proc = slot.process
            if proc is None:
                states.append(f"worker {slot.index} never spawned")
            elif proc.is_alive():
                states.append(f"worker {slot.index} alive but no "
                              f"heartbeat")
            else:
                states.append(f"worker {slot.index} exited with code "
                              f"{proc.exitcode}")
        return "; ".join(states) if states else "no worker slots"

    def _spawn(self, slot: _Slot, count_respawn: bool = True) -> None:
        slot.inbox = self._ctx.Queue()
        slot.outbox = self._ctx.Queue()
        self._beats[slot.index] = 0.0
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(slot.index, slot.inbox, slot.outbox, self._beats,
                  self.task, self.fault_plan, self.heartbeat_s,
                  os.getpid()),
            name=f"repro-worker-{slot.index}",
            daemon=True,
        )
        slot.process.start()
        slot.job = None
        if count_respawn:
            self.counters["respawns"] += 1

    def shutdown(self) -> None:
        """Stop every worker; idempotent."""
        with self._lock:
            self._teardown_locked()
            self._closed = True

    def _teardown_locked(self) -> None:
        for slot in self._slots:
            if slot.process is None:
                continue
            if slot.process.is_alive():
                try:
                    slot.inbox.put_nowait(None)
                except Exception:
                    pass
        for slot in self._slots:
            if slot.process is None:
                continue
            slot.process.join(timeout=1.0)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=1.0)
            for q in (slot.inbox, slot.outbox):
                if q is not None:
                    q.cancel_join_thread()
                    q.close()
            slot.process = None
            slot.inbox = slot.outbox = None
            slot.job = None
        self._started = False

    def __enter__(self) -> "WorkerPool":
        self.ensure_started()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- execution -----------------------------------------------------

    def run_batch(self, payloads, deadline_s: float | None = None
                  ) -> list[JobResult]:
        """Run every payload through the task; results in input order.

        Payloads reach the task unchanged (pickled onto the worker's
        inbox); the pool never looks inside them.  ``deadline_s``
        bounds each job's wall time per attempt (measured from
        dispatch).  The call always returns one :class:`JobResult` per
        payload — failures are *reported*, not raised, so the caller
        chooses between propagating, degrading, and serial fallback.
        """
        with self._lock:
            self._ensure_started_locked()
            self.counters["batches"] += 1
            return self._run_batch_locked(payloads, deadline_s)

    def _run_batch_locked(self, payloads, deadline_s: float | None
                          ) -> list[JobResult]:
        jobs = []
        for payload in payloads:
            jobs.append(_Job(seq=self._seq, payload=payload,
                             deadline_s=deadline_s))
            self._seq += 1
        self.counters["jobs_submitted"] += len(jobs)
        results: dict[int, JobResult] = {}
        pending = deque(jobs)
        while len(results) < len(jobs):
            if not self._dispatchable() and not pending_in_flight(
                    self._slots):
                # Nobody alive to run anything and nothing running:
                # fail whatever is still pending.
                now = time.monotonic()
                still = [j for j in pending if j.seq not in results]
                if still and all(j.not_before <= now for j in still):
                    for job in still:
                        self._record_failure(results, job, "crash",
                                             "no live workers left")
                    pending.clear()
                    continue
            self._dispatch(pending, results)
            progressed = self._drain(results, pending)
            self._police(results, pending)
            if not progressed:
                self._await_results(_IDLE_WAIT_MAX)
        for job in jobs:
            res = results[job.seq]
            self.counters["jobs_" + ("ok" if res.ok else
                                     {"error": "error",
                                      "crash": "crashed",
                                      "deadline": "deadline"}[res.kind]
                                     )] += 1
        return [results[job.seq] for job in jobs]

    def _await_results(self, timeout: float) -> None:
        """Sleep until a worker writes a result (or ``timeout``).

        Short-job batches used to be quantized to a fixed polling
        sleep, which dominated batch wall time once payload
        serialization got cheap; waiting on the outbox pipes wakes the
        drive loop the moment a result lands.
        """
        readers = []
        for slot in self._slots:
            outbox = slot.outbox
            reader = getattr(outbox, "_reader", None)
            if reader is not None and not reader.closed:
                readers.append(reader)
        if not readers:
            time.sleep(timeout)
            return
        try:
            multiprocessing.connection.wait(readers, timeout=timeout)
        except OSError:
            # A pipe died mid-wait (worker killed); the police pass
            # handles the corpse.
            time.sleep(0.0005)

    def _dispatchable(self) -> bool:
        if any(s.process is not None and s.process.is_alive()
               for s in self._slots):
            return True
        return any(not s.retired for s in self._slots)

    def _dispatch(self, pending: deque, results: dict) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if not pending:
                return
            if (slot.process is None or slot.job is not None
                    or not slot.process.is_alive()
                    or self._beats[slot.index] <= 0.0):
                continue
            job = _pop_eligible(pending, results, now)
            if job is None:
                return
            slot.job = job
            slot.job_started = now
            try:
                slot.inbox.put_nowait((job.seq, job.attempts, job.payload))
            except Exception:
                # Feeder already broken: treat as a dead worker; the
                # police pass will requeue the job.
                pass

    def _drain(self, results: dict, pending: deque) -> bool:
        got = False
        for slot in self._slots:
            if slot.outbox is None:
                continue
            while True:
                try:
                    blob = slot.outbox.get_nowait()
                    message = pickle.loads(blob)
                except queue.Empty:
                    break
                except Exception:
                    # Torn write from a killed worker; the channel is
                    # confined to this slot and replaced on respawn.
                    self.counters["crashes"] += 1
                    orphan = self._kill_slot(slot, None)
                    if orphan is not None:
                        self._retry_or_fail(results, pending, orphan,
                                            "crash")
                    break
                got = True
                self._handle(message, slot, results, pending)
        return got

    def _handle(self, message, slot: _Slot, results: dict,
                pending: deque) -> None:
        kind, _wid, seq, value = message
        if seq in results:
            return  # late result for a job that already resolved
        if slot.job is not None and slot.job.seq == seq:
            attempts = slot.job.attempts + 1
            slot.job = None
        else:
            # The job was requeued (e.g. we presumed this worker dead);
            # first result wins, cancel the pending retry.
            requeued = _remove_pending(pending, seq)
            attempts = (requeued.attempts + 1) if requeued else 1
            if requeued is None:
                return
        if kind == "ok":
            slot.jobs_ok += 1
            results[seq] = JobResult(seq=seq, ok=True, value=value,
                                     attempts=attempts)
        else:
            slot.jobs_err += 1
            results[seq] = JobResult(seq=seq, ok=False, error=value,
                                     kind="error", attempts=attempts)

    def _police(self, results: dict, pending: deque) -> None:
        now = time.monotonic()
        wall = time.time()
        for slot in self._slots:
            if slot.process is None:
                continue
            alive = slot.process.is_alive()
            if slot.job is not None:
                job = slot.job
                overdue = (job.deadline_s is not None
                           and now - slot.job_started > job.deadline_s)
                if overdue and alive:
                    self.counters["deadline_kills"] += 1
                    self._kill_slot(slot, None)
                    self._retry_or_fail(results, pending, job, "deadline")
                elif not alive:
                    # One last drain: the worker may have finished the
                    # job and exited (or been crash-injected *after*
                    # writing).  Only an unanswered job is a crash.
                    self._drain(results, pending)
                    if slot.job is not None and slot.job.seq not in results:
                        self.counters["crashes"] += 1
                        slot.deaths += 1
                        self._retry_or_fail(results, pending, slot.job,
                                            "crash")
                    slot.job = None
                    self._respawn_or_retire(slot)
            else:
                if not alive:
                    self.counters["crashes"] += 1
                    slot.deaths += 1
                    self._respawn_or_retire(slot)
                elif (self._beats[slot.index] > 0.0
                      and wall - self._beats[slot.index]
                      > self.idle_kill_factor * self.heartbeat_s):
                    # Idle but silent: wedged outside any job.
                    self.counters["hung_kills"] += 1
                    self._kill_slot(slot, None)
                    self._respawn_or_retire(slot)

    def _kill_slot(self, slot: _Slot, counter: str | None) -> "_Job | None":
        """SIGKILL the slot's process and refill the seat.

        Returns the job that was in flight (the caller decides whether
        it is retried or failed) — it is never silently dropped.
        """
        if counter:
            self.counters[counter] += 1
        slot.deaths += 1
        orphan = slot.job
        slot.job = None
        if slot.process is not None and slot.process.is_alive():
            slot.process.kill()
            slot.process.join(timeout=1.0)
        self._respawn_or_retire(slot)
        return orphan

    def _respawn_or_retire(self, slot: _Slot) -> None:
        for q in (slot.inbox, slot.outbox):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        slot.process = None
        slot.inbox = slot.outbox = None
        if self.counters["respawns"] >= self.max_respawns:
            slot.retired = True
            return
        try:
            self._spawn(slot)
        except Exception:
            slot.retired = True

    def _retry_or_fail(self, results: dict, pending: deque, job: _Job,
                       kind: str) -> None:
        job.attempts += 1
        if job.attempts > self.max_retries:
            self._record_failure(
                results, job, kind,
                f"after {job.attempts} attempts")
            return
        self.counters["retries"] += 1
        job.not_before = (time.monotonic()
                          + self.backoff_s * (2 ** (job.attempts - 1)))
        pending.append(job)

    def _record_failure(self, results: dict, job: _Job, kind: str,
                        detail: str) -> None:
        exc_cls = (JobDeadlineError if kind == "deadline"
                   else JobCrashError)
        what = ("exceeded its deadline of "
                f"{job.deadline_s}s" if kind == "deadline"
                else "lost its worker")
        results[job.seq] = JobResult(
            seq=job.seq, ok=False, kind=kind,
            attempts=max(job.attempts, 1),
            error=exc_cls(f"job {job.seq} {what} ({detail})"),
        )

    # -- introspection -------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe pool + per-worker stats (service metrics wire form)."""
        now = time.time()
        per_worker = []
        for slot in self._slots:
            alive = slot.process is not None and slot.process.is_alive()
            beat = self._beats[slot.index] if self._beats is not None else 0.0
            per_worker.append({
                "slot": slot.index,
                "pid": slot.process.pid if slot.process else None,
                "alive": alive,
                "busy": slot.job is not None,
                "retired": slot.retired,
                "jobs_ok": slot.jobs_ok,
                "jobs_err": slot.jobs_err,
                "deaths": slot.deaths,
                "heartbeat_age_s": (round(now - beat, 3)
                                    if alive and beat > 0.0 else None),
            })
        return {
            "workers": self.workers,
            "alive": sum(1 for w in per_worker if w["alive"]),
            "started": self._started,
            "counters": dict(self.counters),
            "per_worker": per_worker,
        }


def pending_in_flight(slots) -> bool:
    return any(s.job is not None for s in slots)


def _pop_eligible(pending: deque, results: dict, now: float):
    for _ in range(len(pending)):
        job = pending.popleft()
        if job.seq in results:
            continue  # resolved while queued (late ok beat the retry)
        if job.not_before <= now:
            return job
        pending.append(job)
    return None


def _remove_pending(pending: deque, seq: int):
    for job in pending:
        if job.seq == seq:
            pending.remove(job)
            return job
    return None


# -- shared default pool ----------------------------------------------

_default_pool: WorkerPool | None = None
_default_lock = threading.Lock()


def get_default_pool(workers: int, **kwargs) -> WorkerPool:
    """The process-wide shared pool, (re)sized to ``workers``.

    Creating it can raise :class:`WorkerPoolUnavailable`; callers fall
    back to serial execution (``repro.pipeline`` warns and does so).
    """
    global _default_pool
    with _default_lock:
        if (_default_pool is not None
                and _default_pool.workers != workers):
            _default_pool.shutdown()
            _default_pool = None
        if _default_pool is None:
            pool = WorkerPool(workers=workers, **kwargs)
            pool.ensure_started()
            _default_pool = pool
        return _default_pool


def shutdown_default_pool() -> None:
    global _default_pool
    with _default_lock:
        if _default_pool is not None:
            try:
                _default_pool.shutdown()
            except Exception:  # pragma: no cover - atexit best effort
                pass
            _default_pool = None


atexit.register(shutdown_default_pool)
