"""Persistent fault-tolerant worker pool.

The execution backend behind ``allocate_module(jobs=N)`` and the
service scheduler.  Unlike a per-call ``ProcessPoolExecutor``, the pool
is long-lived: worker processes stay up across batches and pay their
imports once, and the pool survives the worst-case behavior the
spill-everywhere complexity results promise — a crashed worker, a
wedged worker, a poisoned job:

* **isolation** — every worker seat owns one duplex pipe, so a worker
  killed mid-write can only tear its *own* channel, which is discarded
  with the process;
* **readiness** — a worker sends one empty message once its task has
  resolved; only then is it handed jobs;
* **respawn** — a dead worker's seat is refilled (bounded by
  ``max_respawns``) and its in-flight job is retried, up to
  ``max_retries`` extra attempts.  An attempt replays a pure payload,
  so a retry has nothing to wait out;
* **deadline** — a job running past ``deadline_s`` gets its worker
  killed (SIGKILL — a wedged process ignores polite signals) and is
  retried; retries exhausted surface as a ``deadline``-kind failure the
  caller can degrade on, *without* stalling the rest of the batch;
* **determinism** — job payloads and results travel whole, attempts
  are replays of the same pure payload, and results are merged in
  submission order, so a batch that survives faults is byte-identical
  to a serial run.

The batch drive loop sleeps in one ``multiprocessing.connection.wait``
over the busy and starting seats' pipes and process sentinels, so it
wakes when a result lands or a worker dies, or at the nearest job
deadline.

The pool is task-agnostic: it pickles each payload onto a worker's
pipe and hands it to the task unchanged.  The allocation task
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
import threading
import time
from collections import deque
from dataclasses import dataclass

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

#: How long an idle worker waits for a job before it checks that its
#: owner is still alive (seconds).
_ORPHAN_CHECK_S = 0.2

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


def _worker_main(conn, task_spec, fault_plan: FaultPlan | None,
                 owner: int) -> None:
    """Worker loop: say ready, then receive a job, run it, send the result.

    ``conn`` is the worker's end of its seat's duplex pipe; an empty
    message on it means "ready" from the worker and "stop" from the
    pool.  ``owner`` is the pid of the process that spawned the worker,
    taken there rather than read here: a worker whose owner is killed
    while it is still importing its task would otherwise record its
    adoptive parent as the owner.  A worker whose parent is no longer
    ``owner`` (the owner died without shutting the pool down) returns
    at its next idle check, so a killed server does not leave its
    workers running.  Results are pickled here so a value the task
    produced that cannot cross the process boundary turns into an
    ``err`` message instead of killing the worker.
    """
    task = resolve_task(task_spec)
    conn.send_bytes(b"")
    while True:
        try:
            if not conn.poll(_ORPHAN_CHECK_S):
                # Idle: daemonic workers never see a SIGTERM or SIGKILL
                # of their parent, so check for orphaning here.
                if os.getppid() != owner:
                    return
                continue
            data = conn.recv_bytes()
        except (EOFError, OSError):  # parent went away
            return
        if not data:
            return
        seq, attempt, payload = pickle.loads(data)
        fault = fault_plan.lookup(seq, attempt) if fault_plan else None
        if fault is not None and fault.kind == "crash":
            os._exit(_CRASH_EXIT)
        if fault is not None and fault.kind == "sleep":
            time.sleep(fault.sleep_s)
        try:
            if fault is not None and fault.kind == "error":
                raise RuntimeError(fault.message)
            message = ("ok", task(payload))
        except BaseException as err:  # the pool decides what propagates
            message = ("err", err)
        try:
            blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            blob = pickle.dumps(("err", RuntimeError(
                f"result of job {seq} could not cross the process "
                f"boundary: {type(err).__name__}: {err}")),
                protocol=pickle.HIGHEST_PROTOCOL)
        try:
            conn.send_bytes(blob)
        except OSError:
            return


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
    attempts: int = 0  # failed attempts so far


@dataclass(eq=False)
class _Slot:
    """One worker seat; the process in it may be replaced on death."""

    index: int
    process: multiprocessing.Process | None = None
    conn: object = None  # the pool's end of the seat's pipe
    ready: bool = False  # the worker has resolved its task
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
        max_retries: int = 2,
        max_respawns: int = 8,
        start_timeout_s: float = 10.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.task = task
        self.fault_plan = fault_plan
        self.max_retries = max_retries
        self.max_respawns = max_respawns
        self.start_timeout_s = start_timeout_s
        self._ctx = multiprocessing.get_context()
        self._slots = [_Slot(index=i) for i in range(workers)]
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
            for slot in self._slots:
                self._spawn(slot, count_respawn=False)
        except (OSError, PermissionError, RuntimeError, ValueError) as err:
            self._teardown_locked()
            raise WorkerPoolUnavailable(
                f"cannot start worker processes: {err}") from err
        # Wait for the first ready message; a worker that dies first is
        # left in its seat so the failure detail can report its exit.
        deadline = time.monotonic() + self.start_timeout_s
        starting = list(self._slots)
        while starting and time.monotonic() < deadline:
            multiprocessing.connection.wait(
                [s.conn for s in starting]
                + [s.process.sentinel for s in starting],
                deadline - time.monotonic())
            for slot in list(starting):
                if slot.conn.poll():
                    try:
                        slot.conn.recv_bytes()
                    except (EOFError, OSError):
                        starting.remove(slot)
                        continue
                    slot.ready = self._started = True
                    return
                if not slot.process.is_alive():
                    starting.remove(slot)
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
        exit code, one that hung reports that it never said ready.
        """
        states = []
        for slot in self._slots:
            proc = slot.process
            if proc is None:
                states.append(f"worker {slot.index} never spawned")
            elif proc.is_alive():
                states.append(f"worker {slot.index} alive but never "
                              f"ready")
            else:
                states.append(f"worker {slot.index} exited with code "
                              f"{proc.exitcode}")
        return "; ".join(states) if states else "no worker slots"

    def _spawn(self, slot: _Slot, count_respawn: bool = True) -> None:
        conn, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, self.task, self.fault_plan, os.getpid()),
            name=f"repro-worker-{slot.index}",
            daemon=True,
        )
        try:
            with child:  # once started, the worker holds its own copy
                process.start()
        except BaseException:
            conn.close()
            raise
        slot.process, slot.conn = process, conn
        if count_respawn:
            self.counters["respawns"] += 1

    def _clear(self, slot: _Slot) -> None:
        """SIGKILL whatever still runs in the seat and discard its pipe."""
        if slot.process.is_alive():
            slot.process.kill()
        slot.process.join(timeout=1.0)
        slot.conn.close()
        slot.process = slot.conn = slot.job = None
        slot.ready = False

    def shutdown(self) -> None:
        """Stop every worker; idempotent."""
        with self._lock:
            self._teardown_locked()
            self._closed = True

    def _teardown_locked(self) -> None:
        # An explicit stop message, because under fork each later
        # worker holds a copy of the earlier seats' pool ends: closing
        # ours gives the worker no EOF.
        live = [s for s in self._slots if s.process is not None]
        for slot in live:
            try:
                slot.conn.send_bytes(b"")
            except OSError:
                pass
        for slot in live:
            slot.process.join(timeout=1.0)
            self._clear(slot)
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
        pipe); the pool never looks inside them.  ``deadline_s``
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
            jobs.append(_Job(seq=self._seq, payload=payload))
            self._seq += 1
        self.counters["jobs_submitted"] += len(jobs)
        results: dict[int, JobResult] = {}
        pending = deque(jobs)
        while len(results) < len(jobs):
            self._dispatch(pending, results, deadline_s)
            if all(s.process is None for s in self._slots):
                # Every seat is retired, so nothing is in flight and
                # nobody can run what is left.
                for job in pending:
                    self._record_failure(results, job, "crash",
                                         "no live workers left", deadline_s)
                break
            self._await(deadline_s)
            self._collect(results, pending, deadline_s)
        for job in jobs:
            res = results[job.seq]
            self.counters["jobs_" + ("ok" if res.ok else
                                     {"error": "error",
                                      "crash": "crashed",
                                      "deadline": "deadline"}[res.kind]
                                     )] += 1
        return [results[job.seq] for job in jobs]

    def _dispatch(self, pending: deque, results: dict,
                  deadline_s: float | None) -> None:
        for slot in self._slots:
            if not pending:
                return
            if not slot.ready or slot.job is not None:
                continue
            if not slot.process.is_alive():
                # Died while idle, e.g. between two batches.
                self._lose(slot, "crash", results, pending, deadline_s)
                continue
            job = pending.popleft()
            slot.job = job
            slot.job_started = time.monotonic()
            try:
                slot.conn.send_bytes(pickle.dumps(
                    (job.seq, job.attempts, job.payload),
                    protocol=pickle.HIGHEST_PROTOCOL))
            except OSError:
                pass  # the worker is gone; its sentinel reports the crash

    def _watched(self) -> list[_Slot]:
        """Seats with something to report: busy or still starting."""
        return [s for s in self._slots if s.process is not None
                and (s.job is not None or not s.ready)]

    def _await(self, deadline_s: float | None) -> None:
        """Sleep until a watched worker writes or dies, or the nearest
        job deadline passes."""
        watched = self._watched()
        timeout = None
        busy = [s.job_started for s in watched if s.job is not None]
        if deadline_s is not None and busy:
            timeout = max(0.0, min(busy) + deadline_s - time.monotonic())
        multiprocessing.connection.wait(
            [s.conn for s in watched] + [s.process.sentinel for s in watched],
            timeout)

    def _collect(self, results: dict, pending: deque,
                 deadline_s: float | None) -> None:
        now = time.monotonic()
        for slot in self._watched():
            if slot.conn.poll():
                try:
                    blob = slot.conn.recv_bytes()
                    if not slot.ready:
                        slot.ready = True
                        continue
                    kind, value = pickle.loads(blob)
                except Exception:
                    # EOF from a dead worker, or a result that cannot
                    # be read back; the seat is replaced either way.
                    self._lose(slot, "crash", results, pending, deadline_s)
                    continue
                self._finish(slot, kind, value, results)
            elif not slot.process.is_alive():
                self._lose(slot, "crash", results, pending, deadline_s)
            elif (slot.job is not None and deadline_s is not None
                  and now - slot.job_started > deadline_s):
                self._lose(slot, "deadline", results, pending, deadline_s)

    def _finish(self, slot: _Slot, kind: str, value, results: dict) -> None:
        job, slot.job = slot.job, None
        if kind == "ok":
            slot.jobs_ok += 1
            results[job.seq] = JobResult(seq=job.seq, ok=True, value=value,
                                         attempts=job.attempts + 1)
        else:
            slot.jobs_err += 1
            results[job.seq] = JobResult(seq=job.seq, ok=False, error=value,
                                         kind="error",
                                         attempts=job.attempts + 1)

    def _lose(self, slot: _Slot, kind: str, results: dict, pending: deque,
              deadline_s: float | None) -> None:
        """Count a dead or overdue worker, kill it, and refill its seat.

        The job it was running is retried or failed, never dropped.
        """
        self.counters["crashes" if kind == "crash" else "deadline_kills"] += 1
        slot.deaths += 1
        job = slot.job
        self._clear(slot)
        if job is not None:
            self._retry_or_fail(results, pending, job, kind, deadline_s)
        if self.counters["respawns"] >= self.max_respawns:
            slot.retired = True
            return
        try:
            self._spawn(slot)
        except Exception:
            slot.retired = True

    def _retry_or_fail(self, results: dict, pending: deque, job: _Job,
                       kind: str, deadline_s: float | None) -> None:
        job.attempts += 1
        if job.attempts > self.max_retries:
            self._record_failure(results, job, kind,
                                 f"after {job.attempts} attempts", deadline_s)
            return
        self.counters["retries"] += 1
        pending.append(job)

    def _record_failure(self, results: dict, job: _Job, kind: str,
                        detail: str, deadline_s: float | None) -> None:
        exc_cls = (JobDeadlineError if kind == "deadline"
                   else JobCrashError)
        what = ("exceeded its deadline of "
                f"{deadline_s}s" if kind == "deadline"
                else "lost its worker")
        results[job.seq] = JobResult(
            seq=job.seq, ok=False, kind=kind,
            attempts=max(job.attempts, 1),
            error=exc_cls(f"job {job.seq} {what} ({detail})"),
        )

    # -- introspection -------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe pool + per-worker stats (service metrics wire form)."""
        per_worker = []
        for slot in self._slots:
            per_worker.append({
                "slot": slot.index,
                "pid": slot.process.pid if slot.process else None,
                "alive": (slot.process is not None
                          and slot.process.is_alive()),
                "busy": slot.job is not None,
                "retired": slot.retired,
                "jobs_ok": slot.jobs_ok,
                "jobs_err": slot.jobs_err,
                "deaths": slot.deaths,
            })
        return {
            "workers": self.workers,
            "alive": sum(1 for w in per_worker if w["alive"]),
            "started": self._started,
            "counters": dict(self.counters),
            "per_worker": per_worker,
        }


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
