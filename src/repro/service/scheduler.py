"""Batching scheduler: bounded queue, deadlines, graceful degradation.

Requests enter a bounded queue (admission control: a full queue rejects
immediately rather than building unbounded backlog) and a worker drains
them in batches onto the existing pipeline — ``allocate_module`` with
its process-pool ``jobs`` fan-out.  Two load-shedding mechanisms, both
*graceful* (the client always gets a valid allocation, never an error):

* **deadline**: a request whose wait has already exceeded its
  ``deadline_s`` is downgraded along the degradation ladder
  (``full`` -> ``chaitin``) so it completes quickly;
* **overload**: requests admitted while the queue is above the
  high-watermark are downgraded the same way.

Degraded responses carry ``degraded: true`` and are *not* written to the
content-addressed cache — the cache only ever holds the allocator the
client asked for, which keeps cached responses byte-identical to a
direct :func:`repro.pipeline.allocate_module` run.

Batches reuse work across requests: the module parse/prepare step is
memoized per (module, machine) fingerprint, so fifty requests sweeping
eight allocators over one module prepare it once (and, through
``round0_analyses``, renumber and analyze it once).

Repeats skip the parse too.  The cache is keyed on the *normalized*
module, so finding a request's entry takes a parse and a print; the
scheduler remembers, per request as sent (:func:`request_source_key`),
the fingerprint its own parse produced, and a repeat whose fingerprint
still hits the cache is answered from that memo alone.  The memo is
learned, never taken from the client, and equal request text
normalizes to equal text, so it can only name the entry the parse
would have found.  Repeats stay in the FIFO queue: answering them
ahead of queued misses lets concurrent clients' misses collide and
raises the tail latency.
"""

from __future__ import annotations

import hashlib
import queue
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from time import perf_counter

from repro.core import PreferenceConfig, PreferenceDirectedAllocator
from repro.errors import ReproError, ServiceError
from repro.exec import FaultPlan, JobDeadlineError, WorkerPool
from repro.ir.function import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.pipeline import ModuleAllocation, allocate_module, prepare_module
from repro.profiling import profiled
from repro.regalloc import (
    AllocationOptions,
    BriggsAllocator,
    CallCostAllocator,
    ChaitinAllocator,
    OptimisticCoalescingAllocator,
    PriorityAllocator,
)
from repro.service.cache import (
    ResultCache,
    request_fingerprint,
    request_source_key,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    AllocationRequest,
    AllocationResponse,
    cycles_to_dict,
    machine_content_digest,
    stats_to_dict,
)
from repro.service.session import SessionStore, execute_delta_request
from repro.workloads import make_benchmark

__all__ = [
    "ALLOCATOR_FACTORIES",
    "DEGRADATION_LADDER",
    "degrade_for",
    "render_allocation",
    "execute_request",
    "Scheduler",
]

#: The canonical name -> factory map, shared with the CLI.
ALLOCATOR_FACTORIES = {
    "chaitin": ChaitinAllocator,
    "briggs": BriggsAllocator,
    "optimistic": OptimisticCoalescingAllocator,
    "callcost": CallCostAllocator,
    "priority": PriorityAllocator,
    "only-coalescing": lambda: PreferenceDirectedAllocator(
        PreferenceConfig.only_coalescing()
    ),
    "full": PreferenceDirectedAllocator,
}

#: The allocator fallback ladder under deadline pressure or overload:
#: allocator -> the cheaper allocator it degrades to.  ``chaitin`` is
#: the floor and never degrades.
DEGRADATION_LADDER = {
    "briggs": "chaitin",
    "callcost": "chaitin",
    "full": "chaitin",
    "only-coalescing": "chaitin",
    "optimistic": "briggs",
    "priority": "chaitin",
}


def degrade_for(allocator: str) -> str:
    """One rung down :data:`DEGRADATION_LADDER` (floor: chaitin).

    Under pressure each allocator falls back one rung; ``chaitin`` is
    the floor (cheapest round, no preference machinery) and never
    degrades.
    """
    return DEGRADATION_LADDER.get(allocator, "chaitin")


#: session ladder rung -> metrics counter (``new`` is a scratch build
#: too — the function had no retained session to advance).
_SESSION_RUNG_COUNTERS = {
    "value": "session_patches_value",
    "rename": "session_patches_rename",
    "new": "session_rebuilds",
    "rebuild": "session_rebuilds",
}


def resolve_module(request: AllocationRequest) -> Module:
    """The module a request names: parsed IR text or a benchmark."""
    if request.ir is not None:
        return parse_module(request.ir)
    return make_benchmark(request.bench)


def render_allocation(run: ModuleAllocation) -> str:
    """The allocated module exactly as ``print_module`` renders it."""
    return "\n\n".join(print_function(r.func) for r in run.results)


def execute_request(
    request: AllocationRequest,
    options: AllocationOptions | None = None,
    *,
    effective_allocator: str | None = None,
    prepared=None,
    machine=None,
    pool: WorkerPool | None = None,
) -> AllocationResponse:
    """Run one request through the pipeline (no queue, no cache).

    This is the single compute path shared by the scheduler, the
    ``--json`` CLI commands, and the byte-identity tests; callers may
    pass a pre-``prepare_module``-d module to skip re-preparation.
    ``options`` defaults to the request's own.  ``pool`` routes
    parallel allocation through a specific worker pool (the scheduler
    passes its own).
    """
    request.validate()
    name = effective_allocator or request.allocator
    if options is None:
        options = request.options
    if machine is None:
        machine = request.machine.build()
    if prepared is None:
        prepared = prepare_module(resolve_module(request), machine)
    run = allocate_module(prepared, machine, ALLOCATOR_FACTORIES[name](),
                          options, pool=pool)
    response = AllocationResponse(
        id=request.id,
        ok=True,
        allocator=request.allocator,
        effective_allocator=name,
        degraded=name != request.allocator,
        code=render_allocation(run),
        stats=stats_to_dict(run.stats),
        cycles=cycles_to_dict(run.cycles),
    )
    return response.seal()


@dataclass(eq=False)
class _Job:
    request: AllocationRequest
    future: Future
    submitted_at: float
    overloaded: bool = False


class Scheduler:
    """Queue + worker turning requests into responses.

    ``options`` is the server-side execution policy applied to every
    request (most importantly ``jobs``, the worker-pool width); knobs a
    request carries itself (verify, deadline, max_rounds, ...) stay per
    request.  With ``options.jobs > 1`` the scheduler owns a persistent
    :class:`~repro.exec.WorkerPool`, giving every allocation process
    isolation: a crashed or wedged worker is killed and respawned, the
    job retried, and — past the retry budget — the computation degrades
    to in-process serial execution rather than erroring.  ``fault_plan``
    injects deterministic worker faults (the fault-injection tests).
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        metrics: ServiceMetrics | None = None,
        options: AllocationOptions | None = None,
        max_queue: int = 64,
        batch_size: int = 8,
        overload_watermark: int | None = None,
        prepared_cache_size: int = 32,
        session_store_size: int = 32,
        fault_plan: FaultPlan | None = None,
    ):
        self.cache = cache
        self.metrics = metrics or ServiceMetrics()
        self.options = options or AllocationOptions.from_env()
        self.jobs = self.options.jobs
        self.pool: WorkerPool | None = None
        if self.jobs > 1:
            self.pool = WorkerPool(workers=self.jobs, fault_plan=fault_plan)
        self.batch_size = max(1, batch_size)
        self.overload_watermark = (
            overload_watermark
            if overload_watermark is not None
            else max(2, (max_queue * 3) // 4)
        )
        self._queue: "queue.Queue[_Job]" = queue.Queue(maxsize=max_queue)
        #: retained edit sessions for the ``allocate_delta`` path
        self.sessions = SessionStore(capacity=session_store_size)
        self._prepared: dict[str, tuple] = {}
        self._prepared_cache_size = max(1, prepared_cache_size)
        #: request_source_key -> fingerprint, learned from this
        #: scheduler's own parses and bounded like the result cache
        self._fingerprints: "OrderedDict[str, str]" = OrderedDict()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- intake --------------------------------------------------------

    def submit(self, request: AllocationRequest) -> Future:
        """Admit a request; the Future resolves to an AllocationResponse.

        A full queue resolves the future *immediately* with an
        ``ok=false`` rejection — backpressure is explicit, not implicit
        latency.
        """
        future: Future = Future()
        self.metrics.inc("requests_total")
        try:
            request.validate()
        except ServiceError as err:
            self.metrics.inc("responses_error")
            future.set_result(AllocationResponse.error_response(
                request.id, str(err), request.allocator))
            return future
        job = _Job(
            request=request,
            future=future,
            submitted_at=perf_counter(),
            overloaded=self._queue.qsize() >= self.overload_watermark,
        )
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self.metrics.inc("rejected_total")
            self.metrics.inc("responses_error")
            future.set_result(AllocationResponse.error_response(
                request.id,
                "queue full: admission control rejected the request",
                request.allocator,
            ))
            return future
        self.metrics.set_queue_depth(self._queue.qsize())
        return future

    # -- processing ----------------------------------------------------

    def run_once(self, timeout: float = 0.0) -> int:
        """Drain and process up to ``batch_size`` queued jobs."""
        jobs: list[_Job] = []
        try:
            jobs.append(
                self._queue.get(timeout=timeout)
                if timeout > 0 else self._queue.get_nowait()
            )
        except queue.Empty:
            return 0
        while len(jobs) < self.batch_size:
            try:
                jobs.append(self._queue.get_nowait())
            except queue.Empty:
                break
        self.metrics.inc("batches_total")
        self.metrics.set_queue_depth(self._queue.qsize())
        for job in jobs:
            job.future.set_result(self._process(job))
        if self.pool is not None:
            self.metrics.set_worker_pool(self.pool.snapshot())
        return len(jobs)

    def _prepare_cached(self, module, normalized, machine):
        """Memoized ``prepare_module`` keyed by module+machine content.

        The key is the sha256 of ``normalized`` (the module's printed
        text, which :meth:`_answer` already renders for the cache
        fingerprint) plus the machine's descriptor digest.  It
        identifies a module exactly as far as the result cache does,
        which keys on the same text.
        """
        key = (hashlib.sha256(normalized.encode()).hexdigest(),
               machine_content_digest(machine))
        hit = self._prepared.get(key)
        if hit is None:
            hit = (prepare_module(module, machine), machine)
            self._prepared[key] = hit
            while len(self._prepared) > self._prepared_cache_size:
                self._prepared.pop(next(iter(self._prepared)))
        return hit

    def _process(self, job: _Job) -> AllocationResponse:
        """Answer one job; any error becomes an ``ok=false`` response."""
        request = job.request
        wait_s = perf_counter() - job.submitted_at
        self.metrics.observe("wait", wait_s)
        timings = {"wait_s": round(wait_s, 6)}
        answer = (self._answer if request.base_digest is None
                  else self._answer_delta)
        try:
            response = answer(job, timings)
        except ReproError as err:
            self.metrics.inc("responses_error")
            response = AllocationResponse.error_response(
                request.id, str(err), request.allocator)
        except Exception as err:  # never kill the worker
            self.metrics.inc("responses_error")
            response = AllocationResponse.error_response(
                request.id, f"internal error: {type(err).__name__}: {err}",
                request.allocator)
        total = perf_counter() - job.submitted_at
        timings["total_s"] = round(total, 6)
        response.timings = timings
        self.metrics.observe("total", total)
        return response

    def _plan(self, job: _Job) -> tuple[str, AllocationOptions]:
        """The allocator to run and the options to run it with.

        Per-request knobs ride on the request; execution policy (pool
        width) is the server's.  A request whose wait already exceeded
        its deadline, or one admitted over the overload watermark,
        degrades one ladder rung.
        """
        request = job.request
        run_options = request.options.replace(jobs=self.jobs)
        if request.deadline_s is not None and (
            perf_counter() - job.submitted_at
        ) > request.deadline_s:
            self.metrics.inc("deadline_misses")
            # The deadline already passed; degradation is about
            # finishing fast now, not about killing more workers.
            return (degrade_for(request.allocator),
                    run_options.replace(deadline_ms=None))
        if job.overloaded:
            return degrade_for(request.allocator), run_options
        return request.allocator, run_options

    def _answer(self, job: _Job, timings: dict) -> AllocationResponse:
        """The full path: result cache, then the pipeline on a miss.

        A repeat is recognized before any parse: ``_fingerprints`` maps
        :func:`request_source_key` (the request as sent) to the
        fingerprint this scheduler computed from its own parse of the
        same request earlier.  If that fingerprint still hits the
        result cache, the request is answered with no parse, print or
        machine build.  Any other outcome (new text, an evicted entry,
        a degraded earlier answer that was never cached) takes the
        parse path, which records the mapping once it has the
        fingerprint.  Memo hits are still answered in queue order.
        """
        request = job.request
        key = known = None
        if self.cache is not None:
            key = request_source_key(request)
            known = self._fingerprints.get(key)
            if known is not None:
                self._fingerprints.move_to_end(key)
                hit = self._cache_get(request, known)
                if hit is not None:
                    return hit
        t0 = perf_counter()
        module = resolve_module(request)
        normalized = print_module(module)
        machine = request.machine.build()
        timings["parse_s"] = round(perf_counter() - t0, 6)
        self.metrics.observe("parse", timings["parse_s"])
        fingerprint = request_fingerprint(
            normalized, machine, request.allocator,
            options=request.options,
        )
        if key is not None and known is None:
            self._fingerprints[key] = fingerprint
            while len(self._fingerprints) > self.cache.max_entries:
                self._fingerprints.popitem(last=False)
            hit = self._cache_get(request, fingerprint)
            if hit is not None:
                return hit

        effective, run_options = self._plan(job)
        t0 = perf_counter()
        prepared, machine = self._prepare_cached(module, normalized,
                                                  machine)
        timings["prepare_s"] = round(perf_counter() - t0, 6)
        self.metrics.observe("prepare", timings["prepare_s"])

        t0 = perf_counter()
        with profiled() as prof:
            try:
                response = execute_request(
                    request, run_options,
                    effective_allocator=effective,
                    prepared=prepared, machine=machine, pool=self.pool,
                )
            except JobDeadlineError:
                # A worker blew the per-job wall-time budget on every
                # retry.  Degrade one rung and rerun without the
                # deadline so the client still gets an allocation —
                # other queued requests were never blocked (the kill
                # freed the worker).
                self.metrics.inc("deadline_misses")
                self.metrics.inc("worker_deadline_kills")
                effective = degrade_for(effective)
                response = execute_request(
                    request,
                    run_options.replace(deadline_ms=None),
                    effective_allocator=effective,
                    prepared=prepared, machine=machine, pool=self.pool,
                )
        self.metrics.record_phases(prof.snapshot())
        timings["allocate_s"] = round(perf_counter() - t0, 6)
        self.metrics.observe("allocate", timings["allocate_s"])

        response.fingerprint = fingerprint
        if response.degraded:
            self.metrics.inc("degraded_total")
        elif self.cache is not None:
            self.cache.put(fingerprint, response)
        self.metrics.inc("responses_ok")
        return response

    def _cache_get(self, request: AllocationRequest, fingerprint: str
                   ) -> AllocationResponse | None:
        """The cached answer under ``fingerprint``, re-addressed to
        ``request``, or None (both outcomes counted)."""
        hit = self.cache.get(fingerprint)
        if hit is None:
            self.metrics.inc("cache_misses")
            return None
        self.metrics.inc("cache_hits")
        self.metrics.inc("responses_ok")
        hit.id = request.id
        hit.cached = True
        hit.fingerprint = fingerprint
        return hit

    def _answer_delta(self, job: _Job, timings: dict
                      ) -> AllocationResponse:
        """The ``allocate_delta`` path: session store instead of cache.

        Delta responses carry a session token and are never written to
        the content-addressed cache — the session store *is* their
        reuse tier (every keystroke changes the content digest, so the
        cache could only ever hit on a verbatim repeat).  Deadline and
        overload degradation are the full path's (:meth:`_plan`).
        """
        request = job.request
        self.metrics.inc("delta_requests")
        effective, run_options = self._plan(job)
        t0 = perf_counter()
        info: dict = {}
        with profiled() as prof:
            response = execute_delta_request(
                request, self.sessions, run_options,
                effective_allocator=effective, info=info,
            )
        self.metrics.record_phases(prof.snapshot())
        timings["allocate_s"] = round(perf_counter() - t0, 6)
        self.metrics.observe("allocate", timings["allocate_s"])
        self.metrics.inc("session_hits" if info.get("base_hit")
                         else "session_misses")
        for rung, count in info.get("paths", {}).items():
            self.metrics.inc(_SESSION_RUNG_COUNTERS[rung], by=count)
        self.metrics.inc("session_colorings_reused",
                         by=info.get("colorings_reused", 0))
        if response.degraded:
            self.metrics.inc("degraded_total")
        self.metrics.inc("responses_ok")
        return response

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-scheduler", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            if self.run_once(timeout=0.05) == 0:
                continue

    def stop(self) -> None:
        """Stop the worker; unanswered jobs get a shutdown error."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.pool is not None:
            self.pool.shutdown()
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            self.metrics.inc("responses_error")
            job.future.set_result(AllocationResponse.error_response(
                job.request.id, "server shutting down",
                job.request.allocator))

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()
