"""Persistent fault-tolerant execution backend.

``repro.exec`` is the single process-pool layer behind
``allocate_module(jobs=N)`` and the service scheduler: long-lived
workers with one pipe each, automatic respawn, bounded retries, and
hard deadline kills (:mod:`repro.exec.pool`),
plus a deterministic fault-injection layer
(:mod:`repro.exec.faults`) used by the resilience tests in
``tests/test_exec_pool.py``.
"""

from repro.exec.faults import FaultPlan, FaultSpec
from repro.exec.pool import (
    DEFAULT_TASK,
    JobCrashError,
    JobDeadlineError,
    JobResult,
    WorkerPool,
    WorkerPoolError,
    WorkerPoolUnavailable,
    get_default_pool,
    shutdown_default_pool,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
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
