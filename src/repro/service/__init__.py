"""Allocation-as-a-service: protocol, cache, scheduler, server, metrics.

The service layer turns the one-shot pipeline into a long-lived server:
clients submit IR (or a benchmark name) plus a machine preset, an
allocator, and an optional deadline; the scheduler batches requests onto
the process-pool workers, answers repeats from a content-addressed
cache, and degrades gracefully (``full`` -> ``chaitin``) under load or
past-deadline instead of failing.  Non-degraded responses are
byte-identical to a direct :func:`repro.pipeline.allocate_module` run.
"""

from repro.service.cache import (
    DiskCacheBackend,
    ResultCache,
    request_fingerprint,
)
from repro.service.client import ServiceClient
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AllocationRequest,
    AllocationResponse,
    MachineSpec,
)
from repro.service.schema import SCHEMA_VERSION
from repro.service.scheduler import Scheduler, execute_request
from repro.service.server import AllocationServer, ServerThread, serve_stdio

__all__ = [
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "AllocationRequest",
    "AllocationResponse",
    "MachineSpec",
    "DiskCacheBackend",
    "ResultCache",
    "request_fingerprint",
    "ServiceMetrics",
    "Scheduler",
    "execute_request",
    "AllocationServer",
    "ServerThread",
    "serve_stdio",
    "ServiceClient",
]
