"""Long-running optimization service (``powder serve``).

Stdlib-only asyncio HTTP/JSON service around the optimizer: a bounded
worker pool fed by a priority queue, per-job timeouts and cancellation,
canonical netlist-hash deduplication (completed-result LRU plus
in-flight coalescing), streamed per-round telemetry, lint-as-a-service,
and a ``/metrics`` endpoint.  See ``ALGORITHMS.md`` §20 for design.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    TIMEOUT,
    Execution,
    Job,
)
from repro.serve.jobspec import JobSpec, canonicalize_job, server_library
from repro.serve.runner import ServerThread
from repro.serve.server import PowderServer, ServerConfig
from repro.serve.worker import (
    AttemptOutcome,
    StreamingTracer,
    WorkerSlot,
    execute_jobspec,
    run_attempt,
)

__all__ = [
    "AttemptOutcome",
    "CANCELLED",
    "DONE",
    "Execution",
    "FAILED",
    "Job",
    "JobSpec",
    "PowderServer",
    "QUEUED",
    "RUNNING",
    "ResultCache",
    "ServeClient",
    "ServeClientError",
    "ServerConfig",
    "ServerThread",
    "StreamingTracer",
    "TERMINAL_STATES",
    "TIMEOUT",
    "WorkerSlot",
    "canonicalize_job",
    "execute_jobspec",
    "run_attempt",
    "server_library",
]
