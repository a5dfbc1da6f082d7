"""The long-running optimization service behind ``powder serve``.

One asyncio event loop owns all bookkeeping (jobs, queue, cache,
metrics); optimizer work happens in long-lived forked worker processes
driven from a bounded thread pool, so the loop stays responsive no
matter what a job does.  The moving parts:

- **Submission** (``POST /jobs``): the payload is canonicalized off-loop
  (:mod:`repro.serve.jobspec`), then either served from the completed-
  result LRU (``cached: true``), attached to an in-flight execution with
  the same key (``coalesced: true``), or enqueued as a new execution on
  the priority queue.  A full queue answers 429, a draining server 503 —
  backpressure is explicit, never a hang.
- **Worker pool**: ``workers`` consumer tasks pull executions in
  (priority, arrival) order and run them via
  :func:`repro.serve.worker.run_attempt` on their own
  :class:`~repro.serve.worker.WorkerSlot` — one worker process per slot,
  forked on the slot's first attempt and kept for the jobs after it —
  with a monotonic deadline, a cancellation flag, and a bounded
  crash-retry budget.  A timeout, cancellation or crash replaces the
  slot's worker.
- **Progress** (``GET /jobs/<id>/events``): per-round telemetry
  events, each naming its powder run (``stage``), stream as NDJSON the
  moment the worker reports them, ending with the terminal state event.
- **Observability** (``GET /metrics``): queue depth, per-state job
  tallies, cache hit rate, per-phase latencies and worker forks
  (``worker_spawns``), built on the :class:`repro.telemetry.Metrics`
  registry.
- **Lint-as-a-service** (``POST /lint``): the PR-2 rule registry over a
  submitted BLIF, structured findings back.
- **Graceful shutdown** (``POST /shutdown``, SIGINT/SIGTERM): stop
  accepting, drain every accepted job to a terminal state, close, then
  stop and reap every worker process.

Nothing a client sends can kill a worker slot: malformed requests are
rejected before queueing with structured 4xx bodies, deterministic
optimizer failures are reported as job errors, and worker crashes are
retried within budget, then surfaced as structured failures.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import LintError, NetlistError, ReproError, ServeError
from repro.serve.cache import ResultCache
from repro.serve.http import (
    HttpError,
    Request,
    error_body,
    read_request,
    response_bytes,
    stream_header_bytes,
)
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMEOUT,
    Execution,
    Job,
)
from repro.serve.jobspec import canonicalize_job, server_library
from repro.serve.stats import LatencyWindow
from repro.serve.worker import WorkerSlot, run_attempt
from repro.telemetry import Metrics
from repro.telemetry.trace import deterministic_json


@dataclass
class ServerConfig:
    """Tunables of one :class:`PowderServer` instance."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Worker slots: queue-consumer tasks, each with one long-lived worker
    #: process forked on its first job.
    workers: int = 2
    #: Completed-result LRU capacity (entries).
    cache_entries: int = 256
    #: Hard cap on request bodies; beyond it the service answers 413.
    max_request_bytes: int = 8 * 1024 * 1024
    #: Job timeout when the submission does not name one (seconds).
    default_timeout: float = 300.0
    #: Upper clamp on client-requested timeouts (seconds).
    max_timeout: float = 3600.0
    #: Queue-depth bound; submissions beyond it answer 429.
    max_queue: int = 1024
    #: Worker re-runs granted after a crash (not after deterministic
    #: errors, timeouts, or cancellations).
    max_retries: int = 1
    #: Parent-side pipe poll interval (cancellation/timeout latency).
    poll_interval: float = 0.05
    #: Terminal jobs retained for polling before the oldest are pruned.
    max_jobs_retained: int = 10000
    #: Whether ``POST /shutdown`` is honoured (the CLI keeps it on; flip
    #: off for deployments where only signals may stop the service).
    allow_remote_shutdown: bool = True
    #: Optional sink for one-line request/lifecycle logs.
    log: Optional[Callable[[str], None]] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.default_timeout <= 0 or self.max_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class PowderServer:
    """The asyncio HTTP service; create, ``await start()``, serve."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.metrics = Metrics()
        self.cache = ResultCache(self.config.cache_entries)
        self.jobs: dict[str, Job] = {}
        #: Pending (queued or running) executions by canonical job key —
        #: the coalescing targets.  Entries leave on completion, so later
        #: duplicates hit the LRU instead.
        self._executions: dict[str, Execution] = {}
        self.queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = 0
        self._job_seq = 0
        self._accepting = True
        self._shutting_down = False
        self._shutdown_done = asyncio.Event()
        self._shutdown_task: Optional[asyncio.Task] = None
        self._worker_tasks: list[asyncio.Task] = []
        self._slots = [WorkerSlot() for _ in range(self.config.workers)]
        self._running_count = 0
        self._latencies = LatencyWindow()
        self._worker_pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="powder-serve-worker",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the queue consumers."""
        # Warm the library once in-process so neither request handling
        # nor forked workers pay the genlib parse.
        server_library()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=64 * 1024,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for index, slot in enumerate(self._slots):
            self._worker_tasks.append(
                asyncio.create_task(
                    self._worker_loop(slot), name=f"powder-worker-{index}"
                )
            )
        self._log(
            f"listening on http://{self.config.host}:{self.port} "
            f"({self.config.workers} workers, "
            f"cache {self.config.cache_entries} entries)"
        )

    async def run(self, install_signal_handlers: bool = False) -> None:
        """Start and serve until a shutdown completes."""
        await self.start()
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except NotImplementedError:  # pragma: no cover — non-unix
                    pass
        await self._shutdown_done.wait()

    def request_shutdown(self, drain: bool = True) -> None:
        """Schedule a graceful shutdown (idempotent; loop-thread only)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown(drain=drain)
            )

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, settle every accepted job, close the socket.

        With ``drain`` (the default) queued and running executions run to
        completion — an accepted job is never lost.  Without it, pending
        work is cancelled to a terminal ``cancelled`` state instead; it
        still is never silently dropped.
        """
        if self._shutting_down:
            await self._shutdown_done.wait()
            return
        self._shutting_down = True
        self._accepting = False
        self._log(
            f"shutdown requested (drain={drain}): "
            f"{self.queue.qsize()} queued, {self._running_count} running"
        )
        if not drain:
            now = time.monotonic()
            # Walk jobs, not the coalescing map: use_cache=False runs are
            # deliberately absent from it but must still be cancelled.
            for job in list(self.jobs.values()):
                if job.terminal:
                    continue
                if job.execution is not None:
                    job.execution.cancel_event.set()
                job.error = {
                    "code": "shutdown",
                    "message": "server shut down before the job ran",
                }
                job.set_state(CANCELLED, now)
                self.metrics.increment("jobs_cancelled")
        await self.queue.join()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._worker_pool.shutdown(wait=True)
        for slot in self._slots:
            slot.stop()
        self._log("shutdown complete")
        self._shutdown_done.set()

    async def wait_closed(self) -> None:
        await self._shutdown_done.wait()

    def _log(self, message: str) -> None:
        if self.config.log is not None:
            self.config.log(f"[powder-serve] {message}")

    # ------------------------------------------------------------------
    # Queue consumers
    # ------------------------------------------------------------------
    async def _worker_loop(self, slot: WorkerSlot) -> None:
        while True:
            _priority, _seq, execution = await self.queue.get()
            try:
                if execution.abandoned:
                    # Every attached job was cancelled while queued.
                    if self._executions.get(execution.key) is execution:
                        del self._executions[execution.key]
                    continue
                await self._run_execution(execution, slot)
            except Exception as error:  # pragma: no cover — last resort
                self._log(f"internal scheduler error: {error!r}")
                self._fail_execution_jobs(execution, {
                    "code": "internal",
                    "message": f"scheduler failure: {error}",
                })
            finally:
                self.queue.task_done()

    async def _run_execution(self, execution: Execution,
                             slot: WorkerSlot) -> None:
        loop = asyncio.get_running_loop()
        now = time.monotonic()
        execution.running = True
        self._running_count += 1
        for job in execution.live_jobs():
            self.metrics.timer("phase.queue_wait").add(now - job.submitted_at)
            job.set_state(RUNNING, now)

        def publish(event: dict) -> None:
            loop.call_soon_threadsafe(self._publish_event, execution, event)

        start = time.monotonic()
        deadline = start + execution.timeout
        try:
            while True:
                execution.attempts += 1
                outcome = await loop.run_in_executor(
                    self._worker_pool,
                    functools.partial(
                        run_attempt,
                        execution.spec,
                        slot=slot,
                        deadline=deadline,
                        cancel_event=execution.cancel_event,
                        publish=publish,
                        poll_interval=self.config.poll_interval,
                    ),
                )
                if (
                    outcome.status == "crashed"
                    and execution.attempts <= self.config.max_retries
                    and not execution.cancel_event.is_set()
                ):
                    self.metrics.increment("worker_retries")
                    self._log(
                        f"worker crash on {execution.key[:12]} "
                        f"(attempt {execution.attempts}); retrying"
                    )
                    continue
                break
        finally:
            execution.running = False
            self._running_count -= 1
        self.metrics.timer("phase.run").add(time.monotonic() - start)
        self._finish_execution(execution, outcome)

    def _publish_event(self, execution: Execution, event: dict) -> None:
        self.metrics.increment("progress_events")
        for job in execution.live_jobs():
            job.add_event(event)

    def _finish_execution(self, execution: Execution, outcome) -> None:
        now = time.monotonic()
        if self._executions.get(execution.key) is execution:
            del self._executions[execution.key]
        if outcome.status == "result":
            text = deterministic_json(outcome.payload)
            self.cache.put(execution.key, text)
            for job in execution.live_jobs():
                job.result_json = text
                job.set_state(DONE, now)
                self.metrics.increment("jobs_completed")
                total = now - job.submitted_at
                self.metrics.timer("phase.total").add(total)
                self._latencies.record(total)
        elif outcome.status == "timeout":
            for job in execution.live_jobs():
                job.error = {
                    "code": "timeout",
                    "message": (
                        f"job exceeded its {execution.timeout:.1f}s budget"
                    ),
                }
                job.set_state(TIMEOUT, now)
                self.metrics.increment("jobs_timeout")
        elif outcome.status == "cancelled":
            for job in execution.live_jobs():
                job.error = {"code": "cancelled",
                             "message": "cancelled by client"}
                job.set_state(CANCELLED, now)
                self.metrics.increment("jobs_cancelled")
        else:  # "error" (deterministic) or "crashed" (budget exhausted)
            if outcome.status == "crashed":
                self.metrics.increment("worker_crashes")
            self._fail_execution_jobs(execution, outcome.error)

    def _fail_execution_jobs(self, execution: Execution,
                             error: Optional[dict]) -> None:
        now = time.monotonic()
        for job in execution.live_jobs():
            job.error = error or {"code": "internal", "message": "unknown"}
            job.set_state(FAILED, now)
            self.metrics.increment("jobs_failed")

    # ------------------------------------------------------------------
    # Job bookkeeping
    # ------------------------------------------------------------------
    def _new_job(self, key: str, priority: int, timeout: float,
                 cached: bool = False, coalesced: bool = False) -> Job:
        self._job_seq += 1
        job = Job(
            id=f"j{self._job_seq}",
            key=key,
            priority=priority,
            timeout=timeout,
            cached=cached,
            coalesced=coalesced,
            submitted_at=time.monotonic(),
        )
        job.add_event({"type": "state", "status": QUEUED})
        self.jobs[job.id] = job
        self.metrics.increment("jobs_submitted")
        self._prune_jobs()
        return job

    def _prune_jobs(self) -> None:
        overflow = len(self.jobs) - self.config.max_jobs_retained
        if overflow <= 0:
            return
        for job_id in [
            job_id for job_id, job in self.jobs.items() if job.terminal
        ][:overflow]:
            del self.jobs[job_id]

    def _job_view(self, job: Job, include_result: bool = True) -> dict:
        view: dict = {
            "job_id": job.id,
            "status": job.state,
            "cached": job.cached,
            "coalesced": job.coalesced,
            "priority": job.priority,
            "key": job.key,
            "events": len(job.events),
        }
        if job.error is not None:
            view["error"] = job.error
        if include_result and job.result_json is not None:
            view["result"] = json.loads(job.result_json)
        return view

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        status = 500
        path = "-"
        start = time.monotonic()
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader, self.config.max_request_bytes),
                    timeout=30.0,
                )
            except asyncio.TimeoutError:
                raise HttpError("timed out reading the request",
                                code="request-timeout", status=408)
            if request is None:
                return
            path = f"{request.method} {request.path}"
            self.metrics.increment("http_requests")
            handled = await self._dispatch(request, writer)
            if handled is None:  # the handler streamed its own response
                status = 200
                return
            status, body, content_type = handled
            if 400 <= status < 500:
                self.metrics.increment("http_4xx")
            elif status >= 500:
                self.metrics.increment("http_5xx")
            writer.write(response_bytes(status, body, content_type))
            await writer.drain()
        except ServeError as error:
            status = error.status
            self.metrics.increment(
                "http_4xx" if status < 500 else "http_5xx"
            )
            try:
                writer.write(response_bytes(
                    status, error_body(error.code, str(error))
                ))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError):
            status = 0  # client went away mid-response
        except Exception as error:  # noqa: BLE001 — survive anything
            status = 500
            self.metrics.increment("http_5xx")
            self._log(f"internal error on {path}: {error!r}")
            try:
                writer.write(response_bytes(500, error_body(
                    "internal", f"{type(error).__name__}: {error}"
                )))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            elapsed_ms = (time.monotonic() - start) * 1e3
            if path != "-":
                self._log(f"{path} -> {status} ({elapsed_ms:.1f} ms)")
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request, writer):
        """Route one request; ``None`` means the handler streamed."""
        method, path = request.method, request.path
        if path == "/healthz":
            self._expect(method, "GET")
            return 200, deterministic_json({
                "status": "ok",
                "accepting": self._accepting,
            }).encode(), "application/json"
        if path == "/metrics":
            self._expect(method, "GET")
            return 200, deterministic_json(
                self._metrics_view()
            ).encode(), "application/json"
        if path == "/jobs":
            if method == "POST":
                return await self._handle_submit(request)
            self._expect(method, "GET")
            views = [
                self._job_view(job, include_result=False)
                for job in self.jobs.values()
            ]
            state = request.query.get("state")
            if state:
                views = [view for view in views if view["status"] == state]
            return 200, deterministic_json(
                {"jobs": views}
            ).encode(), "application/json"
        if path.startswith("/jobs/"):
            parts = path[len("/jobs/"):].split("/")
            job = self.jobs.get(parts[0])
            if job is None:
                raise HttpError(f"no such job {parts[0]!r}",
                                code="not-found", status=404)
            if len(parts) == 1:
                if method == "DELETE":
                    return self._handle_cancel(job)
                self._expect(method, "GET")
                return 200, deterministic_json(
                    self._job_view(job)
                ).encode(), "application/json"
            if len(parts) == 2 and parts[1] == "result":
                self._expect(method, "GET")
                if job.result_json is None:
                    raise HttpError(
                        f"job {job.id} is {job.state}, not done",
                        code="not-done", status=409,
                    )
                return 200, job.result_json.encode(), "application/json"
            if len(parts) == 2 and parts[1] == "events":
                self._expect(method, "GET")
                await self._stream_events(job, writer)
                return None
            raise HttpError(f"unknown job endpoint {path!r}",
                            code="not-found", status=404)
        if path == "/lint":
            self._expect(method, "POST")
            return await self._handle_lint(request)
        if path == "/shutdown":
            self._expect(method, "POST")
            if not self.config.allow_remote_shutdown:
                raise HttpError("remote shutdown is disabled",
                                code="forbidden", status=405)
            drain = True
            if request.body:
                drain = bool(request.json().get("drain", True))
            self.request_shutdown(drain=drain)
            return 202, deterministic_json({
                "status": "draining" if drain else "stopping",
            }).encode(), "application/json"
        raise HttpError(f"no such endpoint {path!r}",
                        code="not-found", status=404)

    @staticmethod
    def _expect(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(f"use {expected} on this endpoint",
                            code="method-not-allowed", status=405)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_submit(self, request: Request):
        payload = request.json()
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise HttpError("'priority' must be an integer",
                            code="bad-request", status=400)
        timeout = payload.get("timeout", self.config.default_timeout)
        if isinstance(timeout, bool) or not isinstance(
            timeout, (int, float)
        ) or timeout <= 0:
            raise HttpError("'timeout' must be a positive number of seconds",
                            code="bad-request", status=400)
        timeout = min(float(timeout), self.config.max_timeout)
        use_cache = payload.get("use_cache", True)
        if not isinstance(use_cache, bool):
            raise HttpError("'use_cache' must be a boolean",
                            code="bad-request", status=400)

        loop = asyncio.get_running_loop()
        # Canonicalization parses the BLIF — keep it off the event loop.
        spec = await loop.run_in_executor(
            None, canonicalize_job, payload
        )

        if use_cache:
            cached_text = self.cache.get(spec.key)
            if cached_text is not None:
                job = self._new_job(spec.key, priority, timeout, cached=True)
                job.result_json = cached_text
                job.set_state(DONE, time.monotonic())
                self.metrics.increment("jobs_completed")
                return 200, deterministic_json(
                    self._submit_view(job)
                ).encode(), "application/json"
            execution = self._executions.get(spec.key)
            if execution is not None and not execution.abandoned:
                job = self._new_job(
                    spec.key, priority, timeout, coalesced=True
                )
                job.execution = execution
                execution.jobs.append(job)
                if execution.running:
                    job.set_state(RUNNING, time.monotonic())
                self.metrics.increment("jobs_coalesced")
                return 202, deterministic_json(
                    self._submit_view(job)
                ).encode(), "application/json"

        if not self._accepting:
            raise HttpError("server is draining; not accepting jobs",
                            code="shutting-down", status=503)
        if self.queue.qsize() >= self.config.max_queue:
            self.metrics.increment("rejected_backpressure")
            raise HttpError(
                f"job queue is full ({self.config.max_queue} pending)",
                code="queue-full", status=429,
            )
        job = self._new_job(spec.key, priority, timeout)
        execution = Execution(spec=spec, jobs=[job], timeout=timeout)
        job.execution = execution
        # First submission of a key becomes the coalescing target; a
        # use_cache=False duplicate runs privately and must not steal it.
        if spec.key not in self._executions:
            self._executions[spec.key] = execution
        self._seq += 1
        self.queue.put_nowait((-priority, self._seq, execution))
        return 202, deterministic_json(
            self._submit_view(job)
        ).encode(), "application/json"

    def _submit_view(self, job: Job) -> dict:
        return {
            "job_id": job.id,
            "status": job.state,
            "cached": job.cached,
            "coalesced": job.coalesced,
            "key": job.key,
        }

    def _handle_cancel(self, job: Job):
        if not job.terminal:
            job.error = {"code": "cancelled",
                         "message": "cancelled by client"}
            job.set_state(CANCELLED, time.monotonic())
            self.metrics.increment("jobs_cancelled")
            execution = job.execution
            if execution is not None and execution.abandoned:
                # Last attached job gone: stop the run (or let the queue
                # consumer skip it if it has not started yet).
                execution.cancel_event.set()
                if self._executions.get(execution.key) is execution \
                        and not execution.running:
                    del self._executions[execution.key]
        return 200, deterministic_json(
            self._job_view(job)
        ).encode(), "application/json"

    async def _handle_lint(self, request: Request):
        payload = request.json()
        blif = payload.get("blif")
        if not isinstance(blif, str) or not blif.strip():
            raise HttpError("'blif' must be a non-empty string",
                            code="bad-blif", status=400)
        for key in ("select", "ignore"):
            value = payload.get(key)
            if value is not None and (
                not isinstance(value, list)
                or not all(isinstance(item, str) for item in value)
            ):
                raise HttpError(f"'{key}' must be a list of rule IDs",
                                code="bad-request", status=400)
        patterns = payload.get("patterns", 1024)
        if isinstance(patterns, bool) or not isinstance(patterns, int) \
                or patterns < 0:
            raise HttpError("'patterns' must be a non-negative integer",
                            code="bad-request", status=400)
        if patterns:
            # The probability engine runs max(64, patterns) patterns and
            # refuses a count that is not whole simulation words.
            from repro.kernels.words import validate_num_patterns

            try:
                validate_num_patterns(max(64, patterns), "'patterns'")
            except NetlistError as error:
                raise HttpError(str(error), code="bad-request",
                                status=400) from None

        def run_lint() -> dict:
            from repro.lint import lint_netlist
            from repro.netlist.blif import parse_blif

            try:
                netlist = parse_blif(blif, server_library())
            except ReproError as error:
                raise ServeError(f"invalid BLIF: {error}",
                                 code="bad-blif", status=400) from error
            probabilities = None
            if patterns:
                from repro.power.probability import SimulationProbability

                engine = SimulationProbability(
                    netlist, num_patterns=max(64, patterns), seed=3
                )
                probabilities = {
                    name: engine.probability(name)
                    for name in netlist.gates
                }
            try:
                report = lint_netlist(
                    netlist,
                    select=payload.get("select"),
                    ignore=payload.get("ignore"),
                    probabilities=probabilities,
                )
            except LintError as error:
                raise ServeError(str(error), code="bad-rules",
                                 status=400) from error
            worst = report.worst()
            return {
                "netlist": report.netlist_name,
                "worst": str(worst) if worst is not None else None,
                "counts": report.counts(),
                "diagnostics": [d.to_dict() for d in report.diagnostics],
            }

        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(None, run_lint)
        except ServeError as error:
            raise HttpError(str(error), code=error.code,
                            status=error.status) from error
        self.metrics.increment("lint_requests")
        return 200, deterministic_json(result).encode(), "application/json"

    async def _stream_events(self, job: Job, writer) -> None:
        """NDJSON progress feed: replay, then live until terminal."""
        self.metrics.increment("event_streams")
        writer.write(stream_header_bytes(200))
        index = 0
        while True:
            while index < len(job.events):
                line = json.dumps(job.events[index], sort_keys=True) + "\n"
                writer.write(line.encode("utf-8"))
                index += 1
            await writer.drain()
            if job.terminal and index >= len(job.events):
                return
            job.new_event.clear()
            try:
                await asyncio.wait_for(job.new_event.wait(), timeout=15.0)
            except asyncio.TimeoutError:
                # Heartbeat: keeps the pipe warm and detects dead peers.
                writer.write(b'{"type":"ping"}\n')
                await writer.drain()

    # ------------------------------------------------------------------
    def _metrics_view(self) -> dict:
        by_state: dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "accepting": self._accepting,
            "queue_depth": self.queue.qsize(),
            "running": self._running_count,
            "workers": self.config.workers,
            "jobs": {"tracked": len(self.jobs), "by_state": by_state},
            "cache": self.cache.stats(),
            "counters": {
                **self.metrics.counters(),
                "worker_spawns": sum(slot.spawns for slot in self._slots),
            },
            "timers": self.metrics.timers(),
            "latency": self._latencies.summary(),
        }
