"""Worker-side job execution: one long-lived process per server slot.

Each of the server's ``workers`` slots owns a :class:`WorkerSlot`, whose
``fork``ed worker process starts on the slot's first attempt and then
runs one job after another over a duplex pipe, so a job pays neither a
fork/exit/reap round trip nor a fresh copy of the server's pages.
Preemption stays real: a timeout or cancellation terminates the slot's
worker, and a worker crash (whatever the cause) can never take the
server down — the parent sees the pipe close without a final message and
retries within its budget.  Either way the slot forks a fresh worker for
its next attempt.

A new worker first drops what it inherits from the server
(:func:`_detach_from_server`): the server's signal wiring, so
``terminate()`` stops it and none of its signals reach the server's
event loop, and every socket but its own pipe end, so a client
connection the server closes still reaches EOF at the client.

The parent sends a :class:`~repro.serve.jobspec.JobSpec`; the worker
streams back:

- ``{"type": "round", ...}`` — one per finished optimizer round, carrying
  the PR-4 :class:`~repro.telemetry.RoundTrace` fields (pool size, per-
  class candidate counts, shortlist evaluations, moves, rejections),
- ``{"type": "result", "payload": {...}}`` — the canonical result,
- ``{"type": "error", "error": {...}}`` — a structured, *deterministic*
  failure (no retry: the same input would fail the same way); the
  worker stays up for the next job.

:func:`execute_jobspec` is the exact code path the worker runs, exposed
in-process for the byte-identity tests: serving a job must equal calling
:func:`repro.transform.optimizer.power_optimize` yourself.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import stat
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable, Optional

from repro.errors import ReproError
from repro.serve.jobspec import JobSpec, server_library
from repro.telemetry.tracer import Tracer

#: Fallback cap on how long the parent waits for a terminated worker to
#: be reaped before escalating from SIGTERM to SIGKILL.
_REAP_SECONDS = 5.0


class StreamingTracer(Tracer):
    """A PR-4 tracer that additionally emits each finished round."""

    def __init__(self, emit: Callable[[dict], None]):
        super().__init__()
        self._emit = emit

    def end_round(self) -> None:
        finished = self._round
        super().end_round()
        if finished is not None:
            self._emit({
                "type": "round",
                "index": finished.index,
                "pool_size": finished.pool_size,
                "candidates_by_class": dict(finished.candidates_by_class),
                "shortlist_evaluations": finished.shortlist_evaluations,
                "moves_applied": finished.moves_applied,
                "rejections": dict(finished.rejections),
            })


def execute_jobspec(
    spec: JobSpec, emit: Optional[Callable[[dict], None]] = None
) -> dict:
    """Run one canonical job to completion; the canonical result dict.

    Identical to what an in-process
    :func:`~repro.transform.optimizer.power_optimize` (or explicit
    pipeline run) produces for the same inputs: the tracer is read-only,
    so streaming progress never changes a move.
    """
    from repro.netlist.blif import parse_blif, write_blif
    from repro.pipeline import PassManager, build_pipeline, default_pipeline
    from repro.transform.optimizer import OptimizeOptions

    netlist = parse_blif(spec.blif, server_library())
    options = OptimizeOptions.from_dict(json.loads(spec.options_json))
    if emit is not None and not options.windowed:
        options.trace = StreamingTracer(emit)
    passes = (
        build_pipeline(spec.spec) if spec.spec is not None
        else default_pipeline(options)
    )
    outcome = PassManager().run(netlist, options, passes)
    result = outcome.optimize_result

    payload: dict = {
        "netlist": outcome.netlist.name,
        "blif": write_blif(outcome.netlist),
        "spec": spec.spec,
    }
    if result is not None:
        payload["summary"] = result.summary_fields()
    return payload


def _child_main(conn, spec: JobSpec) -> None:
    """Run one job in a worker process and send its final message."""
    try:
        payload = execute_jobspec(spec, emit=conn.send)
        conn.send({"type": "result", "payload": payload})
    except ReproError as error:
        conn.send({"type": "error", "error": {
            "code": type(error).__name__, "message": str(error),
        }})
    except Exception as error:  # noqa: BLE001 — the boundary of a job
        conn.send({"type": "error", "error": {
            "code": "internal",
            "message": f"{type(error).__name__}: {error}",
        }})


#: Indirection point so tests can inject crashing/slow workers without
#: any test-only branch in the production path.
spawn_target = _child_main


def _detach_from_server(conn) -> None:
    """Drop what a freshly forked worker inherits from the server."""
    # A server run with signal handlers routes SIGINT/SIGTERM to a no-op
    # Python handler and writes them into its event loop's wakeup socket:
    # a worker left so would ignore terminate() and make the server shut
    # down.  An interrupt from the terminal reaches the whole process
    # group; the server drains on it, so a running job finishes.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A socket held open here (the listener, a client connection, another
    # slot's pipe) never reaches EOF at its peer.  Each is swapped for
    # /dev/null rather than closed, so the server's socket objects copied
    # into this process never own a descriptor number reused since.  The
    # standard streams stay: under a service manager they may be sockets
    # to its log.
    keep = conn.fileno()
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/dev/fd"):
            fd = int(name)
            try:
                if fd > 2 and fd != keep and stat.S_ISSOCK(
                    os.fstat(fd).st_mode
                ):
                    os.dup2(null, fd)
            except OSError:
                pass  # the listing's own descriptor, closed since
    finally:
        os.close(null)


def _worker_main(conn) -> None:
    """Entry point of a slot's worker process: run jobs until EOF."""
    _detach_from_server(conn)
    while True:
        try:
            spec = conn.recv()
        except EOFError:
            return
        spawn_target(conn, spec)


class WorkerSlot:
    """One server slot's worker process, forked on the slot's first attempt.

    Only one thread drives a slot at a time: its queue consumer's attempt,
    then the server's shutdown.
    """

    def __init__(self) -> None:
        #: Worker processes this slot has forked.
        self.spawns = 0
        #: The live worker and the parent's end of its pipe.
        self._worker: Optional[tuple[BaseProcess, Connection]] = None

    def connection(self) -> Connection:
        """The pipe to this slot's live worker; forks one if there is none."""
        if self._worker is not None and not self._worker[0].is_alive():
            self.stop()  # died while idle
        if self._worker is None:
            context = multiprocessing.get_context("fork")
            conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            process.start()
            child_conn.close()
            self._worker = (process, conn)
            self.spawns += 1
        return self._worker[1]

    def alive(self) -> bool:
        return self._worker is not None and self._worker[0].is_alive()

    def stop(self) -> Optional[int]:
        """Terminate and reap the worker; its exit code (``None``: none)."""
        if self._worker is None:
            return None
        process, conn = self._worker
        self._worker = None
        if process.is_alive():
            process.terminate()
            process.join(_REAP_SECONDS)
        if process.is_alive():  # pragma: no cover — SIGTERM always suffices
            process.kill()
        process.join(_REAP_SECONDS)
        conn.close()
        return process.exitcode


@dataclass
class AttemptOutcome:
    """What one worker attempt produced."""

    status: str  # "result" | "error" | "cancelled" | "timeout" | "crashed"
    payload: Optional[dict] = None
    error: Optional[dict] = None


def run_attempt(
    spec: JobSpec,
    *,
    slot: WorkerSlot,
    deadline: float,
    cancel_event,
    publish: Callable[[dict], None],
    poll_interval: float = 0.05,
) -> AttemptOutcome:
    """Run one attempt on ``slot``'s worker to a verdict (blocking;
    executor-thread side).

    Sends the spec to the slot's worker, forking one if the slot has none,
    then polls the pipe at ``poll_interval``, checking the cancellation
    flag and the monotonic ``deadline`` between polls.  An attempt that
    ends without the worker's final ``result``/``error`` message —
    cancelled, timed out, or a pipe that closed (a worker crash) —
    terminates the worker, so the slot's next attempt forks a fresh one.
    """
    conn = slot.connection()
    final: Optional[dict] = None
    verdict = "crashed"
    try:
        conn.send(spec)
        while final is None:
            if cancel_event.is_set():
                verdict = "cancelled"
                break
            if time.monotonic() >= deadline:
                verdict = "timeout"
                break
            alive = slot.alive()
            if conn.poll(poll_interval):
                event = conn.recv()
                if event.get("type") in ("result", "error"):
                    final = event
                else:
                    publish(event)
            elif not alive:
                break  # exited before the poll, and nothing is buffered
    except (EOFError, OSError):
        pass  # the worker's end of the pipe closed
    finally:
        exitcode = slot.stop() if final is None else None

    if final is not None and final["type"] == "result":
        return AttemptOutcome("result", payload=final["payload"])
    if final is not None:
        return AttemptOutcome("error", error=final["error"])
    if verdict != "crashed":
        return AttemptOutcome(verdict)
    return AttemptOutcome("crashed", error={
        "code": "worker-crash",
        "message": (
            f"worker exited with code {exitcode} before producing a result"
        ),
    })
