"""Worker processes: one long-lived worker per slot, replaced when preempted.

A slot forks its worker on its first job and keeps it for the jobs after
it.  A timeout, a cancellation or a crash replaces the worker; a
deterministic job error does not; a shutdown reaps every worker.
``worker_spawns`` on ``/metrics`` counts the forks.  The last two tests
boot a real ``powder serve`` process, which installs signal handlers that
a forked worker must not keep.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import TransformError
from repro.serve import (
    ServeClient,
    ServerConfig,
    ServerThread,
    canonicalize_job,
)
from repro.serve.worker import execute_jobspec
from repro.telemetry import deterministic_json
from tests.serve.conftest import FAST_OPTIONS, make_blif

ROOT = Path(__file__).resolve().parents[2]

#: About 1.3 s of optimization (2 vCPU): still running when a 0.3 s
#: deadline, a cancellation or a signal reaches it.
HEAVY_OPTIONS = {"num_patterns": 4096, "repeat": 8, "max_rounds": 20}


def heavy_blif() -> str:
    return make_blif(132, min_gates=80, max_gates=100)


def in_process_bytes(blif: str) -> bytes:
    """The result bytes an in-process run of the job produces."""
    spec = canonicalize_job({"blif": blif, "options": FAST_OPTIONS})
    return deterministic_json(execute_jobspec(spec)).encode()


def run_fast(client, seed: int) -> None:
    """Serve one fast job; it must be done and byte-identical."""
    blif = make_blif(seed)
    accepted = client.submit(blif, options=FAST_OPTIONS, use_cache=False)
    view = client.wait(accepted["job_id"])
    assert view["status"] == "done"
    assert client.result_bytes(view["job_id"]) == in_process_bytes(blif)


def spawns(client) -> int:
    return client.metrics()["counters"]["worker_spawns"]


def wait_running(client, job_id: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while client.job(job_id)["status"] == "queued":
        assert time.monotonic() < deadline, f"{job_id} never started"
        time.sleep(0.01)


class TestWorkerReuse:
    def test_one_fork_settles_distinct_jobs(self):
        with ServerThread(ServerConfig(workers=1)) as handle:
            client = handle.client()
            assert spawns(client) == 0  # nothing forks before the first job
            for seed in (500, 501, 502, 503):
                run_fast(client, seed)
            assert spawns(client) == 1

    def test_timeout_and_cancel_replace_the_worker(self):
        with ServerThread(ServerConfig(workers=1)) as handle:
            client = handle.client()
            run_fast(client, 510)
            timed_out = client.submit(heavy_blif(), options=HEAVY_OPTIONS,
                                      timeout=0.3, use_cache=False)
            assert client.wait(timed_out["job_id"])["status"] == "timeout"
            run_fast(client, 511)
            assert spawns(client) == 2

            cancelled = client.submit(heavy_blif(), options=HEAVY_OPTIONS,
                                      use_cache=False)
            wait_running(client, cancelled["job_id"])
            assert client.cancel(cancelled["job_id"])["status"] == "cancelled"
            run_fast(client, 512)
            assert spawns(client) == 3
            counters = client.metrics()["counters"]
            assert "worker_crashes" not in counters
            assert "worker_retries" not in counters

    def test_event_stream_open_across_a_fork_still_ends(self):
        with ServerThread(ServerConfig(workers=1)) as handle:
            client = handle.client(timeout=10)
            blocker = client.submit(heavy_blif(), options=HEAVY_OPTIONS,
                                    use_cache=False)
            wait_running(client, blocker["job_id"])
            queued = client.submit(make_blif(550), options=FAST_OPTIONS,
                                   use_cache=False)
            stream = client.events(queued["job_id"])
            assert next(stream) == {"type": "state", "status": "queued"}
            # The queued job now starts on a worker forked while its
            # stream is open; the stream must still reach EOF.
            client.cancel(blocker["job_id"])
            assert list(stream)[-1] == {"type": "state", "status": "done"}
            assert spawns(client) == 2

    def test_job_error_keeps_the_worker(self, monkeypatch):
        import repro.serve.worker as worker_module

        poisoned = make_blif(520)
        poisoned_key = canonicalize_job(
            {"blif": poisoned, "options": FAST_OPTIONS}
        ).key
        original = worker_module.execute_jobspec

        def failing(spec, emit=None):
            if spec.key == poisoned_key:
                raise TransformError("poisoned job")
            return original(spec, emit)

        monkeypatch.setattr(worker_module, "execute_jobspec", failing)
        with ServerThread(ServerConfig(workers=1)) as handle:
            client = handle.client()
            accepted = client.submit(poisoned, options=FAST_OPTIONS)
            view = client.wait(accepted["job_id"])
            assert view["status"] == "failed"
            assert view["error"] == {"code": "TransformError",
                                     "message": "poisoned job"}
            run_fast(client, 521)
            assert spawns(client) == 1


class TestReaping:
    def test_stop_reaps_every_worker_after_a_crash_and_a_timeout(
        self, monkeypatch, tmp_path
    ):
        import repro.serve.worker as worker_module

        flag = tmp_path / "crashed-once"
        original = worker_module._child_main

        def crash_once(conn, spec):
            if not flag.exists():
                flag.write_text("x")
                os._exit(17)
            original(conn, spec)

        monkeypatch.setattr(worker_module, "spawn_target", crash_once)
        before = set(multiprocessing.active_children())
        handle = ServerThread(ServerConfig(workers=1, max_retries=1)).start()
        try:
            client = handle.client()
            run_fast(client, 530)  # crashes once, then done on a new worker
            timed_out = client.submit(heavy_blif(), options=HEAVY_OPTIONS,
                                      timeout=0.3, use_cache=False)
            assert client.wait(timed_out["job_id"])["status"] == "timeout"
            run_fast(client, 531)  # leaves a live worker for stop() to reap
            counters = client.metrics()["counters"]
            assert counters["worker_retries"] == 1
            assert counters["worker_spawns"] == 3
        finally:
            handle.stop()
        assert set(multiprocessing.active_children()) - before == set()


# ----------------------------------------------------------------------
# A real ``powder serve`` process
# ----------------------------------------------------------------------
@pytest.fixture
def cli_server(tmp_path):
    """``powder serve`` with one worker slot, in a session of its own.

    Yields the process, a client and the log path.  Every process of the
    session is killed on the way out, whatever the test did.
    """
    log = tmp_path / "serve.log"
    path = os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    )
    with open(log, "w") as sink:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1"],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.DEVNULL, stderr=sink, start_new_session=True,
        )
    try:
        deadline = time.monotonic() + 60
        while True:
            match = re.search(r"listening on http://[^:]+:(\d+)",
                              log.read_text())
            if match:
                break
            assert process.poll() is None, log.read_text()
            assert time.monotonic() < deadline, "powder serve never listened"
            time.sleep(0.05)
        yield process, ServeClient(port=int(match.group(1))), log
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(30)


def group_is_empty(pid: int) -> bool:
    """Whether no process is left in the process group ``pid`` leads."""
    try:
        os.killpg(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestPowderServe:
    def test_timeout_leaves_the_server_up(self, cli_server):
        process, client, log = cli_server
        start = time.monotonic()
        accepted = client.submit(heavy_blif(), options=HEAVY_OPTIONS,
                                 timeout=0.3, use_cache=False)
        view = client.wait(accepted["job_id"], timeout=60)
        assert view["status"] == "timeout"
        assert time.monotonic() - start < 0.3 + 1.0
        assert client.health() == {"status": "ok", "accepting": True}
        assert "shutdown requested" not in log.read_text()

        assert client.shutdown() == {"status": "draining"}
        assert process.wait(30) == 0
        assert group_is_empty(process.pid)

    def test_interrupt_drains_without_killing_the_running_job(
        self, cli_server
    ):
        process, client, log = cli_server
        run_fast(client, 540)
        accepted = client.submit(heavy_blif(), options=HEAVY_OPTIONS,
                                 use_cache=False)
        wait_running(client, accepted["job_id"])
        time.sleep(0.2)
        # As a terminal's Ctrl-C does: to the server and its worker alike.
        os.killpg(process.pid, signal.SIGINT)
        assert process.wait(60) == 0
        text = log.read_text()
        assert "shutdown requested (drain=True): 0 queued, 1 running" in text
        assert "worker crash" not in text
        assert text.rstrip().endswith("shutdown complete")
        assert group_is_empty(process.pid)
