"""Concurrency stress: many clients, one server, nothing lost.

The invariants under fire:

- every submission gets its own job ID; IDs are never duplicated or
  dropped, even when most submissions coalesce onto shared executions,
- after the storm the queue depth returns to zero and no execution is
  stuck running,
- a graceful (drain) shutdown issued mid-storm finishes every accepted
  job — server-side state is the authority, since clients lose their
  sockets once the listener closes.

The default run is sized for CI; ``POWDER_RUN_SLOW=1`` scales the storm
up and adds an overload pass that fills the bounded queue.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.serve import (
    ServeClientError,
    ServerConfig,
    ServerThread,
    TERMINAL_STATES,
)
from tests.serve.conftest import make_blif

FAST = {"num_patterns": 64, "repeat": 4, "max_rounds": 2}


def _in_threads(work, count: int) -> None:
    """Run ``work(index)`` on ``count`` threads and join them all."""
    threads = [
        threading.Thread(target=work, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_clients_lose_no_ids_and_settle_the_queue():
    clients = 8
    per_client = 6
    pool = [make_blif(seed) for seed in (200, 201, 202)]
    with ServerThread(ServerConfig(workers=2)) as handle:
        ids_by_thread: dict[int, list[str]] = {}
        errors: list[BaseException] = []

        def storm(index: int) -> None:
            client = handle.client()
            mine: list[str] = []
            try:
                for turn in range(per_client):
                    accepted = client.submit(
                        pool[(index + turn) % len(pool)], options=FAST
                    )
                    mine.append(accepted["job_id"])
                for job_id in mine:
                    view = client.wait(job_id, timeout=120)
                    assert view["status"] == "done"
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append(error)
            ids_by_thread[index] = mine

        _in_threads(storm, clients)
        assert not errors, errors

        all_ids = [
            job_id for ids in ids_by_thread.values() for job_id in ids
        ]
        assert len(all_ids) == clients * per_client
        assert len(set(all_ids)) == len(all_ids)  # no duplicated IDs

        client = handle.client()
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["running"] == 0
        assert metrics["counters"]["jobs_submitted"] == len(all_ids)
        assert metrics["jobs"]["by_state"] == {"done": len(all_ids)}
        # the storm reused three circuits: dedup must have engaged
        assert (
            metrics["cache"]["hits"]
            + metrics["counters"].get("jobs_coalesced", 0)
        ) > 0


def test_drain_shutdown_under_load_loses_no_accepted_job():
    jobs = 10
    handle = ServerThread(ServerConfig(workers=2)).start()
    client = handle.client()
    accepted_ids = []
    for index in range(jobs):
        accepted = client.submit(
            make_blif(220 + index, min_gates=10, max_gates=16),
            options={"num_patterns": 256, "repeat": 4, "max_rounds": 2},
            use_cache=False,
        )
        accepted_ids.append(accepted["job_id"])
    # shut down while most of those jobs are still queued
    handle.stop(drain=True, join_timeout=300)
    states = {
        job_id: handle.server.jobs[job_id].state
        for job_id in accepted_ids
    }
    assert all(state == "done" for state in states.values()), states
    assert handle.server.queue.qsize() == 0


def test_nondrain_shutdown_settles_every_job_as_cancelled_or_done():
    handle = ServerThread(ServerConfig(workers=1)).start()
    client = handle.client()
    accepted_ids = []
    for index in range(6):
        accepted = client.submit(
            make_blif(240 + index, min_gates=20, max_gates=28),
            options={"num_patterns": 1024, "repeat": 5, "max_rounds": 6},
            use_cache=False,
        )
        accepted_ids.append(accepted["job_id"])
    time.sleep(0.2)  # let the worker pick one up
    handle.stop(drain=False, join_timeout=120)
    states = {
        job_id: handle.server.jobs[job_id].state
        for job_id in accepted_ids
    }
    # never lost: every accepted job is terminal, none stuck queued/running
    assert all(state in TERMINAL_STATES for state in states.values()), states
    assert "cancelled" in states.values()


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("POWDER_RUN_SLOW"),
    reason="heavy serve storm: set POWDER_RUN_SLOW=1",
)
def test_heavy_storm_with_overload_and_drain():
    clients = 12
    per_client = 8
    pool = [make_blif(seed) for seed in (300, 301, 302, 303)]
    # The overload submits distinct circuits without waiting and past the
    # cache, so nothing settles early and the queue bound must refuse.
    distinct = [make_blif(400 + index) for index in range(clients * per_client)]
    handle = ServerThread(ServerConfig(workers=2, max_queue=64)).start()
    errors: list[BaseException] = []
    closed_states: list[str] = []
    accepted_ids: list[str] = []
    refused: list[ServeClientError] = []

    def closed_loop(index: int) -> None:
        client = handle.client()
        try:
            for turn in range(per_client):
                accepted = client.submit(
                    pool[(index + turn) % len(pool)], options=FAST
                )
                view = client.wait(accepted["job_id"], timeout=120)
                closed_states.append(view["status"])
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    def overload(index: int) -> None:
        client = handle.client()
        try:
            for blif in distinct[index::clients]:
                try:
                    accepted = client.submit(blif, options=FAST, use_cache=False)
                except ServeClientError as error:
                    if error.status != 429:
                        raise
                    refused.append(error)
                else:
                    accepted_ids.append(accepted["job_id"])
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    try:
        _in_threads(closed_loop, clients)
        assert not errors, errors
        assert closed_states == ["done"] * clients * per_client
        metrics = handle.client().metrics()
        assert (
            metrics["cache"]["hits"]
            + metrics["counters"].get("jobs_coalesced", 0)
        ) > 0

        _in_threads(overload, clients)
        assert not errors, errors  # only 429 may refuse; never a 5xx
        assert refused  # the queue bound was reached
        assert {error.code for error in refused} == {"queue-full"}
        metrics = handle.client().metrics()
        assert metrics["counters"]["rejected_backpressure"] == len(refused)
    finally:
        # drain while the overload is still queued
        handle.stop(drain=True, join_timeout=300)
    states = {job_id: handle.server.jobs[job_id].state for job_id in accepted_ids}
    assert all(state == "done" for state in states.values()), states
    assert handle.server.queue.qsize() == 0
