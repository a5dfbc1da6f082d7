"""End-to-end tests against a live server on an ephemeral port."""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import pytest

from repro.serve import (
    ServeClient,
    ServeClientError,
    ServerConfig,
    ServerThread,
)
from repro.serve.http import stream_header_bytes
from tests.serve.conftest import FAST_OPTIONS, SLOW_OPTIONS, make_blif


class TestLifecycle:
    def test_health(self, client):
        assert client.health() == {"status": "ok", "accepting": True}

    def test_submit_poll_result(self, client):
        blif = make_blif(100)
        accepted = client.submit(blif, options=FAST_OPTIONS,
                                 use_cache=False)
        assert accepted["job_id"].startswith("j")
        assert accepted["status"] in ("queued", "running")
        view = client.wait(accepted["job_id"])
        assert view["status"] == "done"
        result = view["result"]
        assert result["blif"].startswith(".model")
        assert result["summary"]["final_power"] <= (
            result["summary"]["initial_power"]
        )
        listed = client.jobs(state="done")
        assert accepted["job_id"] in [job["job_id"] for job in listed]

    def test_result_endpoint_serves_canonical_bytes(self, client):
        accepted = client.submit(make_blif(101), options=FAST_OPTIONS)
        client.wait(accepted["job_id"])
        raw = client.result_bytes(accepted["job_id"])
        parsed = json.loads(raw)
        # byte-stable canonical JSON: sorted keys, compact separators
        assert raw == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        ).encode()

    def test_result_before_done_is_409(self, client):
        accepted = client.submit(make_blif(102), options=SLOW_OPTIONS,
                                 use_cache=False)
        with pytest.raises(ServeClientError) as excinfo:
            client.result_bytes(accepted["job_id"])
        assert excinfo.value.status == 409
        client.cancel(accepted["job_id"])

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_and_bad_method(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._json("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeClientError) as excinfo:
            client._json("DELETE", "/healthz")
        assert excinfo.value.status == 405


class TestEvents:
    def test_stream_replays_rounds_to_terminal(self, client):
        accepted = client.submit(make_blif(110), options=FAST_OPTIONS,
                                 use_cache=False)
        events = list(client.events(accepted["job_id"]))
        kinds = [event["type"] for event in events]
        assert kinds[0] == "state"
        assert "round" in kinds
        assert events[-1] == {"type": "state", "status": "done"}
        rounds = [event for event in events if event["type"] == "round"]
        assert all("moves_applied" in event for event in rounds)
        assert [event["index"] for event in rounds] == list(
            range(1, len(rounds) + 1)
        )

    def test_stream_on_finished_job_replays_everything(self, client):
        accepted = client.submit(make_blif(111), options=FAST_OPTIONS)
        client.wait(accepted["job_id"])
        events = list(client.events(accepted["job_id"]))
        assert events[-1] == {"type": "state", "status": "done"}

    def test_stream_unknown_job_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            list(client.events("j999999"))
        assert excinfo.value.status == 404

    def test_stream_ends_at_the_terminal_event_on_an_open_socket(self):
        # A peer that sends the terminal state event and keeps the
        # connection open: the stream ends at the event, not at the
        # client's socket timeout.
        listener = socket.create_server(("127.0.0.1", 0))
        release = threading.Event()

        def serve():
            connection, _address = listener.accept()
            with connection:
                request = b""
                while b"\r\n\r\n" not in request:
                    request += connection.recv(4096)
                connection.sendall(
                    stream_header_bytes(200)
                    + b'{"status": "running", "type": "state"}\n'
                    + b'{"status": "done", "type": "state"}\n'
                )
                release.wait(10)

        peer = threading.Thread(target=serve, daemon=True)
        peer.start()
        client = ServeClient(port=listener.getsockname()[1], timeout=5)
        start = time.perf_counter()
        try:
            events = list(client.events("j1"))
        finally:
            release.set()
            peer.join()
            listener.close()
        assert time.perf_counter() - start < 1.0
        assert events == [
            {"type": "state", "status": "running"},
            {"type": "state", "status": "done"},
        ]


class TestDedup:
    def test_cache_hit_is_bit_identical_and_instant_done(self, client):
        blif = make_blif(120)
        first = client.submit(blif, options=FAST_OPTIONS)
        client.wait(first["job_id"])
        solo = client.result_bytes(first["job_id"])

        duplicate = client.submit(blif, options=FAST_OPTIONS)
        assert duplicate["status"] == "done"
        assert duplicate["cached"] is True
        assert client.result_bytes(duplicate["job_id"]) == solo

    def test_syntactic_noise_still_hits_the_cache(self, client):
        blif = make_blif(121)
        first = client.submit(blif, options=FAST_OPTIONS)
        client.wait(first["job_id"])
        noisy = "# comment\n\n" + blif.replace("\n", "\n\n")
        duplicate = client.submit(noisy, options=FAST_OPTIONS)
        assert duplicate["cached"] is True
        assert duplicate["key"] == first["key"]

    def test_inflight_duplicates_coalesce_to_one_run(self, client):
        blif = make_blif(122, min_gates=25, max_gates=35)
        first = client.submit(blif, options=SLOW_OPTIONS)
        second = client.submit(blif, options=SLOW_OPTIONS)
        third = client.submit(blif, options=SLOW_OPTIONS)
        assert first["coalesced"] is False
        assert second["coalesced"] is True and third["coalesced"] is True
        ids = {first["job_id"], second["job_id"], third["job_id"]}
        assert len(ids) == 3  # every submission keeps its own job ID
        views = [client.wait(job_id, timeout=180) for job_id in ids]
        assert all(view["status"] == "done" for view in views)
        results = {client.result_bytes(job_id) for job_id in ids}
        assert len(results) == 1  # byte-identical across the batch

    def test_use_cache_false_bypasses_both_layers(self, client):
        blif = make_blif(123)
        first = client.submit(blif, options=FAST_OPTIONS)
        client.wait(first["job_id"])
        private = client.submit(blif, options=FAST_OPTIONS,
                                use_cache=False)
        assert private["cached"] is False
        assert private["coalesced"] is False
        view = client.wait(private["job_id"])
        assert view["status"] == "done"


class TestCancellation:
    def test_cancel_running_job(self, client):
        accepted = client.submit(
            make_blif(130, min_gates=25, max_gates=35),
            options=SLOW_OPTIONS, use_cache=False,
        )
        out = client.cancel(accepted["job_id"])
        assert out["status"] == "cancelled"
        assert out["error"]["code"] == "cancelled"
        # idempotent: cancelling a terminal job changes nothing
        again = client.cancel(accepted["job_id"])
        assert again["status"] == "cancelled"

    def test_cancelling_one_coalesced_job_spares_the_other(self, client):
        blif = make_blif(131, min_gates=25, max_gates=35)
        keeper = client.submit(blif, options=SLOW_OPTIONS)
        victim = client.submit(blif, options=SLOW_OPTIONS)
        assert victim["coalesced"] is True
        assert client.cancel(victim["job_id"])["status"] == "cancelled"
        view = client.wait(keeper["job_id"], timeout=180)
        assert view["status"] == "done"

    def test_timeout_kills_the_run(self, client):
        # About 2.5 s of optimization (2 vCPU) against a 0.3 s budget, so
        # the run cannot finish before the deadline kills it.
        accepted = client.submit(
            make_blif(132, min_gates=80, max_gates=100),
            options={"num_patterns": 4096, "repeat": 8, "max_rounds": 20},
            timeout=0.3, use_cache=False,
        )
        view = client.wait(accepted["job_id"], timeout=60)
        assert view["status"] == "timeout"
        assert view["error"]["code"] == "timeout"


class TestMalformedInputs:
    """Every rejection is a structured 4xx and the server keeps serving."""

    @pytest.mark.parametrize("payload, status, code", [
        ({"blif": "not a blif"}, 400, "bad-blif"),
        ({"blif": ""}, 400, "bad-blif"),
        ({}, 400, "bad-blif"),
        ({"blif": "x", "options": {"bogus": 1}}, 400, "bad-options"),
        ({"blif": "x", "options": {"repeat": -1}}, 400,
         "bad-options"),
        ({"blif": "x", "spec": "no_such_pass()"}, 400, "bad-spec"),
        ({"blif": "x", "priority": "high"}, 400, "bad-request"),
        ({"blif": "x", "timeout": -1}, 400, "bad-request"),
        ({"blif": "x", "use_cache": "yes"}, 400, "bad-request"),
    ])
    def test_submit_rejections(self, client, payload, status, code):
        with pytest.raises(ServeClientError) as excinfo:
            client._json("POST", "/jobs", payload)
        assert excinfo.value.status == status
        assert excinfo.value.code == code
        assert client.health()["status"] == "ok"

    def test_non_json_body_is_400(self, server, client):
        import http.client

        connection = http.client.HTTPConnection(
            server.config.host, server.port, timeout=10
        )
        try:
            connection.request("POST", "/jobs", body=b"\x00garbage{{{")
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad-json"
        assert client.health()["status"] == "ok"

    def test_raw_garbage_connection_is_survived(self, server, client):
        import socket

        with socket.create_connection(
            (server.config.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"\r\n\x00\xff NONSENSE\r\n\r\n")
            sock.recv(4096)  # whatever the server answers, it answers
        assert client.health()["status"] == "ok"

    def test_oversized_request_is_413(self):
        with ServerThread(ServerConfig(
            workers=1, max_request_bytes=1024,
        )) as handle:
            client = handle.client()
            with pytest.raises(ServeClientError) as excinfo:
                client.submit("x" * 4096, options=FAST_OPTIONS)
            assert excinfo.value.status == 413
            assert client.health()["status"] == "ok"


class TestCrashRecovery:
    def test_worker_crash_is_retried_to_success(self, monkeypatch,
                                                tmp_path):
        import repro.serve.worker as worker_module

        flag = tmp_path / "crashed-once"
        original = worker_module._child_main

        def crash_once(conn, spec):
            if not flag.exists():
                flag.write_text("x")
                os._exit(17)  # simulate a segfault-style death
            original(conn, spec)

        monkeypatch.setattr(worker_module, "spawn_target", crash_once)
        with ServerThread(ServerConfig(workers=1, max_retries=1)) as handle:
            client = handle.client()
            view = client.run(make_blif(140), options=FAST_OPTIONS)
            assert view["status"] == "done"
            metrics = client.metrics()
            assert metrics["counters"]["worker_retries"] == 1

    def test_crash_budget_exhausted_fails_the_job(self, monkeypatch):
        import repro.serve.worker as worker_module

        def always_crash(conn, spec):
            os._exit(17)

        monkeypatch.setattr(worker_module, "spawn_target", always_crash)
        with ServerThread(ServerConfig(workers=1, max_retries=1)) as handle:
            client = handle.client()
            accepted = client.submit(make_blif(141), options=FAST_OPTIONS)
            view = client.wait(accepted["job_id"])
            assert view["status"] == "failed"
            assert view["error"]["code"] == "worker-crash"
            metrics = client.metrics()
            assert metrics["counters"]["worker_crashes"] == 1
            # the server itself survived the crashing workers
            assert client.health()["status"] == "ok"


class TestLintService:
    def test_lint_clean_netlist(self, client):
        report = client.lint(make_blif(150))
        assert report["counts"] == {}
        assert report["worst"] is None
        assert report["diagnostics"] == []

    def test_lint_flags_a_dangling_gate(self, client, lib):
        from repro.netlist.blif import write_blif
        from repro.netlist.build import NetlistBuilder

        build = NetlistBuilder(lib, "dangling")
        a, b = build.inputs("a", "b")
        kept = build.and_(a, b, name="kept")
        build.or_(a, b, name="unused")  # drives nothing, no output
        build.output("out", kept)
        report = client.lint(write_blif(build.netlist))
        assert report["counts"]
        assert any(
            "unused" in diagnostic["message"]
            for diagnostic in report["diagnostics"]
        )

    def test_lint_rejects_bad_rule_ids(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.lint(make_blif(150), select=["NOPE999"])
        assert excinfo.value.status == 400


class TestMetricsEndpoint:
    def test_counters_and_cache_stats_are_live(self, client):
        blif = make_blif(160)
        first = client.submit(blif, options=FAST_OPTIONS)
        client.wait(first["job_id"])
        client.submit(blif, options=FAST_OPTIONS)  # cache hit
        metrics = client.metrics()
        assert metrics["workers"] == 2
        assert metrics["queue_depth"] == 0
        assert metrics["cache"]["hits"] >= 1
        assert metrics["counters"]["jobs_submitted"] >= 2
        assert metrics["jobs"]["tracked"] >= 2
        assert "phase.run" in metrics["timers"]
        assert "phase.queue_wait" in metrics["timers"]
        assert metrics["latency"]["count"] >= 1


class TestShutdownEndpoint:
    def test_drain_refuses_new_work_but_finishes_accepted(self):
        with ServerThread(ServerConfig(workers=1)) as handle:
            client = handle.client()
            accepted = client.submit(
                make_blif(170, min_gates=20, max_gates=28),
                options={"num_patterns": 512, "repeat": 5,
                         "max_rounds": 3},
                use_cache=False,
            )
            assert client.shutdown(drain=True) == {"status": "draining"}
            with pytest.raises(ServeClientError) as excinfo:
                client.submit(make_blif(171), options=FAST_OPTIONS)
            assert excinfo.value.status == 503
            assert excinfo.value.code == "shutting-down"
            handle.stop()
            job = handle.server.jobs[accepted["job_id"]]
            assert job.state == "done"

    def test_remote_shutdown_can_be_disabled(self):
        with ServerThread(ServerConfig(
            workers=1, allow_remote_shutdown=False,
        )) as handle:
            client = handle.client()
            with pytest.raises(ServeClientError) as excinfo:
                client.shutdown()
            assert excinfo.value.status == 405
            assert client.health()["status"] == "ok"


class TestBackpressure:
    def test_full_queue_answers_429_and_counts_it(self):
        with ServerThread(ServerConfig(workers=1, max_queue=1)) as handle:
            client = handle.client()
            accepted, refused = [], []
            # one running and one queued fill the server; a third is too many
            for seed in (190, 191, 192):
                try:
                    accepted.append(client.submit(
                        make_blif(seed, min_gates=25, max_gates=35),
                        options=SLOW_OPTIONS, use_cache=False,
                    ))
                except ServeClientError as error:
                    assert (error.status, error.code) == (429, "queue-full")
                    refused.append(error)
            assert refused
            counters = client.metrics()["counters"]
            assert counters["rejected_backpressure"] == len(refused)
            for view in accepted:
                client.cancel(view["job_id"])


class TestPriority:
    def test_higher_priority_overtakes_queued_work(self):
        with ServerThread(ServerConfig(workers=1)) as handle:
            client = handle.client()
            # occupy the single worker, then queue two jobs
            blocker = client.submit(
                make_blif(180, min_gates=25, max_gates=35),
                options=SLOW_OPTIONS, use_cache=False,
            )
            low = client.submit(make_blif(181), options=FAST_OPTIONS,
                                priority=0, use_cache=False)
            high = client.submit(make_blif(182), options=FAST_OPTIONS,
                                 priority=10, use_cache=False)
            client.cancel(blocker["job_id"])
            high_view = client.wait(high["job_id"])
            low_view = client.wait(low["job_id"])
            assert high_view["status"] == low_view["status"] == "done"
            high_job = handle.server.jobs[high["job_id"]]
            low_job = handle.server.jobs[low["job_id"]]
            assert high_job.started_at < low_job.started_at
