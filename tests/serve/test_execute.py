"""In-process job execution: what a worker runs for one canonical job.

A job streams its rounds through a tracer, so a stage that cannot take
one (a windowed run) must run untraced, and the rounds of a multi-stage
job must say which powder run they belong to.
"""

from __future__ import annotations

from pathlib import Path

from repro.serve import canonicalize_job
from repro.serve.worker import execute_jobspec

RD53 = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "blif" / "rd53.blif"
).read_text()


def job(spec: str, options: dict):
    return canonicalize_job({"blif": RD53, "spec": spec, "options": options})


def test_window_stage_runs_untraced_under_a_streaming_job():
    window = job("window(window_size=20)", {"num_patterns": 256, "max_rounds": 2})
    events: list[dict] = []
    streamed = execute_jobspec(window, emit=events.append)
    assert streamed == execute_jobspec(window)
    assert streamed["summary"]["moves"] == 12
    assert events == []


def test_round_events_name_their_powder_run():
    events: list[dict] = []
    payload = execute_jobspec(
        job("powder(max_rounds=1); powder", {"num_patterns": 512}),
        emit=events.append,
    )
    assert [event["stage"] for event in events] == [1, 2, 2, 2, 2, 2]
    last = [event for event in events if event["stage"] == 2]
    assert [event["index"] for event in last] == [1, 2, 3, 4, 5]
    assert sum(event["moves_applied"] for event in last) == (
        payload["summary"]["moves"]
    )
