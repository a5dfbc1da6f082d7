"""The ``serve`` workload: a closed loop of clients against an in-process server.

The service runs in this process on a :class:`repro.serve.ServerThread`
with two worker slots; two client threads send a fixed sequence of
submissions, each client sending its next one only after the previous
one reached a terminal state.  Every circuit of the pool is submitted
once cold and once again later, so half the submissions are answered
from the result cache.  A repeat waits until the first submission of its
circuit has finished, so it is always a cache hit, never coalesced into
a running job.

The circuit pool is fixed (generated from :data:`POOL_SEED`), so the
served work and quality are identical in every run; the workload seed
orders the sequence and generates the two untimed warm-up circuits.

A cold job's latency runs from the submit call to the terminal state
event on the job's event stream, which the server pushes as soon as the
job finishes (no polling interval is added).  A hit's latency is the
submit call, which returns the cached result.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from perfbench import gate
from perfbench.workloads import SETUP_REPEATS, Report

#: Generator seed of the fixed circuit pool.
POOL_SEED = 2024
#: Cold submissions per requested second of run time (the pool size).
COLD_PER_SECOND = 10
MIN_COLD = 20
#: A repeat is placed at least this many submissions after its circuit's
#: first submission.
REPEAT_GAP = 4
#: Optimizer options of every job (small: this workload measures the
#: service, not the optimizer).
JOB_OPTIONS = {"num_patterns": 64, "repeat": 5, "max_rounds": 3}
#: Server-side budget of one job, seconds.
JOB_TIMEOUT = 60.0
TERMINAL = ("done", "failed", "cancelled", "timeout")
#: Per-layer metrics only this workload measures (0 on the others).
SERVE_LAYERS = (
    "serve.cache_hit_ratio", "serve.coalesced", "serve.queue_wait_s",
    "serve.retries", "serve.jobs_per_s", "serve.latency_p90_s",
    "serve.hit_latency_p50_s", "serve.cold_samples", "serve.hit_samples",
)


@dataclass
class Record:
    """One submission as the client saw it."""

    circuit: int
    repeat: bool
    status: str
    latency: float
    cached: bool = False
    coalesced: bool = False
    job_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "done"


def circuit_pool(count: int, seed: int = POOL_SEED,
                 exclude=()) -> list[str]:
    """``count`` distinct generated circuits of 8-16 gates, as BLIF text,
    none of them in ``exclude``."""
    from repro.fuzz.generator import SHAPES, GeneratorConfig, random_mapped_netlist
    from repro.netlist.blif import write_blif

    pool: list[str] = []
    seen = set(exclude)
    index = 0
    while len(pool) < count:
        text = write_blif(random_mapped_netlist(GeneratorConfig(
            seed=seed * 1009 + index,
            shape=SHAPES[index % len(SHAPES)],
            min_inputs=4, max_inputs=6, min_gates=8, max_gates=16,
        )))
        index += 1
        if text not in seen:
            seen.add(text)
            pool.append(text)
    return pool


def build_sequence(count: int, seed: int) -> list[tuple[int, bool]]:
    """Each circuit once cold and once repeated, in a seeded order.

    Returns ``(circuit, repeat)`` pairs; a repeat comes at least
    :data:`REPEAT_GAP` positions after its circuit's cold submission,
    except at the tail, where only recent circuits are left to repeat.
    """
    rng = random.Random(seed)
    cold = list(range(count))
    rng.shuffle(cold)
    sequence: list[tuple[int, bool]] = []
    placed: list[tuple[int, int]] = []  # (position, circuit) not yet repeated
    while cold or placed:
        position = len(sequence)
        eligible = [entry for entry in placed if position - entry[0] >= REPEAT_GAP]
        if cold and (not eligible or rng.random() < 0.5):
            sequence.append((cold.pop(), False))
            placed.append((position, sequence[-1][0]))
        elif eligible:
            entry = eligible[rng.randrange(len(eligible))]
            placed.remove(entry)
            sequence.append((entry[1], True))
        else:  # only recent circuits are left: repeat the oldest
            entry = placed.pop(0)
            sequence.append((entry[1], True))
    return sequence


def submit_one(client, blif: str, circuit: int, repeat: bool) -> Record:
    """Submit one job and follow it to a terminal state."""
    from repro.serve.client import ServeClientError

    start = time.perf_counter()
    try:
        view = client.submit(blif, options=JOB_OPTIONS, timeout=JOB_TIMEOUT)
        status = view["status"]
        if status not in TERMINAL:
            status = "lost"
            for event in client.events(view["job_id"]):
                if event.get("type") == "state" and event["status"] in TERMINAL:
                    status = event["status"]
                    break
    except ServeClientError as error:
        refused = error.status in (429, 503)
        return Record(circuit, repeat, "refused" if refused else "http-error",
                      time.perf_counter() - start)
    except OSError:
        return Record(circuit, repeat, "client-error",
                      time.perf_counter() - start)
    return Record(
        circuit, repeat, status, time.perf_counter() - start,
        cached=bool(view.get("cached")), coalesced=bool(view.get("coalesced")),
        job_id=view["job_id"],
    )


def drive(make_client: Callable, pool: list[str],
          sequence: list[tuple[int, bool]], clients: int) -> tuple[list, float]:
    """Run the sequence through ``clients`` closed-loop client threads.

    Returns the records in sequence order and the makespan in seconds.
    """
    records: list = [None] * len(sequence)
    finished = {circuit: threading.Event() for circuit, _ in sequence}
    lock = threading.Lock()
    cursor = iter(range(len(sequence)))
    errors: list = []

    def client_loop() -> None:
        client = make_client()
        try:
            while True:
                with lock:
                    position = next(cursor, None)
                if position is None:
                    return
                circuit, repeat = sequence[position]
                if repeat:
                    finished[circuit].wait(JOB_TIMEOUT)
                records[position] = submit_one(
                    client, pool[circuit], circuit, repeat
                )
                if not repeat:
                    finished[circuit].set()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
            for event in finished.values():
                event.set()

    threads = [threading.Thread(target=client_loop, name=f"perfbench-client{i}")
               for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    makespan = time.perf_counter() - start
    if errors:
        raise errors[0]
    return records, makespan


def _percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, round(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _start_server(workers: int):
    from repro.serve.runner import ServerThread
    from repro.serve.server import ServerConfig

    handle = ServerThread(ServerConfig(workers=workers)).start()
    handle.client().health()
    return handle


def _parse(text: str):
    from repro.library.standard import standard_library
    from repro.netlist.blif import parse_blif

    return parse_blif(text, standard_library())


def check_served(client, pool: list[str], records: list) -> tuple[list, list]:
    """Prove each served result right and compare it with an in-process run.

    Returns the problems found and the served summaries of the circuits.
    """
    from repro.netlist.blif import write_blif
    from repro.transform.optimizer import OptimizeOptions, power_optimize

    problems: list[str] = []
    summaries: list[dict] = []
    cold = {r.circuit: r for r in records if r.ok and not r.repeat}
    cold_bytes = {}
    for circuit, record in sorted(cold.items()):
        label = f"circuit {circuit}"
        if record.cached or record.coalesced:
            problems.append(f"{label}: first submission was not a cold job")
        cold_bytes[circuit] = client.result_bytes(record.job_id)
        payload = client.job(record.job_id)["result"]
        summaries.append(payload["summary"])
        # The service optimizes the canonical (parsed and re-written) text.
        canonical = write_blif(_parse(pool[circuit]))
        problems += gate.prove_equivalent(
            label, _parse(canonical), _parse(payload["blif"])
        )
        reference = power_optimize(
            _parse(canonical), OptimizeOptions(**JOB_OPTIONS)
        )
        expected = gate.summary(reference)
        if write_blif(reference.netlist) != payload["blif"] or expected != {
            key: payload["summary"][key] for key in expected
        }:
            problems.append(
                f"{label}: served result differs from an in-process "
                "power_optimize"
            )
    for record in records:
        if not (record.ok and record.repeat):
            continue
        if not record.cached:
            problems.append(f"circuit {record.circuit}: repeat missed the cache")
        elif (record.circuit in cold_bytes and client.result_bytes(
                record.job_id) != cold_bytes[record.circuit]):
            problems.append(
                f"circuit {record.circuit}: cached result differs from the "
                "cold result"
            )
    return problems, summaries


def _server_layers(metrics: dict, cold_jobs: int) -> dict:
    """Per-layer values the server reports on ``/metrics``."""
    cache = metrics["cache"]
    counters, timers = metrics["counters"], metrics["timers"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.coalesced": counters.get("jobs_coalesced", 0),
        "serve.queue_wait_s": (
            timers.get("phase.queue_wait", 0.0) / cold_jobs if cold_jobs else 0.0
        ),
        "serve.retries": counters.get("worker_retries", 0),
    }


def _serve_pass(report: Report, pool, sequence, seed: int, jobs: int,
                recorder=None):
    """Warm up a fresh server, drive the sequence, check every result."""
    handle = _start_server(jobs)
    try:
        client = handle.client(timeout=JOB_TIMEOUT)
        # Warm-up circuits never repeat a pool circuit, whose first
        # submission must be a cold job.
        warm = circuit_pool(2, seed=seed + 1, exclude=pool)
        for index, text in enumerate(warm):
            record = submit_one(client, text, index, False)
            report.attempted += 1
            if not record.ok:
                report.failed += 1
                report.problems.append(f"warm-up job {index}: {record.status}")
                continue
            report.problems += gate.prove_equivalent(
                f"warm-up circuit {index}", _parse(text),
                _parse(client.job(record.job_id)["result"]["blif"]),
            )

        def make_client():
            return handle.client(timeout=JOB_TIMEOUT)

        if recorder is not None:
            with recorder.root("unit"):
                records, makespan = drive(make_client, pool, sequence, jobs)
        else:
            records, makespan = drive(make_client, pool, sequence, jobs)
        server_metrics = client.metrics()
        report.attempted += len(records)
        report.failed += sum(not record.ok for record in records)
        problems, summaries = check_served(client, pool, records)
        report.problems += problems
        return records, makespan, server_metrics, summaries
    finally:
        handle.stop()


def _latencies(records: list) -> tuple[list, list]:
    cold = [r.latency for r in records if r.ok and not r.repeat]
    hits = [r.latency for r in records if r.ok and r.repeat]
    return cold, hits


def run_serve_workload(seed: int, seconds: float, import_s: float, jobs: int,
                       recorder=None) -> Report:
    """Set up, warm up, drive, and check the serve workload."""
    report = Report()
    count = max(MIN_COLD, round(COLD_PER_SECOND * seconds))
    pool = circuit_pool(count)
    sequence = build_sequence(count, seed)

    samples = []
    for _ in range(SETUP_REPEATS):
        tick = time.perf_counter()
        handle = _start_server(jobs)
        samples.append(time.perf_counter() - tick)
        handle.stop()

    records, makespan, _metrics, summaries = _serve_pass(
        report, pool, sequence, seed, jobs
    )
    cold, hits = _latencies(records)
    setup_s = import_s + statistics.median(samples)
    optimize_s = statistics.median(cold) if cold else 0.0
    report.metrics = {
        "setup_s": setup_s,
        "optimize_s": optimize_s,
        **gate.quality(summaries),
        "peak_rss_mb": gate.peak_rss_mb(),
    }
    if recorder is not None:
        traced, _makespan, server_metrics, _summaries = _serve_pass(
            report, pool, sequence, seed, jobs, recorder
        )
        traced_cold, _hits = _latencies(traced)
        report.units = 1
        report.layers = {
            "trace.overhead_s": (
                statistics.median(traced_cold) - optimize_s
                if traced_cold and cold else 0.0
            ),
            "serve.jobs_per_s": sum(r.ok for r in records) / makespan,
            "serve.latency_p90_s": _percentile(cold, 0.9),
            "serve.hit_latency_p50_s": statistics.median(hits) if hits else 0.0,
            "serve.cold_samples": len(cold),
            "serve.hit_samples": len(hits),
            **_server_layers(server_metrics, len(traced_cold)),
        }
    report.config = {
        "workload": "serve",
        "seed": seed,
        "pool_seed": POOL_SEED,
        "circuits": count,
        "submissions": len(sequence),
        "clients": jobs,
        "server_workers": jobs,
        "loop": "closed",
        "job_options": JOB_OPTIONS,
        "setup_repeats": SETUP_REPEATS,
    }
    return report
