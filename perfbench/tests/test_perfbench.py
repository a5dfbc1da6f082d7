"""Tests of the benchmark itself (not of the program).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gate, run, serve_load, tracing, workloads  # noqa: E402


def _library():
    from repro.library.standard import standard_library

    return standard_library()


def _parse(name: str):
    from repro.netlist.blif import parse_blif_file

    return parse_blif_file(ROOT / "benchmarks" / "blif" / f"{name}.blif",
                           _library())


def _moves(result) -> list[str]:
    return [str(move.substitution) for move in result.moves]


class _Sqrt8(workloads.Goldens):
    """The goldens workload cut to its smallest circuit (fast)."""

    circuits = ("sqrt8",)


def _declared(section: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for metric in spec[section]}


# ----------------------------------------------------------------------
def test_traced_run_applies_the_same_moves():
    from repro.transform.optimizer import OptimizeOptions, power_optimize

    options = OptimizeOptions(num_patterns=512)
    plain = power_optimize(_parse("rd53"), options)
    recorder = tracing.Recorder()
    with tracing.install(recorder):
        with recorder.root("unit"):
            traced = power_optimize(_parse("rd53"), options)
    assert _moves(traced) == _moves(plain)
    assert gate.summary(traced) == gate.summary(plain)
    names = {span.name for span in recorder.spans}
    assert {"candidates.generate", "select", "gain", "permissible",
            "apply"} <= names


def test_install_restores_every_original():
    import repro.transform.optimizer as optimizer

    before = optimizer.full_gain
    with tracing.install(tracing.Recorder()):
        assert optimizer.full_gain is not before
    assert optimizer.full_gain is before


def test_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    recorder = tracing.Recorder(clock=lambda: next(ticks))
    with recorder.root("unit"):
        child = recorder.open("gain")
        recorder.close(child)
    root = recorder.spans[-1]
    assert child.self_s == 2.0
    assert root.self_s == 8.0


def test_printed_metrics_match_benchmark_json():
    recorder = tracing.Recorder()
    with tracing.install(recorder):
        report = workloads.run_optimizer_workload(
            _Sqrt8(ROOT, jobs=1), seed=5, seconds=0, import_s=0.0,
            recorder=recorder,
        )
    assert not report.problems
    assert set(report.metrics) == _declared("end_to_end")
    assert set(run.collect_layers(report, recorder)) == _declared("per_layer")


def test_gate_rejects_a_corrupted_netlist():
    original = _parse("rd53")
    corrupted = original.copy()
    library = corrupted.library
    victim = next(g for g in corrupted.gates.values()
                  if not g.is_input and g.cell.name == "nand2")
    victim.cell = library["nor2"]
    assert gate.prove_equivalent("rd53", original, original.copy()) == []
    assert gate.prove_equivalent("rd53", original, corrupted)


def test_golden_summary_mismatch_is_reported():
    from repro.transform.optimizer import OptimizeOptions, power_optimize

    result = power_optimize(_parse("sqrt8"), OptimizeOptions(num_patterns=512))
    assert gate.match_golden(ROOT, "sqrt8", result) == []
    result.final_power += 1e-3
    assert gate.match_golden(ROOT, "sqrt8", result)


# ----------------------------------------------------------------------
def test_sequence_repeats_every_circuit_once_after_its_cold_job():
    sequence = serve_load.build_sequence(30, seed=11)
    assert sorted(c for c, repeat in sequence if not repeat) == list(range(30))
    assert sorted(c for c, repeat in sequence if repeat) == list(range(30))
    first = {}
    for position, (circuit, repeat) in enumerate(sequence):
        if repeat:
            assert circuit in first
        else:
            first[circuit] = position
    assert serve_load.build_sequence(30, seed=11) == sequence


def test_warm_up_circuits_avoid_the_pool():
    pool = serve_load.circuit_pool(4)
    # seed + 1 == POOL_SEED generates the pool's own circuits first.
    warm = serve_load.circuit_pool(2, seed=serve_load.POOL_SEED, exclude=pool)
    assert len(warm) == 2 and not set(warm) & set(pool)


class _RefusingClient:
    def submit(self, *args, **kwargs):
        from repro.serve.client import ServeClientError

        raise ServeClientError(429, {"error": {"code": "queue-full",
                                               "message": "full"}})


def test_refused_submission_counts_as_failed():
    record = serve_load.submit_one(_RefusingClient(), "", 0, False)
    assert record.status == "refused"
    assert not record.ok


def test_timed_out_job_counts_as_failed(monkeypatch):
    from repro.serve.runner import ServerThread
    from repro.serve.server import ServerConfig

    monkeypatch.setattr(serve_load, "JOB_TIMEOUT", 1e-3)
    blif = serve_load.circuit_pool(1)[0]
    with ServerThread(ServerConfig(workers=1)) as handle:
        record = serve_load.submit_one(handle.client(), blif, 0, False)
    assert record.status == "timeout"
    assert not record.ok


def test_run_refuses_a_tree_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "goldens", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
