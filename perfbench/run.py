"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload goldens --seed 2024 --seconds 15 --trace 0

Workloads: ``goldens``, ``delay``, ``windowed`` and ``serve``.  The run
checks every output it produces.  It prints one JSON line with the host
and the configuration, then, as the last line, the result::

    {"correct": true, "attempted": 17, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured by wrapping the program's functions (see ``perfbench/tracing.py``),
and the spans are written to ``.perfbench/<workload>-seed<seed>.spans.json.gz``.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the import time above is part of set-up
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("goldens", "delay", "windowed", "serve")
#: Worker processes and client threads, at most the host's processors.
MAX_JOBS = 2

#: Program modules each workload imports (their import time is set-up).
IMPORTS = {
    "goldens": ("repro.transform.optimizer", "repro.netlist.blif"),
    "delay": ("repro.transform.optimizer", "repro.bench.suite"),
    "windowed": ("repro.transform.windowed", "repro.bench.suite"),
    "serve": ("repro.serve.runner", "repro.serve.client",
              "repro.fuzz.generator"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> list[dict]:
    """The metric list ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def host_info(jobs: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run(args: argparse.Namespace):
    """Run the workload; ``(report, metrics)`` with every metric computed."""
    from perfbench import serve_load, tracing, workloads

    for module in IMPORTS[args.workload] + ("repro.equiv.checker",):
        importlib.import_module(module)
    import_s = time.perf_counter() - _START

    jobs = min(MAX_JOBS, os.cpu_count() or 1)
    recorder = tracing.Recorder() if args.trace else None
    with tracing.install(recorder) if recorder else contextlib.nullcontext():
        if args.workload == "serve":
            report = serve_load.run_serve_workload(
                args.seed, args.seconds, import_s, jobs, recorder
            )
        else:
            workload = workloads.OPTIMIZER_WORKLOADS[args.workload](ROOT, jobs)
            report = workloads.run_optimizer_workload(
                workload, args.seed, args.seconds, import_s, recorder
            )
    report.config["host"] = host_info(jobs)
    if recorder is None:
        return report, report.metrics
    recorder.write(str(
        ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.spans.json.gz"
    ))
    return report, collect_layers(report, recorder)


def collect_layers(report, recorder) -> dict:
    """Every per-layer metric: from the spans, then the workload's own."""
    from perfbench import serve_load, tracing

    metrics = dict.fromkeys(serve_load.SERVE_LAYERS, 0.0)
    metrics.update(tracing.layer_metrics(recorder, report.units))
    metrics.update(report.layers)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run this "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    report, metrics = run(args)
    print(json.dumps({"config": report.config}, sort_keys=True))
    for problem in report.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    declared = declared_metrics(bool(args.trace))
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    correct = not report.problems
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
