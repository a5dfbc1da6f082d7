"""Shared fixtures for the benchmark harness.

Every ``bench_table*.py`` / ``bench_figure*.py`` file regenerates one table
or figure of the paper: running it prints the reproduced rows (use ``-s`` to
see them) and records the runtime through pytest-benchmark.  Experiment
effort is reduced relative to the paper's (see DESIGN.md §6) but the
protocol is identical.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentConfig
from repro.library.standard import standard_library
from repro.transform.optimizer import OptimizeOptions

#: Benchmark-harness experiment configuration: one notch below the CLI
#: defaults so the full suite completes in minutes, same protocol.
BENCH_CONFIG = ExperimentConfig(
    optimize=OptimizeOptions(
        num_patterns=1024, repeat=15, max_rounds=6, max_moves=40
    )
)

#: Circuits used by the table benches (a representative slice of the suite).
BENCH_CIRCUITS = ("rd53", "sqrt8", "misex1", "alu2", "rd84", "Z5xp1", "bw")


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker-pool size for the windowed benches (bench_scale); "
            "pool spawn time is measured separately and never billed as "
            "optimizer time"
        ),
    )


@pytest.fixture(scope="session")
def jobs(request):
    return request.config.getoption("--jobs")


@pytest.fixture(scope="session")
def lib():
    return standard_library()


def once(benchmark, func, *args, **kwargs):
    """Run a long experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
