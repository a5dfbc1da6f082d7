"""The paper's §4.2 convergence observation.

"During the experiments we observed that most of the power reduction is
achieved by the first couple of substitutions.  Much of the CPU time is
spent at the end to achieve negligible power reductions."

This bench reproduces both halves of that sentence on our substrate: the
cumulative-gain curve is strongly front-loaded, and the suggested
threshold termination (§4.2 / ``gain_threshold_fraction``) recovers most
of the result at a fraction of the moves.
"""

import pytest

from benchmarks.conftest import BENCH_CONFIG, once
from repro.bench.suite import build_benchmark
from repro.library.standard import standard_library
from repro.transform.optimizer import OptimizeOptions, power_optimize

CIRCUIT = "ttt2"


def run_full():
    library = standard_library()
    netlist = build_benchmark(CIRCUIT, library, map_mode="power")
    options = OptimizeOptions(
        num_patterns=BENCH_CONFIG.num_patterns,
        repeat=BENCH_CONFIG.repeat,
        max_rounds=BENCH_CONFIG.max_rounds,
    )
    return power_optimize(netlist, options)


def test_gain_is_front_loaded(benchmark):
    result = once(benchmark, run_full)
    gains = [m.measured_power_gain for m in result.moves]
    assert len(gains) >= 6, "need a real move sequence to measure shape"
    total = sum(gains)
    half = sum(gains[: max(1, len(gains) // 2)])
    print(
        f"\n  {CIRCUIT}: {len(gains)} moves, first half of the moves give "
        f"{100 * half / total:.0f}% of the reduction"
    )
    # Front-loaded: the first half of the moves delivers the majority.
    assert half / total > 0.5
    # And the single best early move dwarfs the median late move.
    assert max(gains[:3]) > 4 * max(gains[-1], 1e-12)


def test_threshold_termination_tradeoff(benchmark):
    def run():
        library = standard_library()
        base = build_benchmark(CIRCUIT, library, map_mode="power")
        full = power_optimize(
            base.copy("full"),
            OptimizeOptions(
                num_patterns=BENCH_CONFIG.num_patterns,
                repeat=BENCH_CONFIG.repeat,
                max_rounds=BENCH_CONFIG.max_rounds,
            ),
        )
        thresholded = power_optimize(
            base.copy("thr"),
            OptimizeOptions(
                num_patterns=BENCH_CONFIG.num_patterns,
                repeat=BENCH_CONFIG.repeat,
                max_rounds=BENCH_CONFIG.max_rounds,
                gain_threshold_fraction=0.002,
            ),
        )
        return full, thresholded

    full, thresholded = once(benchmark, run)
    print(
        f"\n  full: {full.power_reduction_percent:.1f}% in "
        f"{len(full.moves)} moves / {full.runtime_seconds:.1f}s; "
        f"0.2% threshold: {thresholded.power_reduction_percent:.1f}% in "
        f"{len(thresholded.moves)} moves / {thresholded.runtime_seconds:.1f}s"
    )
    # The paper's prediction: "substantially reduce the CPU times but only
    # slightly degrade the results."
    assert len(thresholded.moves) <= len(full.moves)
    assert (
        thresholded.power_reduction_percent
        >= 0.7 * full.power_reduction_percent
    )
