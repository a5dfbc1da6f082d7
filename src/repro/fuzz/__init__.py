"""Differential fuzzing & equivalence verification for the optimizer.

POWDER's correctness story rests on every permissible substitution
preserving circuit function; the four bundled benchmarks exercise only a
sliver of the input space.  This package attacks the transforms themselves
across randomized circuits:

- :mod:`~repro.fuzz.generator` — a seeded random mapped-netlist generator
  with controllable size/depth/fanout distributions and targeted shapes
  (reconvergent fanout, high-fanout stems, inverter chains) that stress
  each substitution class,
- :mod:`~repro.fuzz.oracle` — a differential oracle proving
  optimizer-output equivalence three independent ways (exhaustive
  simulation, SAT miter, random-vector prefilter) and cross-checking the
  reported power/area/delay against from-scratch re-estimation,
- :mod:`~repro.fuzz.properties` — metamorphic properties of the optimizer
  (power never increases, the delay constraint holds, no dead logic is
  left behind, re-running is safe, ``power_optimize`` and the ``powder``
  pipeline agree move for move),
- :mod:`~repro.fuzz.shrink` — delta-debugging reduction of a failing
  netlist to a small reproducer,
- :mod:`~repro.fuzz.harness` — the ``powder fuzz`` campaign driver and the
  regression-corpus replay used by CI.
"""

from repro.fuzz.generator import (
    ALL_SHAPES,
    SHAPES,
    GeneratorConfig,
    batch_configs,
    large_config,
    random_mapped_netlist,
)
from repro.fuzz.oracle import (
    OracleReport,
    check_equivalence_tiers,
    cross_check_metrics,
)
from repro.fuzz.properties import run_properties
from repro.fuzz.shrink import shrink_netlist
from repro.fuzz.harness import (
    CaseResult,
    FuzzOptions,
    FuzzReport,
    cell_swap_mutator,
    replay_corpus,
    run_bench_cases,
    run_case,
    run_fuzz,
)

__all__ = [
    "ALL_SHAPES",
    "SHAPES",
    "GeneratorConfig",
    "batch_configs",
    "large_config",
    "random_mapped_netlist",
    "OracleReport",
    "check_equivalence_tiers",
    "cross_check_metrics",
    "run_properties",
    "shrink_netlist",
    "CaseResult",
    "FuzzOptions",
    "FuzzReport",
    "cell_swap_mutator",
    "replay_corpus",
    "run_bench_cases",
    "run_case",
    "run_fuzz",
]
