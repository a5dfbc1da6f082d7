"""The paper's value-added claim (§5).

"Power consumption can be significantly reduced in this logic synthesis
phase even after previous power-oriented logic optimization and mapping.
Thus, the new approach is value-added to existing low-power techniques."

This bench measures the four corners for a set of circuits:

    area-mapped             power-mapped
    area-mapped + POWDER    power-mapped + POWDER

and asserts the claim's shape: POWDER reduces power on *both* starting
points, and the combination (power-aware mapping, then POWDER) is the best
overall — structural rewiring finds savings mapping cannot.
"""

import pytest

from benchmarks.conftest import BENCH_CONFIG, once
from repro.bench.suite import build_benchmark
from repro.experiments.common import initial_metrics
from repro.library.standard import standard_library
from repro.transform.optimizer import power_optimize

CIRCUITS = ("rd53", "misex1", "Z5xp1", "alu2")


def run_corner(name, map_mode, optimize):
    library = standard_library()
    netlist = build_benchmark(name, library, map_mode=map_mode)
    power, _area, _delay = initial_metrics(netlist, BENCH_CONFIG)
    if not optimize:
        return power
    result = power_optimize(netlist, BENCH_CONFIG.optimize)
    return result.final_power


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_value_added(benchmark, circuit):
    def run():
        return {
            ("area", False): run_corner(circuit, "area", False),
            ("power", False): run_corner(circuit, "power", False),
            ("area", True): run_corner(circuit, "area", True),
            ("power", True): run_corner(circuit, "power", True),
        }

    corners = once(benchmark, run)
    print(
        f"\n  {circuit}: area-map {corners[('area', False)]:.2f} "
        f"(+POWDER {corners[('area', True)]:.2f}), "
        f"power-map {corners[('power', False)]:.2f} "
        f"(+POWDER {corners[('power', True)]:.2f})"
    )
    # POWDER reduces power from either starting point...
    assert corners[("area", True)] <= corners[("area", False)] + 1e-9
    assert corners[("power", True)] <= corners[("power", False)] + 1e-9
    # ...and the paper's claim: it adds savings on top of power-aware
    # mapping (strict improvement somewhere in the suite; per-circuit we
    # only require non-degradation, asserted above).


def test_value_added_aggregate(benchmark):
    def run():
        totals = {"pm": 0.0, "pm_powder": 0.0}
        for circuit in CIRCUITS:
            totals["pm"] += run_corner(circuit, "power", False)
            totals["pm_powder"] += run_corner(circuit, "power", True)
        return totals

    totals = once(benchmark, run)
    reduction = 100 * (1 - totals["pm_powder"] / totals["pm"])
    print(
        f"\n  aggregate: POWDER on top of power-aware mapping saves "
        f"{reduction:.1f}% (paper: 26.1% over its POSE baselines)"
    )
    assert reduction > 5.0
