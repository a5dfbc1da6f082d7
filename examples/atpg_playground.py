#!/usr/bin/env python
"""The ATPG substrate on its own: faults, tests, redundancy, don't-cares.

POWDER's enabling technology is test generation.  This example shows the
machinery directly on a circuit with a deliberately redundant gate:

- fault simulation measures coverage of random patterns,
- the SAT stage that proves the optimizer's moves generates a test (or
  proves untestability) per fault, each fault posed as a constant move,
- untestable faults expose the don't-cares structural rewiring exploits.

Run:  python examples/atpg_playground.py
"""

from repro import NetlistBuilder, standard_library
from repro.atpg import (
    StuckAtFault,
    all_faults,
    fault_coverage,
    fault_simulate,
    generate_test,
    is_redundant,
)
from repro.atpg.faultsim import undetected_faults
from repro.netlist import SimState, random_patterns


def build():
    """c17-style circuit plus a redundant OR term: y = ab + ab·c."""
    lib = standard_library()
    b = NetlistBuilder(lib, "playground")
    a, bb, c = b.inputs("a", "b", "c")
    ab = b.and_(a, bb, name="ab")
    abc = b.and_(ab, c, name="abc")  # absorbed by ab: redundant
    y = b.or_(ab, abc, name="y")
    b.output("y", y)
    return b.build()


def main():
    netlist = build()
    print(netlist)

    faults = all_faults(netlist)
    sim = SimState(netlist, random_patterns(netlist.input_names, 256, seed=3))
    coverage = fault_coverage(sim, faults)
    print(f"\n{len(faults)} stuck-at faults, "
          f"random-pattern coverage (256 patterns): {coverage:.0%}")

    print("\nper-fault detection counts (parallel-pattern fault simulation):")
    for fault, count in sorted(
        fault_simulate(sim, faults).items(), key=lambda kv: str(kv[0])
    ):
        print(f"  {str(fault):16s} detected by {count:3d}/256 patterns")

    undetected = undetected_faults(sim, faults)
    print("\nSAT test generation on the undetected faults and on ab/sa0:")
    for fault in undetected + [StuckAtFault("ab", 0)]:
        result = generate_test(netlist, fault)
        verdict = (
            f"test {result.assignment}" if result.testable else "REDUNDANT"
        )
        print(f"  {str(fault):16s} -> {verdict}")

    # The redundancy is exactly the absorption y = ab + ab·c = ab.
    assert is_redundant(netlist, StuckAtFault("abc", 0))
    print("\nabc/sa0 is redundant: the OR's second term is absorbed — this "
          "is the kind\nof don't-care POWDER's substitutions exploit.")


if __name__ == "__main__":
    main()
