#!/usr/bin/env python
"""The paper's Figure-2 worked example, reproduced end to end.

Circuit A:   e = a·b (shared elsewhere),  d = a ⊕ c,  f = d·b
Circuit B:   rewire the XOR's `a` branch to `e`:  g = (a·b) ⊕ c,  f = g·b

The move is an input substitution IS2(ã, e).  It is permissible although
e ≠ a as a function: the patterns on which they differ (a=1, b=0) lie in
the observability don't-care set of that branch (with b=0 the AND output f
is 0 regardless).  The rewiring lowers Σ C·E for two reasons the paper
names: the branch load moves to a lower-activity signal (E(e) < E(a)), and
the XOR's new global function has no higher activity.

Run:  python examples/paper_figure2.py
"""

from repro import NetlistBuilder, standard_library
from repro.equiv import check_equivalent
from repro.power import PowerEstimator, SimulationProbability
from repro.transform import (
    IS2,
    Substitution,
    check_candidate,
    full_gain,
    power_optimize,
)


def build_circuit_a():
    lib = standard_library()
    b = NetlistBuilder(lib, "figure2")
    a, bb, c = b.inputs("a", "b", "c")
    b.and_(a, bb, name="e")
    d = b.xor_(a, c, name="d")
    f = b.and_(d, bb, name="f")
    b.output("f_out", f)
    b.output("e_out", b.netlist.gate("e"))
    return b.build()


def main():
    netlist = build_circuit_a()
    estimator = PowerEstimator(
        netlist, SimulationProbability(netlist, exhaustive=True)
    )
    print(f"circuit A: sum C*E = {estimator.total():.3f}")

    # The paper's move, written out explicitly.
    d = netlist.gate("d")
    pin = next(i for i, g in enumerate(d.fanins) if g.name == "a")
    move = Substitution(IS2, "a", "e", branch=("d", pin))
    print(f"candidate move: {move}")

    # Gain analysis (eqs. 3-5).
    gain = full_gain(estimator, move)
    print(
        f"  PG_A = {gain.pg_a:+.3f}  (branch load x E(a))\n"
        f"  PG_B = {gain.pg_b:+.3f}  (branch load x E(e))\n"
        f"  PG_C = {gain.pg_c:+.3f}  (TFO activity change)\n"
        f"  total predicted gain = {gain.total:+.3f}"
    )

    # Permissibility, the ATPG way: the substitution is allowed iff no
    # input vector drives the miter of (original, modified) to 1.
    verdict = check_candidate(netlist, move)
    print(f"ATPG permissibility check: {verdict.status} "
          f"(decided by {verdict.stage})")

    # Let the full optimizer find and apply it by itself.
    result = power_optimize(netlist, num_patterns=1024)
    print(f"\ncircuit B: sum C*E = {result.final_power:.3f} "
          f"({result.power_reduction_percent:.1f}% lower)")
    for m in result.moves:
        print(f"  optimizer applied: {m.substitution}")

    # Show the don't-care reasoning concretely: e and a differ exactly on
    # (a=1, b=0), yet no vector tells the circuits apart.  The SAT stage
    # alone (no simulation, no BDDs) searches the CNF miter for one.
    before = build_circuit_a()
    after = build_circuit_a()
    from repro.transform.substitution import apply_substitution

    apply_substitution(after, move)
    search = check_equivalent(before, after, num_patterns=0, bdd_node_limit=0)
    outcome = {"equal": "UNSAT", "not-equal": "SAT"}.get(search.status, "UNKNOWN")
    print(
        "\ndistinguishing-vector search on the miter: "
        f"{outcome} after {search.conflicts} conflicts "
        "(UNSAT = circuits identical = move permissible)"
    )


if __name__ == "__main__":
    main()
