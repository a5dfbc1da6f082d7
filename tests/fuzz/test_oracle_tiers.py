"""The differential oracle solves each pair's CNF miter at most once."""

from __future__ import annotations

import pytest

import repro.equiv.checker as checker
from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.fuzz.oracle import check_equivalence_tiers
from repro.sat.incremental import IncrementalSolver


@pytest.mark.parametrize("bdds_give_up", [True, False])
def test_one_miter_solve_per_pair(lib, monkeypatch, bdds_give_up):
    # When BDDs give up, the production tier decides at its SAT stage, on
    # the miter the SAT tier builds, and the SAT tier takes that verdict.
    # When BDDs decide, the SAT tier still solves the miter itself.
    if bdds_give_up:
        monkeypatch.setattr(checker, "_bdd_verdict", lambda *args: None)
    solves = []
    solve = IncrementalSolver.solve

    def counted(self, *args, **kwargs):
        solves.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(IncrementalSolver, "solve", counted)
    netlist = random_mapped_netlist(GeneratorConfig(seed=5), lib)
    report = check_equivalence_tiers(
        netlist, netlist.copy("twin"), num_patterns=256
    )
    assert len(solves) == 1
    assert report.verdicts["sat"] == report.verdicts["production"] == "equal"
    assert report.equal and report.consistent
