"""The ``large`` generator shape: scale-accurate, lint-clean netlists
for exercising the windowed optimizer, plus the 50k-gate windowed smoke
(marked slow; set ``POWDER_RUN_SLOW=1`` to run it).
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ReproError
from repro.fuzz.generator import (
    ALL_SHAPES,
    SHAPES,
    GeneratorConfig,
    large_config,
    random_mapped_netlist,
)
from repro.lint import lint_netlist
from repro.netlist.blif import parse_blif, write_blif


class TestLargeShape:
    @pytest.mark.parametrize("num_gates", [500, 5_000])
    def test_exact_gate_count(self, lib, num_gates):
        netlist = random_mapped_netlist(large_config(3, num_gates), lib)
        assert netlist.num_gates() == num_gates
        assert len(netlist.input_names) == 64

    def test_lint_clean_at_error_severity(self, lib):
        netlist = random_mapped_netlist(large_config(4, 20_000), lib)
        assert lint_netlist(netlist).errors == []

    def test_deterministic_and_blif_round_trips(self, lib):
        first = write_blif(random_mapped_netlist(large_config(5, 2_000), lib))
        again = write_blif(random_mapped_netlist(large_config(5, 2_000), lib))
        assert first == again
        assert write_blif(parse_blif(first, lib)) == first

    def test_not_in_ci_rotation_but_selectable(self):
        # Adding "large" to the rotation tuple would reshuffle every
        # fixed-seed CI fuzz batch; it must stay opt-in.
        assert "large" not in SHAPES
        assert "large" in ALL_SHAPES
        assert GeneratorConfig(shape="large").shape == "large"
        with pytest.raises(ReproError, match="unknown generator shape"):
            GeneratorConfig(shape="huge")


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("POWDER_RUN_SLOW"),
    reason="50k-gate windowed smoke: set POWDER_RUN_SLOW=1 (~40 min on 1 cpu)",
)
def test_windowed_50k_smoke_under_oracle(lib):
    from repro.fuzz.oracle import check_equivalence_tiers
    from repro.transform.optimizer import OptimizeOptions
    from repro.transform.windowed import windowed_optimize

    netlist = random_mapped_netlist(large_config(7, 50_000), lib)
    reference = netlist.copy("ref")
    options = OptimizeOptions(
        windowed=True,
        num_patterns=64,
        window_size=40,
        max_rounds=1,
        jobs=1,
    )
    result = windowed_optimize(netlist, options)
    assert result.rounds > 100, "50k gates must partition into many windows"
    # At 64 inputs no tier can certify equality (exhaustive is skipped,
    # the BDDs blow up and SAT hits its budget on a 100k-gate miter), so
    # the smoke's contract is: no oracle tier finds an inequality witness.
    report = check_equivalence_tiers(
        reference,
        netlist,
        num_patterns=2048,
        sat_conflict_limit=20_000,
    )
    assert "not-equal" not in report.verdicts.values(), report.disagreements
    assert report.counterexample is None
