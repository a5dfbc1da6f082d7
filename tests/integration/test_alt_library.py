"""The whole flow on the bundled NAND/NOR-only genlib.

The nandnor library has no AND/OR/XOR cells, no buffer, and alien
(``g_``-prefixed) gate names — any code path that quietly assumes a
built-in cell name, a positive-phase primitive, or the standard library's
area scale fails loudly here.  Parametrizing the core optimize → lint →
equivalence flow over both libraries is the regression net for the
library-capability refactor.
"""

import pytest

from repro.bench.suite import build_benchmark
from repro.equiv.checker import check_equivalent
from repro.fuzz.harness import FuzzOptions, run_fuzz
from repro.library.genlib import parse_genlib_file
from repro.library.standard import standard_library
from repro.lint.rules import lint_netlist
from repro.pipeline import run_pipeline
from repro.transform.optimizer import OptimizeOptions, power_optimize

NANDNOR = "benchmarks/genlib/nandnor.genlib"


def _libraries():
    return {
        "standard": standard_library(),
        "nandnor": parse_genlib_file(NANDNOR),
    }


@pytest.fixture(scope="module", params=["standard", "nandnor"])
def lib(request):
    return _libraries()[request.param]


class TestNandnorLibrary:
    def test_validates_and_has_no_positive_primitives(self):
        lib = parse_genlib_file(NANDNOR)
        lib.validate()
        for name in lib.cells:
            assert name.startswith("g_")
        inverter = lib.inverter()
        assert inverter.name == "g_inv"
        # The capability query still finds 2-input insertion cells.
        assert lib.insertion_cells()

    def test_collides_with_nothing_builtin(self):
        builtin = set(standard_library().cells)
        assert not builtin & set(parse_genlib_file(NANDNOR).cells)


@pytest.mark.parametrize("name", ["rd53", "sqrt8"])
class TestOptimizeLintVerify:
    def test_flow_stays_clean(self, lib, name):
        netlist = build_benchmark(name, lib)
        reference = netlist.copy("ref")
        result = power_optimize(
            netlist,
            OptimizeOptions(
                num_patterns=1024, repeat=10, max_rounds=3, max_moves=20
            ),
        )
        assert result.final_power <= result.initial_power + 1e-9
        assert lint_netlist(netlist).errors == []
        assert check_equivalent(reference, netlist, num_patterns=2048).equal

    def test_pipeline_spec_flow(self, lib, name):
        netlist = build_benchmark(name, lib)
        reference = netlist.copy("ref")
        outcome = run_pipeline(
            netlist,
            "bdd_resynth; powder(repeat=10, max_rounds=2)",
            OptimizeOptions(num_patterns=512),
        )
        assert lint_netlist(outcome.netlist).errors == []
        assert check_equivalent(reference, outcome.netlist).equal


class TestFuzzOnAltLibrary:
    def test_quick_campaign_stays_green(self):
        report = run_fuzz(
            FuzzOptions(
                seed=11,
                count=3,
                optimize=OptimizeOptions(
                    num_patterns=256, repeat=10, max_rounds=2
                ),
                check_rerun=False,
                check_pipeline_identity=False,
                library=parse_genlib_file(NANDNOR),
            )
        )
        assert report.ok, report.summary()
