"""End-to-end integration tests: spec -> synthesis -> POWDER -> verification.

These exercise the complete pipeline the experiments run, and assert the
semantic invariants the paper claims: functional equivalence after
optimization, monotone power improvement, and delay constraints honoured.
"""

import pytest

from repro.bench.suite import build_benchmark
from repro.equiv.checker import check_equivalent
from repro.netlist.verify import check_netlist
from repro.timing.analysis import TimingAnalysis
from repro.transform.optimizer import OptimizeOptions, power_optimize


def options(**overrides):
    base = dict(num_patterns=1024, repeat=8, max_rounds=3, max_moves=10)
    base.update(overrides)
    return OptimizeOptions(**base)


@pytest.mark.parametrize("name", ["rd53", "sqrt8", "misex1", "alu2"])
class TestPipelinePerCircuit:
    def test_optimization_preserves_function(self, lib, name):
        netlist = build_benchmark(name, lib)
        reference = netlist.copy("ref")
        result = power_optimize(netlist, options(sanitize=True))
        check_netlist(netlist)
        assert result.final_power <= result.initial_power
        verdict = check_equivalent(reference, netlist, num_patterns=2048)
        assert verdict.equal, name

    def test_constrained_mode_never_slower(self, lib, name):
        netlist = build_benchmark(name, lib)
        initial_delay = TimingAnalysis(netlist).circuit_delay
        power_optimize(netlist, options(delay_slack_percent=0.0))
        final_delay = TimingAnalysis(netlist).circuit_delay
        assert final_delay <= initial_delay + 1e-9, name


class TestCrossChecks:
    def test_unconstrained_at_least_as_good_as_constrained(self, lib):
        base = build_benchmark("misex1", lib)
        unc = power_optimize(base.copy("u"), options())
        con = power_optimize(base.copy("c"), options(delay_slack_percent=0.0))
        # The greedy is order-dependent, but the constrained run can only
        # discard moves, so allow a small tolerance.
        assert unc.final_power <= con.final_power * 1.05

    def test_per_move_accounting_sums(self, lib):
        netlist = build_benchmark("rd53", lib)
        result = power_optimize(netlist, options())
        measured = sum(m.measured_power_gain for m in result.moves)
        assert result.initial_power - result.final_power == pytest.approx(
            measured
        )
        area_delta = sum(m.measured_area_delta for m in result.moves)
        assert result.final_area - result.initial_area == pytest.approx(
            area_delta
        )

    def test_second_pass_finds_little(self, lib):
        # POWDER is a fixed-point style greedy: a second run on its own
        # output should achieve much less than the first.
        netlist = build_benchmark("sqrt8", lib)
        first = power_optimize(netlist, options(max_moves=None, max_rounds=6))
        second = power_optimize(netlist, options(max_moves=None, max_rounds=6))
        if first.power_reduction_percent > 0:
            assert (
                second.power_reduction_percent
                <= first.power_reduction_percent
            )

    def test_blif_roundtrip_of_optimized(self, lib, tmp_path):
        from repro.netlist.blif import parse_blif, write_blif

        netlist = build_benchmark("misex1", lib)
        power_optimize(netlist, options())
        text = write_blif(netlist)
        again = parse_blif(text, lib)
        check_netlist(again)
        assert check_equivalent(netlist, again).equal
