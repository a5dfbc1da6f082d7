"""Tests for the area and delay optimization objectives.

The same ATPG-transformation engine served area optimization (redundancy
addition/removal, the paper's ref [2]) and delay optimization (clause
analysis, ref [5]) before POWDER pointed it at power; these tests exercise
those roles.
"""

import pytest

from repro.equiv.checker import check_equivalent
from repro.timing.analysis import TimingAnalysis
from repro.transform.optimizer import OptimizeOptions, power_optimize
from tests.conftest import make_random_netlist


def options(objective, **overrides):
    base = dict(
        objective=objective, num_patterns=1024, repeat=10, max_rounds=3
    )
    base.update(overrides)
    return OptimizeOptions(**base)


class TestAreaObjective:
    def test_unknown_objective_rejected(self, figure2):
        # Rejected at construction time since OptimizeOptions validation.
        with pytest.raises(ValueError, match="unknown optimization objective"):
            OptimizeOptions(objective="speed")

    def test_duplicate_logic_removed(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.and_(b, a, name="g2")  # same function, swapped pins
        builder.output("o1", builder.not_(g1, name="n1"))
        builder.output("o2", builder.not_(g2, name="n2"))
        nl = builder.build()
        ref = nl.copy("ref")
        result = power_optimize(nl, options("area", sanitize=True))
        assert result.final_area < result.initial_area
        assert check_equivalent(ref, nl).equal

    @pytest.mark.parametrize("seed", [401, 402])
    def test_area_never_increases(self, lib, seed):
        nl = make_random_netlist(lib, 6, 18, 3, seed=seed)
        ref = nl.copy("ref")
        result = power_optimize(nl, options("area"))
        for move in result.moves:
            assert move.measured_area_delta < 0, str(move.substitution)
        assert result.final_area <= result.initial_area
        assert check_equivalent(ref, nl).equal

    def test_area_objective_beats_power_on_area(self, lib):
        base = make_random_netlist(lib, 6, 20, 3, seed=403)
        area_run = power_optimize(base.copy("a"), options("area"))
        power_run = power_optimize(base.copy("p"), options("power"))
        assert area_run.final_area <= power_run.final_area + 1e-9


class TestDelayObjective:
    def test_delay_never_increases(self, lib):
        nl = make_random_netlist(lib, 6, 20, 3, seed=411)
        ref = nl.copy("ref")
        initial = TimingAnalysis(nl).circuit_delay
        result = power_optimize(
            nl, options("delay", preselect=6, max_moves=6)
        )
        final = TimingAnalysis(nl).circuit_delay
        assert final <= initial + 1e-9
        for move in result.moves:
            # Every accepted move strictly improved the then-current delay;
            # the recorded post-move delays must be non-increasing.
            pass
        delays = [m.circuit_delay_after for m in result.moves]
        assert all(b <= a + 1e-9 for a, b in zip(delays, delays[1:]))
        assert check_equivalent(ref, nl).equal

    def test_chain_shortcut_found(self, builder):
        # g duplicated through a slow inverter chain; the direct signal is
        # a faster permissible substitute for the chain's output.
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        slow = g
        for i in range(4):
            slow = builder.not_(slow, name=f"s{i}")
        # s3 == g (4 inversions); merge with other logic.
        out = builder.or_(slow, a, name="out")
        builder.output("o", out)
        nl = builder.build()
        ref = nl.copy("ref")
        initial = TimingAnalysis(nl).circuit_delay
        result = power_optimize(nl, options("delay"))
        final = TimingAnalysis(nl).circuit_delay
        assert final < initial  # the chain must be bypassed
        assert check_equivalent(ref, nl).equal
