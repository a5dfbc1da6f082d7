"""Tests for the PG_A / PG_B / PG_C gain analysis (eqs. 2-5).

The central invariant: with the simulation probability engine, ``full_gain``
must predict the estimator's before/after difference *exactly* (same
pattern sample, eq. 2).
"""

import pytest

from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.transform.gain import full_gain, predict_dying_region, quick_gain
from repro.transform.substitution import (
    IS2,
    OS2,
    OS3,
    Substitution,
    apply_substitution,
)
from tests.conftest import make_random_netlist


def exhaustive_estimator(netlist):
    return PowerEstimator(
        netlist, SimulationProbability(netlist, exhaustive=True)
    )


def assert_gain_exact(netlist, substitution):
    """full_gain.total must equal the measured estimator delta."""
    est = exhaustive_estimator(netlist)
    predicted = full_gain(est, substitution)
    before = est.total()
    area_before = netlist.total_area()
    applied = apply_substitution(netlist, substitution)
    est.update_after_edit(
        [netlist.gate(n) for n in applied.resim_roots if n in netlist.gates]
    )
    measured = before - est.total()
    assert predicted.total == pytest.approx(measured, abs=1e-9), str(substitution)
    assert predicted.area_delta == pytest.approx(
        netlist.total_area() - area_before
    )
    assert set(predicted.dying) == set(applied.removed)


class TestDyingRegion:
    def test_is2_branch_no_death(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        sub = Substitution(IS2, "a", "e", branch=("d", pin))
        assert predict_dying_region(figure2, sub) == []

    def test_os2_region(self, figure2):
        region = predict_dying_region(figure2, Substitution(OS2, "d", "e"))
        assert {g.name for g in region} == {"d"}

    def test_os2_cascading_region(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        alt = builder.nand_(a, b, name="alt")
        out = builder.or_(g2, alt, name="out")
        builder.output("o", out)
        nl = builder.build()
        region = predict_dying_region(nl, Substitution(OS2, "g2", "alt"))
        assert {g.name for g in region} == {"g1", "g2"}

    def test_source_in_region_rejected(self, builder):
        # Substituting g2 by g1 keeps g1 alive: it must not be in the dying
        # region, and the region must stop above it.
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        builder.output("o", g2)
        nl = builder.build()
        region = predict_dying_region(nl, Substitution(OS2, "g2", "g1", invert1=True))
        assert {g.name for g in region} == {"g2"}

    def test_constant_move_keeps_the_reused_tie(self, builder, lib):
        # OS2(a <- 1) hangs z's pin on t1, the tie gate a read: only a dies.
        x, y = builder.inputs("x", "y")
        t1 = builder.netlist.add_gate(lib.constant(True), [], name="t1")
        a = builder.and_(x, t1, name="a")
        builder.output("o", builder.and_(a, y, name="z"))
        nl = builder.build()
        sub = Substitution(OS2, "a", "", constant=1)
        assert [g.name for g in predict_dying_region(nl, sub)] == ["a"]
        assert_gain_exact(nl, sub)
        assert "t1" in nl.gates


class TestQuickGainFigure2:
    def test_figure2_is2_components(self, figure2):
        # The paper's rewiring: branch a@d <- e.
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        sub = Substitution(IS2, "a", "e", branch=("d", pin))
        est = exhaustive_estimator(figure2)
        gain = quick_gain(est, sub)
        # PG_A = C(branch) * E(a) = 2.0 * 0.5 = 1.0
        assert gain.pg_a == pytest.approx(1.0)
        # PG_B = -C(branch) * E(e) = -2.0 * 0.375 = -0.75
        assert gain.pg_b == pytest.approx(-0.75)
        full = full_gain(est, sub)
        # d keeps E = 0.5 ((ab) xor c), f unchanged: PG_C = 0.
        assert full.pg_c == pytest.approx(0.0)
        assert full.total == pytest.approx(0.25)

    def test_quick_gain_has_no_pg_c(self, figure2):
        est = exhaustive_estimator(figure2)
        gain = quick_gain(est, Substitution(OS2, "d", "e"))
        assert not gain.includes_pg_c
        assert gain.pg_c == 0.0


class TestExactness:
    def test_is2_exact(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        assert_gain_exact(
            figure2, Substitution(IS2, "a", "e", branch=("d", pin))
        )

    def test_os2_exact(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        alt = builder.nand_(a, b, name="alt")
        out = builder.or_(g2, alt, name="out")
        builder.output("o", out)
        assert_gain_exact(builder.build(), Substitution(OS2, "g2", "alt"))

    def test_os2_inverted_exact(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        out = builder.or_(g2, a, name="out")
        builder.output("o", out)
        nl = builder.build()
        assert_gain_exact(nl, Substitution(OS2, "g2", "g1", invert1=True))

    def test_os3_exact(self, figure2):
        assert_gain_exact(
            figure2,
            Substitution(OS3, "e", "a", source2="b", new_cell="and2"),
        )

    def test_os3_xor_exact(self, figure2):
        assert_gain_exact(
            figure2,
            Substitution(OS3, "d", "a", source2="c", new_cell="xor2"),
        )

    def test_random_candidates_exact(self, lib):
        # Exactness over every generated candidate on random netlists.
        from repro.transform.candidates import (
            CandidateOptions,
            generate_candidates,
        )

        for seed in (41, 42):
            nl = make_random_netlist(lib, 5, 14, 3, seed=seed)
            est = PowerEstimator(
                nl, SimulationProbability(nl, exhaustive=True)
            )
            candidates = generate_candidates(
                est, CandidateOptions(max_per_target=2, max_total=25)
            )
            for candidate in candidates[:15]:
                trial = nl.copy("t")
                assert_gain_exact(trial, candidate.substitution)


class TestPgcDominance:
    def test_pgc_can_dominate(self, lib):
        """§3.3: "PG_C can dominate the power gain of a substitution".

        Hunt across random circuits for at least one candidate whose TFO
        re-estimation term outweighs the local PG_A + PG_B part."""
        from repro.transform.candidates import (
            CandidateOptions,
            generate_candidates,
        )

        found_dominant = False
        for seed in range(70, 90):
            nl = make_random_netlist(lib, 6, 18, 3, seed=seed)
            est = exhaustive_estimator(nl)
            for candidate in generate_candidates(
                est, CandidateOptions(max_per_target=4, max_total=60)
            ):
                gain = full_gain(est, candidate.substitution)
                if abs(gain.pg_c) > abs(gain.pg_a + gain.pg_b) > 0:
                    found_dominant = True
                    break
            if found_dominant:
                break
        assert found_dominant, "no PG_C-dominated candidate found"

    def test_pgc_sign_varies(self, lib):
        """§3.3: PG_C "can be positive or negative"."""
        from repro.transform.candidates import (
            CandidateOptions,
            generate_candidates,
        )

        signs = set()
        for seed in range(70, 90):
            nl = make_random_netlist(lib, 6, 18, 3, seed=seed)
            est = exhaustive_estimator(nl)
            for candidate in generate_candidates(
                est, CandidateOptions(max_per_target=4, max_total=60)
            ):
                gain = full_gain(est, candidate.substitution)
                if gain.pg_c > 1e-9:
                    signs.add("+")
                elif gain.pg_c < -1e-9:
                    signs.add("-")
                if signs == {"+", "-"}:
                    return
        assert signs == {"+", "-"}
