"""Tests for the exact permissibility oracle."""

from repro.transform.permissible import (
    ABORTED,
    NOT_PERMISSIBLE,
    PERMISSIBLE,
    check_candidate,
)
from repro.transform.substitution import IS2, OS2, OS3, Substitution


class TestCheckCandidate:
    def test_paper_move_is_permissible(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        sub = Substitution(IS2, "a", "e", branch=("d", pin))
        result = check_candidate(figure2, sub)
        assert result.status == PERMISSIBLE
        assert result.allowed

    def test_wrong_move_rejected_with_counterexample(self, figure2):
        # Substituting stem d by e changes f: (a&b)&b != (a^c)&b.
        result = check_candidate(figure2, Substitution(OS2, "d", "e"))
        assert result.status == NOT_PERMISSIBLE
        assert not result.allowed
        assert result.counterexample is not None

    def test_duplicate_logic_permissible(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.and_(a, b, name="g2")
        builder.output("o1", builder.not_(g1, name="n1"))
        builder.output("o2", builder.not_(g2, name="n2"))
        nl = builder.build()
        result = check_candidate(nl, Substitution(OS2, "g2", "g1"))
        assert result.status == PERMISSIBLE

    def test_os3_permissible(self, figure2):
        # e = a AND b: replacing stem e by and2(a, b) is trivially OK.
        sub = Substitution(OS3, "e", "a", source2="b", new_cell="and2")
        assert check_candidate(figure2, sub).status == PERMISSIBLE

    def test_stale_is_not_permissible(self, figure2):
        sub = Substitution(OS2, "nonexistent", "e")
        result = check_candidate(figure2, sub)
        assert result.status == NOT_PERMISSIBLE
        assert result.stage == "apply"

    def test_cycle_is_not_permissible(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        builder.output("o", g2)
        nl = builder.build()
        # Substituting g1 by g2 (its own fanout) would cycle.
        result = check_candidate(nl, Substitution(OS2, "g1", "g2"))
        assert result.status == NOT_PERMISSIBLE

    def test_abort_reported(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        sub = Substitution(IS2, "a", "e", branch=("d", pin))
        # Zero SAT budget, BDD stage disabled, no simulation
        # counterexample: the check must abort.
        result = check_candidate(
            figure2, sub, conflict_limit=0, num_patterns=64,
            bdd_node_limit=0,
        )
        assert result.status == ABORTED

    def test_bdd_fallback_rescues_zero_budget(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        sub = Substitution(IS2, "a", "e", branch=("d", pin))
        result = check_candidate(
            figure2, sub, conflict_limit=0, num_patterns=64
        )
        assert result.status == PERMISSIBLE
        assert result.stage == "bdd"
