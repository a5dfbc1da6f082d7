"""Tests for redundancy identification."""

from repro.atpg.fault import StuckAtFault, all_faults
from repro.atpg.redundancy import (
    ABORTED,
    REDUNDANT,
    TESTABLE,
    classify_fault,
    is_redundant,
    redundant_faults,
)


def redundant_circuit(builder):
    """f = a OR (a AND b): the AND gate's sa0 is redundant."""
    a, b = builder.inputs("a", "b")
    g = builder.and_(a, b, name="g")
    f = builder.or_(a, g, name="f")
    builder.output("o", f)
    return builder.build()


class TestClassification:
    def test_redundant(self, builder):
        nl = redundant_circuit(builder)
        assert classify_fault(nl, StuckAtFault("g", 0)) == REDUNDANT
        assert is_redundant(nl, StuckAtFault("g", 0))

    def test_testable(self, builder):
        nl = redundant_circuit(builder)
        assert classify_fault(nl, StuckAtFault("g", 1)) == TESTABLE
        assert not is_redundant(nl, StuckAtFault("g", 1))

    def test_abort_is_not_redundant(self, builder):
        nl = redundant_circuit(builder)
        assert classify_fault(nl, StuckAtFault("g", 0), conflict_limit=0) == ABORTED
        assert not is_redundant(nl, StuckAtFault("g", 0), conflict_limit=0)

    def test_redundant_faults_filter(self, builder):
        nl = redundant_circuit(builder)
        found = redundant_faults(nl, all_faults(nl))
        assert StuckAtFault("g", 0) in found
        assert all(is_redundant(nl, f) for f in found)

    def test_irredundant_circuit_has_none(self, figure2):
        found = redundant_faults(figure2, all_faults(figure2))
        # Figure 2 is fully testable except branch don't-cares; check stems.
        stem_redundant = [f for f in found if f.branch is None]
        assert stem_redundant == []
