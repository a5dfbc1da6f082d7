"""Unit and property tests for the TruthTable kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogicError
from repro.logic.truthtable import MAX_VARS, TruthTable, all_minterms


def tables(max_vars=4):
    return st.integers(0, max_vars).flatmap(
        lambda n: st.builds(
            TruthTable, st.just(n), st.integers(0, (1 << (1 << n)) - 1)
        )
    )


class TestConstruction:
    def test_constant_false(self):
        t = TruthTable.constant(False, 3)
        assert t.count_ones() == 0
        assert t.is_constant()

    def test_constant_true(self):
        t = TruthTable.constant(True, 3)
        assert t.count_ones() == 8

    def test_variable_pattern(self):
        t = TruthTable.variable(1, 3)
        for m in range(8):
            assert t.value(m) == (m >> 1) & 1

    def test_variable_out_of_range(self):
        with pytest.raises(LogicError):
            TruthTable.variable(3, 3)

    def test_from_rows(self):
        t = TruthTable.from_rows([0, 1, 1, 0])
        assert t.nvars == 2
        assert t.bits == 0b0110

    def test_from_rows_bad_length(self):
        with pytest.raises(LogicError):
            TruthTable.from_rows([0, 1, 1])

    def test_from_rows_bad_value(self):
        with pytest.raises(LogicError):
            TruthTable.from_rows([0, 2])

    def test_from_function(self):
        t = TruthTable.from_function(lambda ins: ins[0] and not ins[1], 2)
        assert t.bits == 0b0010

    def test_too_many_vars(self):
        with pytest.raises(LogicError):
            TruthTable(MAX_VARS + 1, 0)

    def test_bits_exceed_rows(self):
        with pytest.raises(LogicError):
            TruthTable(1, 0b111)

    def test_immutable(self):
        t = TruthTable.constant(True, 1)
        with pytest.raises(AttributeError):
            t.bits = 0


class TestQueries:
    def test_evaluate_matches_value(self):
        t = TruthTable(3, 0b10110100)
        for m, inputs in enumerate(all_minterms(3)):
            assert t.evaluate(inputs) == t.value(m)

    def test_evaluate_arity_check(self):
        with pytest.raises(LogicError):
            TruthTable(2, 0b0110).evaluate([1])

    def test_onset_probability_uniform(self):
        t = TruthTable(2, 0b1000)  # AND
        assert t.onset_probability() == 0.25

    def test_onset_probability_biased(self):
        t = TruthTable(2, 0b1000)
        assert t.onset_probability([0.5, 1.0]) == pytest.approx(0.5)

    def test_support_detects_vacuous(self):
        # f = x0, expressed over 3 vars
        t = TruthTable.variable(0, 3)
        assert t.support() == (0,)

    def test_depends_on(self):
        t = TruthTable(2, 0b0110)  # XOR
        assert t.depends_on(0) and t.depends_on(1)


class TestAlgebra:
    def test_and_or_not(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert (a & b).bits == 0b1000
        assert (a | b).bits == 0b1110
        assert (~a).bits == 0b0101

    def test_xor(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert (a ^ b).bits == 0b0110

    def test_mismatched_support(self):
        with pytest.raises(LogicError):
            TruthTable.constant(True, 1) & TruthTable.constant(True, 2)

    def test_implies(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert (a & b).implies(a)
        assert not a.implies(a & b)

    @given(tables())
    def test_double_negation(self, t):
        assert ~~t == t

    @given(tables(), tables())
    def test_de_morgan(self, a, b):
        if a.nvars != b.nvars:
            return
        assert ~(a & b) == (~a | ~b)

    @given(tables())
    def test_xor_self_is_zero(self, t):
        assert (t ^ t).count_ones() == 0


class TestStructure:
    def test_cofactor_shannon(self):
        t = TruthTable(3, 0b10010110)
        x = TruthTable.variable(1, 3)
        rebuilt = (x & t.cofactor(1, 1)) | (~x & t.cofactor(1, 0))
        assert rebuilt == t

    @given(tables(3), st.integers(0, 2), st.integers(0, 1))
    def test_cofactor_is_independent(self, t, var, value):
        if var >= t.nvars:
            return
        cf = t.cofactor(var, value)
        assert not cf.depends_on(var)

    def test_compose_identity(self):
        t = TruthTable(2, 0b0110)
        vars_ = [TruthTable.variable(i, 2) for i in range(2)]
        assert t.compose(vars_) == t

    def test_compose_swap(self):
        t = TruthTable(2, 0b0010)  # x0 & !x1
        swapped = t.compose(
            [TruthTable.variable(1, 2), TruthTable.variable(0, 2)]
        )
        assert swapped.bits == 0b0100  # x1 & !x0

    def test_permute_roundtrip(self):
        t = TruthTable(3, 0b11011000)
        perm = (2, 0, 1)
        inverse = [0] * 3
        for new, old in enumerate(perm):
            inverse[old] = new
        assert t.permute(perm).permute(tuple(inverse)) == t

    @given(tables(4), st.randoms(use_true_random=False))
    def test_permute_reads_the_mapped_inputs(self, t, rng):
        perm = list(range(t.nvars))
        rng.shuffle(perm)
        permuted = t.permute(perm)
        for inputs in all_minterms(t.nvars):
            original = [0] * t.nvars
            for new, old in enumerate(perm):
                original[old] = inputs[new]
            assert permuted.evaluate(inputs) == t.evaluate(original)

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(LogicError):
            TruthTable(2, 0).permute((0, 0))

    def test_extend_preserves_function(self):
        t = TruthTable(2, 0b1000)
        wide = t.extend(4, [1, 3])
        for m, inputs in enumerate(all_minterms(4)):
            assert wide.evaluate(inputs) == t.evaluate(
                (inputs[1], inputs[3])
            )

    def test_shrink_removes_vacuous(self):
        t = TruthTable.variable(2, 4)
        small, kept = t.shrink()
        assert small.nvars == 1
        assert kept == (2,)
        assert small == TruthTable.variable(0, 1)

    @given(tables(3))
    def test_p_canonical_is_invariant(self, t):
        canon, _ = t.p_canonical()
        # Canonical form of any permutation is the same table.
        perm = tuple(reversed(range(t.nvars)))
        canon2, _ = t.permute(perm).p_canonical()
        assert canon == canon2


class TestDunder:
    def test_hash_and_eq(self):
        a = TruthTable(2, 0b0110)
        b = TruthTable(2, 0b0110)
        assert a == b and hash(a) == hash(b)
        assert a != TruthTable(2, 0b1001)
        assert a != "not a table"

    def test_repr(self):
        assert "TruthTable" in repr(TruthTable(2, 0b0110))
