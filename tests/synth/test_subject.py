"""Tests for the AND2/INV subject graph."""

import numpy as np
import pytest

from repro.logic.expr import Expr, parse_expression
from repro.netlist.simulate import exhaustive_patterns
from repro.synth.subject import AND2, CONST0, INV, PI, SubjectGraph


class TestConstruction:
    def test_strash_shares(self):
        g = SubjectGraph()
        a, b = g.add_pi("a"), g.add_pi("b")
        n1 = g.mk_and(a, b)
        n2 = g.mk_and(b, a)  # commutative: same node
        assert n1 == n2

    def test_double_inverter_collapses(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        assert g.mk_inv(g.mk_inv(a)) == a

    def test_idempotent_and(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        assert g.mk_and(a, a) == a

    def test_contradiction_is_const0(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        zero = g.const0()
        assert g.mk_and(a, g.mk_inv(a)) == zero

    def test_const_folding(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        assert g.mk_and(a, g.const0()) == g.const0()
        assert g.mk_and(a, g.const1()) == a

    def test_or_via_demorgan(self):
        g = SubjectGraph()
        a, b = g.add_pi("a"), g.add_pi("b")
        node = g.mk_or(a, b)
        g.set_output("y", node)
        values = g.simulate(exhaustive_patterns(["a", "b"]))
        word = int(values[node][0])
        for m in range(4):
            assert (word >> m) & 1 == ((m & 1) | ((m >> 1) & 1))

    def test_xor(self):
        g = SubjectGraph()
        a, b = g.add_pi("a"), g.add_pi("b")
        node = g.mk_xor(a, b)
        values = g.simulate(exhaustive_patterns(["a", "b"]))
        word = int(values[node][0])
        for m in range(4):
            assert (word >> m) & 1 == ((m & 1) ^ ((m >> 1) & 1))

    def test_duplicate_pi_rejected(self):
        g = SubjectGraph()
        g.add_pi("a")
        with pytest.raises(Exception):
            g.add_pi("a")


class TestFromExpr:
    @pytest.mark.parametrize(
        "text",
        ["a*b+c", "!(a+b)*c", "a^b^c", "a*(b+!c)", "CONST1", "CONST0"],
    )
    def test_expr_roundtrip(self, text):
        expr = parse_expression(text)
        names = list(expr.variables()) or ["a"]
        g = SubjectGraph()
        for n in names:
            g.add_pi(n)
        node = g.add_expr(expr)
        g.set_output("y", node)
        values = g.simulate(exhaustive_patterns(names))
        table = expr.to_truthtable(names)
        word = values[node]
        for m in range(1 << len(names)):
            got = (int(word[(m // 64)]) >> (m % 64)) & 1
            assert got == table.value(m), (text, m)

    def test_sharing_across_outputs(self):
        g = SubjectGraph()
        e1 = parse_expression("a*b+c")
        e2 = parse_expression("c+b*a")
        n1 = g.add_expr(e1)
        n2 = g.add_expr(e2)
        assert n1 == n2

    def test_shared_subexpressions_are_decomposed_once(self):
        # Each level reads the previous one twice, as the multiplier's
        # sum and carry share their column operands: walking every
        # occurrence would take 2**depth visits of the first level.
        depth = 16
        expr = Expr.var("a")
        for i in range(depth):
            expr = Expr.or_(
                Expr.and_(expr, Expr.var(f"b{i}")),
                Expr.and_(expr, Expr.var(f"c{i}")),
            )
        g = SubjectGraph()
        calls = 0
        mk_and = g.mk_and

        def counting_mk_and(a, b):
            nonlocal calls
            calls += 1
            return mk_and(a, b)

        g.mk_and = counting_mk_and
        g.add_expr(expr)
        assert calls == 3 * depth
        assert g.num_ands() == 3 * depth


class TestQueries:
    def test_reachable_from_outputs(self):
        g = SubjectGraph()
        a, b = g.add_pi("a"), g.add_pi("b")
        used = g.mk_and(a, b)
        unused = g.mk_or(a, b)
        g.set_output("y", used)
        reachable = g.reachable_from_outputs()
        assert used in reachable
        assert unused not in reachable

    def test_depth(self):
        g = SubjectGraph()
        a, b, c = g.add_pi("a"), g.add_pi("b"), g.add_pi("c")
        g.set_output("y", g.mk_and(g.mk_and(a, b), c))
        assert g.depth() == 2

    def test_num_ands(self):
        g = SubjectGraph()
        a, b = g.add_pi("a"), g.add_pi("b")
        g.mk_and(a, b)
        g.mk_inv(a)
        assert g.num_ands() == 1
