"""Interface matching in the production checker is by name, never position.

Regression tests for the guarantee documented on ``check_equivalent``: the
operands may declare their primary inputs/outputs in any order, and a true
name-set mismatch raises a clean :class:`NetlistError` up front instead of
a deep KeyError from whichever stage touched the missing signal first.
"""

from __future__ import annotations

import pytest

from repro.equiv.checker import EQUAL, NOT_EQUAL, check_equivalent
from repro.errors import NetlistError
from repro.netlist.build import NetlistBuilder


def _build(lib, pi_order, po_order=("s", "c"), flip=False):
    """A 1-bit adder slice; ``pi_order``/``po_order`` permute declarations."""
    b = NetlistBuilder(lib, "slice")
    pis = {name: b.input(name) for name in pi_order}
    a, x, cin = pis["a"], pis["b"], pis["cin"]
    t = b.xor_(a, x, name="t")
    s = b.xor_(t, cin, name="s_g")
    and1 = b.and_(a, x, name="and1")
    and2 = b.and_(t, cin, name="and2")
    carry = b.or_(and1, and2, name="c_g")
    if flip:  # functionally different: carry output inverted
        carry = b.not_(carry, name="c_inv")
    outputs = {"s": s, "c": carry}
    for po in po_order:
        b.output(po, outputs[po])
    return b.build()


def test_equal_with_permuted_pi_and_po_order(lib):
    left = _build(lib, ["a", "b", "cin"])
    right = _build(lib, ["cin", "b", "a"], po_order=("c", "s"))
    assert check_equivalent(left, right).status == EQUAL


def test_equal_with_permuted_order_through_atpg_stage(lib):
    # num_patterns=0 skips the simulation filter and bdd_node_limit=0 the
    # BDDs: the SAT miter must itself be order-independent.
    left = _build(lib, ["a", "b", "cin"])
    right = _build(lib, ["cin", "a", "b"])
    result = check_equivalent(left, right, num_patterns=0, bdd_node_limit=0)
    assert result.status == EQUAL
    assert result.stage == "sat"


def test_equal_with_permuted_order_through_bdd_stage(lib):
    # Without simulation and with no SAT budget the BDD stage decides, and
    # it must also match by name.
    left = _build(lib, ["a", "b", "cin"])
    right = _build(lib, ["b", "cin", "a"])
    result = check_equivalent(left, right, num_patterns=0, conflict_limit=0)
    assert result.status == EQUAL
    assert result.stage == "bdd"


def test_not_equal_with_permuted_order_gives_valid_counterexample(lib):
    left = _build(lib, ["a", "b", "cin"])
    right = _build(lib, ["cin", "b", "a"], flip=True)
    result = check_equivalent(left, right)
    assert result.status == NOT_EQUAL
    cex = result.counterexample
    assert cex is not None and set(cex) == {"a", "b", "cin"}
    # The vector must actually distinguish the pair.
    from repro.fuzz.oracle import verify_counterexample

    assert verify_counterexample(left, right, cex)


def test_differing_input_sets_raise_with_names(lib):
    left = _build(lib, ["a", "b", "cin"])
    b2 = NetlistBuilder(lib, "other")
    a, x = b2.inputs("a", "b")
    b2.output("s", b2.xor_(a, x, name="s_g"))
    b2.output("c", b2.and_(a, x, name="c_g"))
    with pytest.raises(NetlistError, match="cin"):
        check_equivalent(left, b2.build())


def test_differing_output_sets_raise_with_names(lib):
    left = _build(lib, ["a", "b", "cin"])
    right = _build(lib, ["a", "b", "cin"])
    renamed = right.copy("renamed")
    driver = renamed.outputs.pop("c")
    renamed.output_loads.pop("c", None)
    driver.po_names.remove("c")
    renamed.set_output("carry", driver)
    with pytest.raises(NetlistError, match="carry"):
        check_equivalent(left, renamed)
