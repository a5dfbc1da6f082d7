"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.library.standard import standard_library
from repro.netlist.build import NetlistBuilder
from repro.netlist.netlist import Netlist


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the committed golden run traces under "
        "tests/telemetry/golden/ and the mapped-cover fingerprints in "
        "tests/synth/mapped_covers.json instead of comparing against them",
    )


@pytest.fixture(scope="session")
def lib():
    return standard_library()


@pytest.fixture
def builder(lib):
    return NetlistBuilder(lib, "test")


def make_figure2(lib) -> Netlist:
    """The paper's Figure-2 circuit: e = a·b, d = a⊕c, f = d·b."""
    b = NetlistBuilder(lib, "fig2")
    a, bb, c = b.inputs("a", "b", "c")
    b.and_(a, bb, name="e")
    d = b.xor_(a, c, name="d")
    f = b.and_(d, bb, name="f")
    b.output("f_out", f)
    b.output("e_out", b.netlist.gate("e"))
    return b.build()


@pytest.fixture
def figure2(lib):
    return make_figure2(lib)


def sat_stage(left: Netlist, right: Netlist):
    """``check_equivalent`` with the simulation and BDD stages off."""
    from repro.equiv.checker import check_equivalent

    result = check_equivalent(left, right, num_patterns=0, bdd_node_limit=0)
    assert result.stage == "sat"
    return result


def make_random_netlist(
    lib, num_inputs: int, num_gates: int, num_outputs: int, seed: int,
    sweep: bool = True,
) -> Netlist:
    """A random mapped DAG over 2-input cells (deterministic per seed).

    ``sweep=False`` keeps the gates that reach no output (dead logic).
    """
    rng = random.Random(seed)
    b = NetlistBuilder(lib, f"rand{seed}")
    signals = [b.input(f"x{i}") for i in range(num_inputs)]
    ops = [b.and_, b.or_, b.nand_, b.nor_, b.xor_, b.xnor_]
    for i in range(num_gates):
        op = rng.choice(ops)
        left = rng.choice(signals)
        right = rng.choice(signals)
        if left is right:
            right = rng.choice(signals)
        signals.append(op(left, right, name=f"g{i}"))
        if rng.random() < 0.15:
            signals.append(b.not_(signals[-1], name=f"n{i}"))
    # Last gates (and a couple of random picks) become outputs.
    chosen = signals[-num_outputs:]
    for index, gate in enumerate(chosen):
        b.output(f"o{index}", gate)
    netlist = b.build()
    if sweep:
        netlist.sweep_dead()
    return netlist


@pytest.fixture
def random_netlist(lib):
    return make_random_netlist(lib, 6, 18, 3, seed=7)
