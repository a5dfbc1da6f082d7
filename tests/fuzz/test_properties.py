"""Metamorphic properties: clean on real runs, violations detected."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.fuzz.harness import FuzzOptions, optimizer_options
from repro.fuzz.properties import (
    dead_logic,
    delay_constraint,
    idempotent_rerun,
    pipeline_identity,
    power_monotone,
    run_properties,
)
from repro.lint import lint_netlist
from repro.transform.optimizer import power_optimize


@pytest.fixture(scope="module")
def run(lib):
    original = random_mapped_netlist(
        GeneratorConfig(seed=12, shape="high_fanout"), lib
    )
    options = optimizer_options(FuzzOptions(num_patterns=256))
    result = power_optimize(original.copy(original.name + "_opt"), options)
    return original, result, options


def test_all_properties_hold_on_real_run(run):
    original, result, options = run
    assert run_properties(original, result, options) == []


def test_power_monotone_flags_regression(run):
    _original, result, _options = run
    doctored = replace(result, final_power=result.initial_power + 1.0)
    assert any("[power-monotone]" in f for f in power_monotone(doctored))


def test_delay_constraint_flags_violation(run):
    _original, result, _options = run
    assert delay_constraint(result) == []  # unconstrained run: no limit
    doctored = replace(result, delay_limit=result.final_delay * 0.5)
    assert any("[delay-constraint]" in f for f in delay_constraint(doctored))


def test_dead_logic_flags_a_left_behind_gate(run):
    original, result, _options = run
    assert dead_logic(original, result) == []
    netlist = result.netlist.copy()
    gate = next(netlist.logic_gates())
    netlist.add_gate(netlist.library.inverter(), [gate], name="left")
    failures = dead_logic(original, replace(result, netlist=netlist))
    assert failures == ["[dead-logic] fanout-free gates left behind: ['left']"]


def test_rerun_holds(run):
    _original, result, options = run
    assert idempotent_rerun(result, options) == []


def test_pipeline_identity_holds_and_flags_divergence(run):
    original, result, options = run
    assert pipeline_identity(original, result, options) == []
    # A doctored move log (one move dropped) must trip the property.
    doctored = replace(result, moves=result.moves[:-1])
    failures = pipeline_identity(original, doctored, options)
    assert any("[pipeline-identity]" in f for f in failures)


def test_constrained_run_respects_delay_limit(lib):
    netlist = random_mapped_netlist(
        GeneratorConfig(seed=9, shape="reconvergent"), lib
    )
    options = optimizer_options(
        FuzzOptions(num_patterns=256, delay_slack_percent=0.0)
    )
    result = power_optimize(netlist, options)
    assert result.delay_limit is not None
    assert delay_constraint(result) == []


# ----------------------------------------------------------------------
# Satellite: every OS3/IS3-inserted gate is a legal library citizen.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,shape", [(0, "reconvergent"), (12, "high_fanout")])
def test_os3_is3_insertions_are_library_legal(lib, seed, shape):
    netlist = random_mapped_netlist(GeneratorConfig(seed=seed, shape=shape), lib)
    options = optimizer_options(FuzzOptions(num_patterns=256))
    result = power_optimize(netlist, options)

    inserting = [
        m for m in result.moves if m.substitution.kind in ("OS3", "IS3")
    ]
    assert inserting, "chosen seeds must exercise the pair substitutions"
    for move in inserting:
        cell_name = move.substitution.new_cell
        assert cell_name in lib, f"inserted cell {cell_name!r} not in library"
        assert lib[cell_name].num_inputs == 2

    # The lint rules are the ground truth for "legally wired": L001 (every
    # cell resolves in the library) and L002 (drive limits respected) must
    # stay silent on the optimized netlist.
    report = lint_netlist(result.netlist, select=["L001", "L002"])
    findings = report.errors + report.warnings
    assert not findings, report.format_text()
