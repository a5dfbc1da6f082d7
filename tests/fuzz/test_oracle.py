"""The differential oracle: tier agreement, counterexamples, metric checks."""

from __future__ import annotations

from dataclasses import replace

from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.fuzz.harness import FuzzOptions
from repro.fuzz.oracle import (
    check_equivalence_tiers,
    cross_check_metrics,
    verify_counterexample,
)
from repro.netlist.build import NetlistBuilder
from repro.transform.optimizer import power_optimize


def test_identical_netlists_agree_equal(lib):
    netlist = random_mapped_netlist(GeneratorConfig(seed=5), lib)
    report = check_equivalence_tiers(
        netlist, netlist.copy("twin"), num_patterns=256
    )
    assert report.equal and report.consistent, (
        report.verdicts, report.disagreements
    )
    assert report.verdicts["exhaustive"] == "equal"
    assert report.verdicts["sat"] == "equal"
    assert report.verdicts["production"] == "equal"


def test_pi_declaration_order_is_irrelevant(lib):
    def build(order):
        b = NetlistBuilder(lib, "ordered")
        pis = {name: b.input(name) for name in order}
        g = b.and_(pis["a"], pis["b"], name="g1")
        b.output("z0", b.or_(g, pis["c"], name="g2"))
        return b.build()

    report = check_equivalence_tiers(
        build(["a", "b", "c"]), build(["c", "b", "a"]), num_patterns=256
    )
    assert report.equal and report.consistent


def test_inequivalent_pair_caught_with_valid_counterexample(lib):
    def build(op_name):
        b = NetlistBuilder(lib, op_name)
        a, c = b.inputs("a", "c")
        b.output("z0", getattr(b, op_name)(a, c, name="g1"))
        return b.build()

    left, right = build("and_"), build("or_")
    report = check_equivalence_tiers(left, right, num_patterns=256)
    assert not report.equal
    assert report.verdicts["exhaustive"] == "not-equal"
    assert report.verdicts["sat"] == "not-equal"
    assert report.counterexample is not None
    assert verify_counterexample(left, right, report.counterexample)
    # All tiers saw the same truth: no cross-engine disagreement.
    assert report.consistent, report.disagreements


def test_interface_mismatch_is_a_finding_not_a_crash(lib):
    b = NetlistBuilder(lib, "small")
    a, c = b.inputs("a", "c")
    b.output("z0", b.and_(a, c, name="g1"))
    left = b.build()

    b2 = NetlistBuilder(lib, "extra_pi")
    a2, c2, _unused = b2.inputs("a", "c", "u")
    b2.output("z0", b2.and_(a2, c2, name="g1"))
    right = b2.build()

    report = check_equivalence_tiers(left, right, num_patterns=256)
    assert report.verdicts["sat"] == "error"
    assert report.verdicts["production"] == "error"
    assert not report.consistent

    b3 = NetlistBuilder(lib, "other_po")
    a3, c3 = b3.inputs("a", "c")
    b3.output("weird", b3.and_(a3, c3, name="g1"))
    report = check_equivalence_tiers(left, b3.build(), num_patterns=256)
    assert not report.equal
    assert not report.consistent


def _optimized(lib, seed=6):
    netlist = random_mapped_netlist(GeneratorConfig(seed=seed), lib)
    options = FuzzOptions().optimize
    return power_optimize(netlist, options), options


def test_metrics_cross_check_passes_on_real_run(lib):
    result, options = _optimized(lib)
    assert cross_check_metrics(result, options) == []


def test_metrics_cross_check_flags_tampered_figures(lib):
    result, options = _optimized(lib)
    doctored = replace(result, final_power=result.final_power + 1.0)
    problems = cross_check_metrics(doctored, options)
    assert any("power" in p for p in problems)

    doctored = replace(result, final_area=result.final_area + 464.0)
    assert any("area" in p for p in cross_check_metrics(doctored, options))

    doctored = replace(result, final_delay=result.final_delay + 1.0)
    assert any("delay" in p for p in cross_check_metrics(doctored, options))
