"""Each built-in lint rule fires on a deliberately corrupted netlist."""

import json

import pytest

from repro.analysis import AnalysisSuite
from repro.errors import LintError, NetlistError
from repro.library.cell import Cell, Library, Pin
from repro.lint import (
    Severity,
    all_rules,
    get_rule,
    lint_netlist,
    resolve_rules,
    rule_catalog,
)
from repro.netlist.build import NetlistBuilder
from repro.netlist.netlist import Netlist
from repro.netlist.verify import check_netlist


def rule_ids(report):
    return {d.rule_id for d in report.diagnostics}


class TestStructuralRules:
    def test_clean_netlist_has_no_findings(self, figure2):
        assert lint_netlist(figure2).diagnostics == []

    def test_n001_wrong_registration(self, figure2):
        gate = figure2.gate("d")
        del figure2.gates["d"]
        figure2.gates["dd"] = gate
        assert "N001" in rule_ids(lint_netlist(figure2))

    def test_n002_input_with_fanin(self, figure2):
        a = figure2.gate("a")
        a.fanins.append(figure2.gate("b"))
        report = lint_netlist(figure2, select=["N002"])
        assert [d.rule_id for d in report.errors] == ["N002"]
        assert report.errors[0].gate == "a"

    def test_n002_bogus_input_list_entry(self, figure2):
        figure2.input_names.append("ghost")
        assert "N002" in rule_ids(lint_netlist(figure2))

    def test_n003_arity_mismatch(self, figure2):
        d = figure2.gate("d")
        dropped = d.fanins.pop()
        dropped.fanouts.remove((d, 1))
        report = lint_netlist(figure2, select=["N003"])
        assert len(report.errors) == 1
        assert report.errors[0].gate == "d"

    def test_n004_foreign_fanin(self, figure2, lib):
        other = NetlistBuilder(lib, "other")
        foreign = other.input("zz")
        d = figure2.gate("d")
        d.fanins[0] = foreign
        report = lint_netlist(figure2)
        assert "N004" in rule_ids(report)

    def test_n005_stale_fanout_entry(self, figure2):
        d = figure2.gate("d")
        e = figure2.gate("e")
        d.fanouts.append((e, 0))  # e pin 0 is not driven by d
        report = lint_netlist(figure2, select=["N005"])
        (diag,) = report.errors
        assert diag.gate == "d"
        assert diag.pin == 0
        assert "stale" in diag.message

    def test_n005_missing_fanout_branch(self, figure2):
        d = figure2.gate("d")
        f = figure2.gate("f")
        d.fanouts.remove((f, 0))
        assert "N005" in rule_ids(lint_netlist(figure2))

    def test_n006_po_owned_by_other_driver(self, figure2):
        figure2.outputs["f_out"] = figure2.gate("e")
        assert "N006" in rule_ids(lint_netlist(figure2))

    def test_n006_missing_po_load(self, figure2):
        del figure2.output_loads["f_out"]
        assert "N006" in rule_ids(lint_netlist(figure2))

    def test_n007_duplicated_po_driver(self, figure2):
        # Both e and f now claim the f_out port.
        figure2.gate("e").po_names.append("f_out")
        report = lint_netlist(figure2)
        assert "N007" in rule_ids(report)
        (diag,) = [d for d in report.errors if d.rule_id == "N007"]
        assert "f_out" in diag.message

    def test_n008_cycle(self, figure2):
        d = figure2.gate("d")
        f = figure2.gate("f")
        a = d.fanins[0]
        a.fanouts.remove((d, 0))
        d.fanins[0] = f
        f.fanouts.append((d, 0))
        figure2._invalidate()
        report = lint_netlist(figure2, select=["N008"])
        assert len(report.errors) == 1
        assert "cycle" in report.errors[0].message


class TestQualityRules:
    def test_q001_dangling_gate(self, figure2, lib):
        b = figure2.gate("b")
        figure2.add_gate(lib.inverter(), [b], name="dead")
        report = lint_netlist(figure2)
        assert [d.rule_id for d in report.diagnostics] == ["Q001"]
        diag = report.diagnostics[0]
        assert diag.severity == Severity.WARNING
        assert diag.gate == "dead"
        assert "sweep_dead" in diag.suggestion

    def test_q002_tie_fed_gate(self, figure2, lib):
        tie = figure2.add_gate(lib["one"], [], name="tie1")
        inv = figure2.add_gate(lib.inverter(), [tie], name="redundant")
        figure2.set_output("extra", inv)
        report = lint_netlist(figure2, select=["Q002"])
        assert [d.gate for d in report.diagnostics] == ["redundant"]

    def test_q003_double_inverter(self, figure2, lib):
        inv1 = figure2.add_gate(
            lib.inverter(), [figure2.gate("d")], name="inv1"
        )
        inv2 = figure2.add_gate(lib.inverter(), [inv1], name="inv2")
        figure2.set_output("slow", inv2)
        report = lint_netlist(figure2, select=["Q003"])
        (diag,) = report.diagnostics
        assert diag.gate == "inv2"
        assert "'d'" in diag.suggestion


class TestLibraryRules:
    def test_l001_unbound_cell(self, figure2):
        figure2.library = Library("empty")
        report = lint_netlist(figure2, select=["L001"])
        assert report.errors  # every logic gate's cell is now unknown
        assert all(d.rule_id == "L001" for d in report.errors)

    def test_l001_skipped_without_library(self, figure2):
        figure2.library = None
        assert lint_netlist(figure2, select=["L001"]).diagnostics == []

    def test_l002_drive_limit(self):
        weak_inv = Cell(
            "weak_inv", 1.0, "O", "!A",
            [Pin("A", load=1.0, max_load=0.5)],
        )
        nl = Netlist("weak")
        a = nl.add_input("a")
        inv = nl.add_gate(weak_inv, [a], name="inv")
        nl.set_output("o", inv, load=2.0)  # 2.0 > max_load 0.5
        report = lint_netlist(nl, select=["L002"])
        (diag,) = report.diagnostics
        assert diag.severity == Severity.WARNING
        assert diag.gate == "inv"


class TestPowerRules:
    def test_p001_out_of_range(self, figure2):
        probs = {name: 0.5 for name in figure2.gates}
        probs["d"] = 1.5
        report = lint_netlist(
            figure2, select=["P001"], probabilities=probs
        )
        (diag,) = report.errors
        assert diag.gate == "d"

    def test_p001_nan(self, figure2):
        probs = {"d": float("nan")}
        report = lint_netlist(figure2, probabilities=probs)
        assert "P001" in rule_ids(report)

    def test_p001_skipped_without_probabilities(self, figure2):
        assert lint_netlist(figure2, select=["P001"]).diagnostics == []


def lint_with_facts(netlist, rule_id):
    """``rule_id``'s findings on ``netlist``'s fact base, by gate."""
    facts = AnalysisSuite(netlist).facts
    report = lint_netlist(netlist, select=[rule_id], facts=facts)
    return facts, {d.gate: d.message for d in report.diagnostics}


class TestAnalysisRules:
    """One hand-built netlist per S-rule: the finding, its proof tag,
    and the rule's documented exemptions."""

    def test_s001_reconvergent_constant_and_tie_exemption(self, lib):
        b = NetlistBuilder(lib, "s001")
        x, y = b.inputs("x", "y")
        tie = b.cell_gate("zero", name="k0")
        g = b.or_(x, b.not_(x, name="nx"), name="g")  # OR(x, !x) == 1
        b.output("z", b.and_(g, y, name="out"))
        b.output("w", b.or_(y, tie, name="h"))  # OR(y, 0) == y
        facts, found = lint_with_facts(b.build(), "S001")
        assert "k0" in {fact.name for fact in facts.constants}
        assert set(found) == {"g"}  # the tie cell is constant by design
        assert "always outputs 1 (proof: sat)" in found["g"]

    def test_s002_dead_and_blocked_cones(self, lib):
        b = NetlistBuilder(lib, "s002")
        x, y = b.inputs("x", "y")
        b.not_(x, name="dead1")
        zero = b.cell_gate("zero", name="k0")
        g = b.xor_(x, y, name="g")
        masked = b.and_(g, zero, name="masked")  # AND(g, 0): g is blocked
        b.output("z", b.or_(masked, x, name="out"))
        _facts, found = lint_with_facts(b.build(), "S002")
        assert "no structural path" in found["dead1"]
        assert "(proof: structural)" in found["dead1"]
        assert "every path to a primary output is blocked" in found["g"]
        assert "(proof: sat)" in found["g"]
        assert "out" not in found and "x" not in found

    def test_s002_flip_cancelled_by_reconvergence(self, lib):
        # z = XOR(g, BUF(g)) is 0 for every input, and flipping g flips
        # both XOR pins at once, so g (and y, which reaches the outputs
        # only through g) never changes `out`, although no side input
        # of any path is a constant.
        b = NetlistBuilder(lib, "s002r")
        x, y = b.inputs("x", "y")
        g = b.and_(x, y, name="g")
        buf = b.cell_gate("buf1", g, name="b")
        z = b.xor_(g, buf, name="z")
        b.output("o", b.or_(z, x, name="out"))
        _facts, found = lint_with_facts(b.build(), "S002")
        assert set(found) == {"g", "y"}
        for name in ("g", "y"):
            assert "blocked (proof: sat)" in found[name]

    def test_s003_duplicates_with_phase_exemptions(self, lib):
        b = NetlistBuilder(lib, "s003")
        x, y = b.inputs("x", "y")
        g1 = b.and_(x, y, name="g1")
        g2 = b.and_(x, y, name="g2")  # structural duplicate of g1
        g3 = b.nand_(x, y, name="g3")  # complement of g1
        ax = b.not_(x, name="ax")  # class {ax, x}: x is a primary input
        zy = b.not_(y, name="zy")  # class {y, zy}: zy is a lone INV of y
        for index, gate in enumerate((g1, g2, g3, ax, zy)):
            b.output(f"o{index}", gate)
        facts, found = lint_with_facts(b.build(), "S003")
        members = {
            name for cls in facts.equivalences for name in cls.members
        }
        assert {"ax", "x", "y", "zy"} <= members
        assert set(found) == {"g2", "g3"}
        assert "duplicate of 'g1' (proof: structural)" in found["g2"]
        assert "complement of 'g1' (proof: sat)" in found["g3"]

    def test_s004_chain_depth_two_fires_depth_one_does_not(self, lib):
        b = NetlistBuilder(lib, "s004")
        x, y = b.inputs("x", "y")
        n1 = b.not_(x, name="n1")
        n2 = b.not_(n1, name="n2")
        b.output("z1", b.and_(n1, y, name="g"))
        b.output("z2", b.or_(n2, y, name="h"))
        facts, found = lint_with_facts(b.build(), "S004")
        assert {fact.name: fact.depth for fact in facts.phases} == {
            "n1": 1, "n2": 2
        }
        assert set(found) == {"n2"}
        assert "depth-2 inverter/buffer chain over 'x' (same-phase)" in (
            found["n2"]
        )


class TestRegistryAndSelection:
    def test_catalog_is_sorted_and_unique(self):
        ids = [row[0] for row in rule_catalog()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert {"N001", "N005", "N008", "Q001", "L001", "P001"} <= set(ids)

    def test_unknown_rule_id_raises(self):
        with pytest.raises(LintError):
            get_rule("Z999")
        with pytest.raises(LintError):
            resolve_rules(select=["N001", "Z999"])

    def test_ignore_suppresses(self, figure2, lib):
        b = figure2.gate("b")
        figure2.add_gate(lib.inverter(), [b], name="dead")
        assert rule_ids(lint_netlist(figure2)) == {"Q001"}
        assert lint_netlist(figure2, ignore=["Q001"]).diagnostics == []

    def test_severity_parsing(self):
        assert Severity.from_name("ERROR") is Severity.ERROR
        assert Severity.from_name("warning") is Severity.WARNING
        with pytest.raises(LintError):
            Severity.from_name("fatal")

    def test_every_rule_has_metadata(self):
        for rule in all_rules():
            assert rule.id and rule.title
            assert isinstance(rule.severity, Severity)


class TestReportFormats:
    def test_text_format_names_rule_and_location(self, figure2):
        d = figure2.gate("d")
        e = figure2.gate("e")
        d.fanouts.append((e, 0))
        text = lint_netlist(figure2).format_text()
        assert "N005" in text
        assert "d.0" in text

    def test_json_format_round_trips(self, figure2):
        d = figure2.gate("d")
        e = figure2.gate("e")
        d.fanouts.append((e, 0))
        payload = json.loads(lint_netlist(figure2).format_json())
        assert payload["netlist"] == "fig2"
        assert payload["counts"]["error"] >= 1
        (diag,) = [
            d for d in payload["diagnostics"] if d["rule"] == "N005"
        ]
        assert diag["gate"] == "d"
        assert diag["pin"] == 0
        assert diag["severity"] == "error"


class TestCheckNetlistWrapper:
    def test_raises_with_rule_id(self, figure2):
        d = figure2.gate("d")
        f = figure2.gate("f")
        d.fanouts.remove((f, 0))
        with pytest.raises(NetlistError, match=r"\[N005\]"):
            check_netlist(figure2)

    def test_warnings_do_not_raise(self, figure2, lib):
        figure2.add_gate(lib.inverter(), [figure2.gate("b")], name="dead")
        check_netlist(figure2)  # Q001 is warning severity; wrapper ignores
