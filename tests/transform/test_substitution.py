"""Tests for the substitution move model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransformError
from repro.library.standard import standard_library
from repro.netlist.verify import check_netlist
from repro.timing.analysis import TimingAnalysis
from repro.transform.permissible import TriageChecker, check_candidate
from repro.transform.substitution import (
    IS2,
    IS3,
    OS2,
    OS3,
    Substitution,
    apply_substitution,
    apply_to_copy,
)
from tests.conftest import make_random_netlist

LIB = standard_library()


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(TransformError):
            Substitution("XX2", "a", "b")

    def test_is2_needs_branch(self):
        with pytest.raises(TransformError):
            Substitution(IS2, "a", "b")

    def test_os2_rejects_branch(self):
        with pytest.raises(TransformError):
            Substitution(OS2, "a", "b", branch=("f", 0))

    def test_os3_needs_cell(self):
        with pytest.raises(TransformError):
            Substitution(OS3, "a", "b")

    def test_os2_rejects_second_source(self):
        with pytest.raises(TransformError):
            Substitution(OS2, "a", "b", source2="c", new_cell="and2")

    @pytest.mark.parametrize(
        "kind, source1, extra",
        [
            (OS2, "a", {}),  # no-op
            (OS2, "a", {"invert1": True}),  # the inverter on a feeds itself
            (OS3, "b", {"source2": "a", "new_cell": "nand2"}),  # loop
            (IS2, "a", {"branch": ("f", 0)}),  # no-op
        ],
    )
    def test_target_as_its_own_source_rejected(self, kind, source1, extra):
        with pytest.raises(TransformError):
            Substitution(kind, "a", source1, **extra)

    def test_inserted_gate_may_read_the_target(self):
        # The branch reads a new gate (inverter or IS3 cell) on the stem.
        Substitution(IS2, "a", "a", invert1=True, branch=("f", 0))
        Substitution(
            IS3, "a", "a", branch=("f", 0), source2="b", new_cell="and2"
        )

    def test_validate_against(self, figure2):
        good = Substitution(OS2, "d", "e")
        assert good.validate_against(figure2)
        assert not Substitution(OS2, "zz", "e").validate_against(figure2)
        assert not Substitution(OS2, "d", "zz").validate_against(figure2)

    def test_validate_branch(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        assert Substitution(
            IS2, "a", "e", branch=("d", pin)
        ).validate_against(figure2)
        # Wrong pin driver
        assert not Substitution(
            IS2, "b", "e", branch=("d", pin)
        ).validate_against(figure2)

    def test_validate_new_cell(self, figure2):
        assert not Substitution(
            OS3, "d", "a", source2="b", new_cell="nope"
        ).validate_against(figure2)

    def test_str_forms(self):
        assert "OS2" in str(Substitution(OS2, "a", "b"))
        assert "!" in str(Substitution(OS2, "a", "b", invert1=True))
        s = Substitution(IS3, "a", "b", branch=("f", 1), source2="c", new_cell="and2")
        assert "IS3" in str(s) and "and2" in str(s)


class TestApplication:
    def test_is2_rewires_branch(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        sub = Substitution(IS2, "a", "e", branch=("d", pin))
        applied = apply_substitution(figure2, sub)
        check_netlist(figure2)
        assert d.fanins[pin].name == "e"
        assert applied.removed == []
        assert "d" in applied.resim_roots

    def test_os2_removes_dominated_region(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        alt = builder.nand_(a, b, name="alt")
        out = builder.or_(g2, alt, name="out")
        builder.output("o", out)
        nl = builder.build()
        # g2 == alt functionally (nand == not and); substitute stem g2 by alt.
        applied = apply_substitution(nl, Substitution(OS2, "g2", "alt"))
        check_netlist(nl)
        assert set(applied.removed) == {"g1", "g2"}
        assert applied.area_delta < 0

    def test_os2_moves_po(self, figure2):
        apply_substitution(figure2, Substitution(OS2, "e", "d"))
        check_netlist(figure2)
        assert figure2.outputs["e_out"].name == "d"
        assert "e" not in figure2.gates

    def test_inverted_source_inserts_inverter(self, figure2, lib):
        sub = Substitution(OS2, "e", "d", invert1=True)
        applied = apply_substitution(figure2, sub)
        check_netlist(figure2)
        assert len(applied.added) == 1
        inv = figure2.gate(applied.added[0])
        assert inv.cell.is_inverter()
        assert inv.fanins[0].name == "d"

    def test_os3_inserts_gate(self, figure2, lib):
        sub = Substitution(OS3, "e", "a", source2="b", new_cell="and2")
        applied = apply_substitution(figure2, sub)
        check_netlist(figure2)
        new = figure2.gate(applied.added[0])
        assert new.cell.name == "and2"
        assert figure2.outputs["e_out"] is new

    def test_is3_inserts_gate(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        sub = Substitution(
            IS3, "a", "a", branch=("d", pin), source2="b", new_cell="and2"
        )
        applied = apply_substitution(figure2, sub)
        check_netlist(figure2)
        assert d.fanins[pin].cell.name == "and2"

    def test_stale_substitution_rejected(self, figure2):
        sub = Substitution(OS2, "d", "e")
        apply_substitution(figure2, sub)
        with pytest.raises(TransformError):
            apply_substitution(figure2, sub)  # d no longer exists

    def test_os3_cell_arity_checked(self, figure2):
        sub = Substitution(OS3, "d", "a", source2="b", new_cell="inv1")
        with pytest.raises(TransformError):
            apply_substitution(figure2, sub)

    def test_apply_to_copy_leaves_original(self, figure2):
        trial, applied = apply_to_copy(figure2, Substitution(OS2, "d", "e"))
        assert "d" in figure2.gates
        assert "d" not in trial.gates
        check_netlist(figure2)
        check_netlist(trial)


def chain_netlist(builder):
    """``t`` feeds ``u`` and ``u`` feeds ``v``: wiring ``v`` (or a gate
    reading it) in place of ``t`` closes a cycle."""
    a, b, c = builder.inputs("a", "b", "c")
    t = builder.and_(a, b, name="t")
    u = builder.or_(t, c, name="u")
    v = builder.xor_(u, a, name="v")
    builder.output("o", builder.nand_(t, v, name="w"))
    return builder.build()


#: Moves the legality rule rejects on :func:`chain_netlist`.  Each adds a
#: gate (an inverter, the OS3 cell) before it rewires, so only a check
#: before the first edit leaves the netlist untouched.
BLOCKED_MOVES = [
    Substitution(OS2, "t", "v", invert1=True),
    Substitution(IS2, "t", "v", invert1=True, branch=("u", 0)),
    Substitution(OS3, "t", "v", invert1=True, source2="c", new_cell="and2"),
    Substitution(OS3, "t", "a", invert1=True, source2="c", new_cell="inv1"),
]


def _state(netlist):
    return (
        sorted(netlist.gates),
        netlist.total_area(),
        netlist.structural_version,
        netlist.copy().fresh_name("powder_inv"),
    )


class TestRejectedMove:
    @pytest.mark.parametrize("sub", BLOCKED_MOVES, ids=str)
    def test_apply_leaves_the_netlist_untouched(self, builder, sub):
        netlist = chain_netlist(builder)
        before = _state(netlist)
        with pytest.raises(TransformError, match="cannot apply"):
            apply_substitution(netlist, sub)
        assert _state(netlist) == before
        check_netlist(netlist)

    @pytest.mark.parametrize("sub", BLOCKED_MOVES, ids=str)
    def test_every_layer_rejects_it(self, builder, sub):
        netlist = chain_netlist(builder)
        assert TimingAnalysis(netlist).what_if(sub) is None
        assert TriageChecker(netlist).check(sub).stage == "apply"
        assert check_candidate(netlist, sub).stage == "apply"
        assert sub.blocker(netlist) is not None


def _moves(netlist, rng, pair_samples):
    """Every OS2/IS2 tuple (inverted, constant, cycle-closing ones too)
    and a sample of OS3/IS3 tuples over 2-, 1- and 3-input cells."""
    names = list(netlist.gates)
    points = [(OS2, OS3, g.name, None) for g in netlist.logic_gates()] + [
        (IS2, IS3, g.name, (sink.name, pin))
        for g in netlist.gates.values()
        for sink, pin in g.fanouts
    ]
    moves = []
    for kind2, _kind3, target, branch in points:
        moves += [
            (kind2, target, "", dict(branch=branch, constant=value))
            for value in (0, 1)
        ]
        moves += [
            (kind2, target, source, dict(branch=branch, invert1=invert))
            for source in names
            for invert in (False, True)
        ]
    for _ in range(pair_samples):
        _kind2, kind3, target, branch = rng.choice(points)
        moves.append((kind3, target, rng.choice(names), dict(
            branch=branch,
            invert1=rng.random() < 0.5,
            source2=rng.choice(names),
            invert2=rng.random() < 0.5,
            new_cell=rng.choice(["and2", "nor2", "xor2", "inv1", "nand3"]),
        )))
    built = []
    for kind, target, source, extra in moves:
        try:
            built.append(Substitution(kind, target, source, **extra))
        except TransformError:
            continue  # a target named as its own source
    return built


class TestOneLegalityRule:
    """The rule rejects a move exactly when apply raises, triage answers
    stage ``"apply"`` and ``what_if`` answers ``None``."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_four_answers_agree(self, seed):
        netlist = make_random_netlist(LIB, 5, 12, 2, seed)
        timing = TimingAnalysis(netlist)
        triage = TriageChecker(netlist, num_patterns=64)
        seen = set()
        for sub in _moves(netlist, random.Random(seed), 60):
            reason = sub.blocker(netlist)
            try:
                apply_to_copy(netlist, sub)
                raised = False
            except TransformError:
                raised = True
            answers = (
                reason is not None,
                raised,
                triage.check(sub).stage == "apply",
                timing.what_if(sub) is None,
            )
            assert len(set(answers)) == 1, (str(sub), reason, answers)
            if reason is None or "cycle" in reason:
                # The one walk answers what would_create_cycle answers
                # over every source and rewired sink.
                sinks = (
                    [sink for sink, _pin in netlist.gate(sub.target).fanouts]
                    if sub.is_output_substitution()
                    else [netlist.gate(sub.branch[0])]
                )
                closes = any(
                    netlist.would_create_cycle(netlist.gate(source), sink)
                    for source in sub.source_names()
                    for sink in sinks
                )
                assert closes == (reason is not None), str(sub)
                seen.add("cycle" if reason else "legal")
            elif "2-input" in reason:
                seen.add("arity")
        assert seen == {"legal", "cycle", "arity"}
