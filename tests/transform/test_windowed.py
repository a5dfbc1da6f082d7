"""Window-merge equivalence: the windowed optimizer must preserve
function on generated and golden circuits, agree with itself across
worker counts, schedule windows in generations no replay of which
touches another window of its generation, and never replay two moves
with overlapping dying regions (the crafted cases at the bottom pin the
schedule and the touch check behind it).
"""

from __future__ import annotations

import multiprocessing
from collections import Counter

import pytest

from repro.bench.suite import build_benchmark
from repro.equiv.checker import check_equivalent
from repro.errors import TransformError
from repro.fuzz.generator import SHAPES, GeneratorConfig, random_mapped_netlist
from repro.fuzz.oracle import check_equivalence_tiers, cross_check_metrics
from repro.library.standard import standard_library
from repro.netlist.blif import write_blif
from repro.partition import Window, extract_window, recompute_boundary
from repro.pipeline.manager import run_pipeline
from repro.transform.optimizer import (
    OptimizeOptions,
    PowerOptimizer,
    power_optimize,
)
from repro.transform.report import MoveRecord
from repro.transform.substitution import Substitution
from repro.transform.windowed import WindowedOptimizer, WindowOutcome

LIB = standard_library()


def generated(seed, gates, shape="random"):
    config = GeneratorConfig(
        seed=seed,
        shape=shape,
        min_gates=gates,
        max_gates=gates,
        min_inputs=5,
        max_inputs=8,
    )
    return random_mapped_netlist(config, LIB)


def windowed_options(**overrides):
    base = dict(
        windowed=True,
        num_patterns=512,
        window_size=30,
        window_radius=2,
        jobs=1,
    )
    base.update(overrides)
    return OptimizeOptions(**base)


def assert_oracle_clean(reference, result, options):
    report = check_equivalence_tiers(reference, result.netlist)
    assert report.equal, report.disagreements
    assert cross_check_metrics(result, options) == []


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_generated_circuits_stay_equivalent(self, seed):
        netlist = generated(seed, gates=90)
        reference = netlist.copy("ref")
        options = windowed_options()
        result = power_optimize(netlist, options)
        assert result.netlist is netlist
        assert result.rounds >= 2, "window_size must force a real partition"
        assert_oracle_clean(reference, result, options)

    @pytest.mark.parametrize("shape", ["reconvergent", "high_fanout"])
    def test_stress_shapes_stay_equivalent(self, shape):
        netlist = generated(5, gates=70, shape=shape)
        reference = netlist.copy("ref")
        options = windowed_options(window_size=20)
        result = power_optimize(netlist, options)
        assert_oracle_clean(reference, result, options)

    @pytest.mark.parametrize("name", ["rd53", "misex1"])
    def test_golden_circuits_stay_equivalent(self, name):
        netlist = build_benchmark(name, LIB)
        reference = netlist.copy("ref")
        options = windowed_options(window_size=25)
        result = power_optimize(netlist, options)
        assert_oracle_clean(reference, result, options)

    def test_builtin_verify_pass_and_metrics_from_scratch(self):
        netlist = generated(3, gates=60)
        reference = netlist.copy("ref")
        options = windowed_options()
        result = power_optimize(netlist, options)
        assert check_equivalent(reference, netlist).equal
        # The report's final figures must match a cold rebuild (they are
        # recomputed, never accumulated from window-local estimates).
        assert cross_check_metrics(result, options) == []
        assert result.phase_seconds["metrics"] >= 0.0


class TestWorkerCountInvariance:
    def test_single_window_replays_flat_optimizer_exactly(self):
        """One all-covering window is an identity transport: no synthetic
        POs, boundary inputs are the real PIs in parent order, so the
        windowed flow must reproduce the sequential run bit for bit."""
        flat = generated(41, gates=40)
        win = generated(41, gates=40)
        options = OptimizeOptions(num_patterns=512)
        result_flat = PowerOptimizer(flat, options).run()
        result_win = power_optimize(
            win,
            windowed_options(
                num_patterns=512, window_size=10_000, window_radius=10_000
            ),
        )
        flat_ids = [m.substitution.candidate_id() for m in result_flat.moves]
        win_ids = [m.substitution.candidate_id() for m in result_win.moves]
        assert win_ids == flat_ids
        assert write_blif(win) == write_blif(flat)

    def test_one_worker_matches_pool_of_two(self):
        options_a = windowed_options(jobs=1)
        options_b = windowed_options(jobs=2)
        first = generated(83, gates=80)
        second = generated(83, gates=80)  # same seed -> identical twin
        result_a = power_optimize(first, options_a)
        result_b = power_optimize(second, options_b)
        moves_a = [m.substitution.candidate_id() for m in result_a.moves]
        moves_b = [m.substitution.candidate_id() for m in result_b.moves]
        assert moves_a == moves_b
        assert write_blif(result_a.netlist) == write_blif(result_b.netlist)
        assert result_a.final_power == pytest.approx(result_b.final_power)

    def test_one_worker_matches_pool_of_two_over_generations(self):
        first = generated(83, gates=80)
        second = generated(83, gates=80)
        optimizer_a = WindowedOptimizer(first, windowed_options(window_size=15))
        optimizer_b = WindowedOptimizer(
            second, windowed_options(window_size=15, jobs=2)
        )
        result_a = optimizer_a.run()
        result_b = optimizer_b.run()
        assert optimizer_a.generations >= 3
        assert [o.generation for o in optimizer_a.outcomes] == [
            o.generation for o in optimizer_b.outcomes
        ]
        moves_a = [m.substitution.candidate_id() for m in result_a.moves]
        moves_b = [m.substitution.candidate_id() for m in result_b.moves]
        assert moves_a == moves_b
        assert write_blif(first) == write_blif(second)

    def test_pool_spawn_time_reported_separately(self):
        netlist = generated(84, gates=60)
        options = windowed_options(jobs=2)
        optimizer = WindowedOptimizer(netlist, options)
        result = optimizer.run()
        phases = result.phase_seconds
        assert list(phases) == ["spawn", "partition", "optimize", "merge", "metrics"]
        assert phases["spawn"] > 0.0 and phases["optimize"] >= 0.0
        # The phases are disjoint intervals inside the run's total.
        assert sum(phases.values()) <= result.runtime_seconds


class RecordingOptimizer(WindowedOptimizer):
    """Log the window indices of every dispatched generation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatched = []

    def _dispatch(self, tasks):
        self.dispatched.append([task[0] for task in tasks])
        return super()._dispatch(tasks)


class TestGenerations:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_every_window_runs_in_one_conflict_free_generation(
        self, shape, seed
    ):
        config = GeneratorConfig(
            seed=seed,
            shape=shape,
            min_inputs=6,
            max_inputs=12,
            min_gates=60,
            max_gates=120,
        )
        netlist = random_mapped_netlist(config, LIB)
        reference = netlist.copy("ref")
        optimizer = RecordingOptimizer(
            netlist,
            windowed_options(
                num_patterns=64, window_size=15, window_radius=2, max_rounds=2
            ),
        )
        optimizer.run()

        assert optimizer.conflicts == []
        runs = Counter(index for batch in optimizer.dispatched for index in batch)
        assert set(runs.values()) == {1}
        for outcome in optimizer.outcomes:
            index = outcome.window.index
            if outcome.generation is None:
                assert index not in runs and outcome.status == "empty"
            else:
                assert index in optimizer.dispatched[outcome.generation]
        assert len(optimizer.dispatched) == optimizer.generations
        assert check_equivalent(reference, netlist).equal

    def test_window_pass_reports_generations(self):
        twin = generated(83, gates=80)
        optimizer = WindowedOptimizer(twin, windowed_options(window_size=15))
        optimizer.run()
        netlist = generated(83, gates=80)
        outcome = run_pipeline(
            netlist,
            "window(window_size=15, window_radius=2)",
            OptimizeOptions(num_patterns=512),
        )
        details = outcome.passes[0].details
        assert details["generations"] == optimizer.generations >= 3
        assert details["windows"] == len(optimizer.outcomes)
        assert write_blif(netlist) == write_blif(twin)


def conflict_netlist(builder):
    """g2 duplicates g1; their sink cones are disjoint otherwise."""
    a, b, c = builder.inputs("a", "b", "c")
    g1 = builder.and_(a, b, name="g1")
    g2 = builder.and_(a, b, name="g2")
    builder.output("o1", builder.nand_(g1, c, name="n1"))
    builder.output("o2", builder.nor_(g2, c, name="n2"))
    return builder.build()


def crafted_windows(netlist):
    """Two windows whose dying regions overlap on purpose.

    Window 0 will substitute g2 by g1 (killing g2); window 1's members
    include g2.  Neither window's reach meets the other's members, so
    they share a generation, and replaying window 0 must trip the touch
    check on window 1.
    """
    w0 = extract_window(
        netlist, netlist.gate("g1"), radius=1, max_gates=10, index=0
    )
    w1 = extract_window(
        netlist, netlist.gate("g2"), radius=1, max_gates=10, index=1
    )
    return [w0, w1]


def crafted_move(target, source, added=()):
    return MoveRecord(
        substitution=Substitution(kind="OS2", target=target, source1=source),
        predicted=None,
        measured_power_gain=0.0,
        measured_area_delta=0.0,
        round_index=1,
        circuit_delay_after=0.0,
        added=added,
    )


class InjectingOptimizer(WindowedOptimizer):
    """Answer each window's first dispatch with ``injected[index]``; a
    window dispatched again runs the real optimizer on its live export.

    The default answers make both windows of :func:`crafted_windows`
    'propose' a move on the shared duplicate pair, so their dying regions
    overlap exactly.
    """

    injected = {
        0: [crafted_move("g2", "g1")],
        1: [crafted_move("g1", "g2")],
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answers = dict(self.injected)

    def _dispatch(self, tasks):
        real = [task for task in tasks if task[0] not in self.answers]
        results = {item[0]: item for item in super()._dispatch(real)}
        for task in tasks:
            if task[0] in self.answers:
                results[task[0]] = (task[0], self.answers.pop(task[0]), {}, None)
        return [results[task[0]] for task in tasks]


class DeferRecordingOptimizer(InjectingOptimizer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fallback_calls = []

    def _reoptimize_deferred(self, outcome):
        self.fallback_calls.append(outcome.window.index)
        super()._reoptimize_deferred(outcome)


class TestConflictResolver:
    def test_overlapping_dying_regions_never_both_applied(
        self, builder, monkeypatch
    ):
        netlist = conflict_netlist(builder)
        reference = netlist.copy("ref")
        monkeypatch.setattr(
            "repro.transform.windowed.partition_windows",
            lambda n, radius, max_gates: crafted_windows(n),
        )
        optimizer = DeferRecordingOptimizer(netlist, windowed_options())
        result = optimizer.run()

        # Window 0 replayed: g2's dying region is gone, g1 survives.
        assert "g2" not in netlist.gates
        assert "g1" in netlist.gates
        # Window 1 shares g2 with the touched set -> requeued, and its
        # crafted counter-move (killing g1) was never replayed.
        assert optimizer.conflicts == [1]
        assert optimizer.fallback_calls == [1]
        assert [m.substitution.target for m in result.moves] == ["g2"]
        assert optimizer.outcomes[0].status == "applied"
        assert [o.generation for o in optimizer.outcomes] == [0, 1]
        assert check_equivalence_tiers(reference, netlist).equal

    def test_deferred_window_reoptimized_from_live_netlist(
        self, builder, monkeypatch
    ):
        netlist = conflict_netlist(builder)
        reference = netlist.copy("ref")
        monkeypatch.setattr(
            "repro.transform.windowed.partition_windows",
            lambda n, radius, max_gates: crafted_windows(n),
        )
        optimizer = InjectingOptimizer(netlist, windowed_options())
        result = optimizer.run()

        assert optimizer.conflicts == [1]
        # The next generation re-extracted window 1 from the merged
        # netlist, so no surviving move can reference the dead g2.
        for move in result.moves:
            sub = move.substitution
            assert sub.source1 != "g2"
            assert sub.source2 != "g2"
        assert optimizer.outcomes[1].status in ("applied", "empty")
        assert check_equivalence_tiers(reference, netlist).equal

    def test_disjoint_windows_all_merge_without_deferral(self):
        netlist = generated(91, gates=50)
        options = windowed_options(window_size=12)
        optimizer = WindowedOptimizer(netlist, options)
        optimizer.run()
        statuses = {o.status for o in optimizer.outcomes}
        assert statuses <= {"applied", "empty"}
        assert optimizer.conflicts == []


class PhantomNameOptimizer(InjectingOptimizer):
    """One window whose first move claims a fresh gate the full netlist's
    replay does not create (and no substituting gate), so its names
    cannot be translated; the second move is applicable but not
    permissible, so replaying it would break equivalence."""

    injected = {
        0: [
            crafted_move("g2", "g1", added=("phantom",)),
            crafted_move("n2", "n1"),
        ],
    }


class TestUntranslatableReplay:
    def test_move_recorded_and_window_stopped(self, builder, monkeypatch):
        netlist = conflict_netlist(builder)
        reference = netlist.copy("ref")
        monkeypatch.setattr(
            "repro.transform.windowed.partition_windows",
            lambda n, radius, max_gates: crafted_windows(n)[:1],
        )
        optimizer = PhantomNameOptimizer(netlist, windowed_options())
        result = optimizer.run()

        assert "g2" not in netlist.gates
        assert "n2" in netlist.gates  # the second move was not replayed
        outcome = optimizer.outcomes[0]
        assert outcome.replayed == 1
        assert [m.substitution.target for m in result.moves] == ["g2"]
        assert result.moves[0].added == ()
        assert outcome.status == "applied"
        assert check_equivalence_tiers(reference, netlist).equal


class TestCycleRejectedReplay:
    def test_rejected_move_leaves_nothing_behind(self, monkeypatch):
        # Window 0's second move replaces g3 by nor2(g22, g1), but the
        # full netlist reaches g22 from g3 through g4, a member whose
        # reader g22 lies outside the window.  The replay stops before
        # that move, and the nor2 it would have inserted never reaches
        # the netlist.
        netlist = generated(3, gates=30, shape="high_fanout")
        reference = netlist.copy("ref")
        rejected = []
        blocker = Substitution.blocker

        def recording_blocker(substitution, target):
            reason = blocker(substitution, target)
            if target is netlist and reason is not None:
                rejected.append((str(substitution), reason))
            return reason

        monkeypatch.setattr(Substitution, "blocker", recording_blocker)
        options = windowed_options(window_size=15)
        optimizer = WindowedOptimizer(netlist, options)
        result = optimizer.run()

        assert rejected == [(
            "OS3(g3 <- nor2(g22, g1))",
            "wiring in 'g22' closes a combinational cycle",
        )]
        stopped = [
            (o.window.index, o.replayed, len(o.moves))
            for o in optimizer.outcomes
            if o.replayed < len(o.moves)
        ]
        assert stopped == [(0, 1, 5)]
        assert [
            g.name for g in netlist.logic_gates() if not g.fanout_count()
        ] == []
        assert_oracle_clean(reference, result, options)


class TestTouchSet:
    def test_unchanged_readers_of_the_source_are_not_touched(self, builder):
        # OS2(t <- s) rewires u onto s.  r already read s and its inputs
        # did not change, so no other window's moves can be stale on r.
        a, b, c = builder.inputs("a", "b", "c")
        s = builder.and_(a, b, name="s")
        t = builder.and_(a, b, name="t")
        builder.output("o1", builder.nand_(s, c, name="r"))
        builder.output("o2", builder.nor_(t, c, name="u"))
        netlist = builder.build()
        optimizer = WindowedOptimizer(netlist, windowed_options())
        window = extract_window(netlist, netlist.gate("t"), radius=1, max_gates=10)
        outcome = WindowOutcome(window=window, moves=[crafted_move("t", "s")])
        touched = set()

        records = optimizer._replay(outcome, touched)

        assert [m.substitution.target for m in records] == ["t"]
        assert {"t", "u", "s"} <= touched
        assert "r" not in touched


def sweep_cone_netlist(builder):
    """x's only reader r duplicates y2; y drives x and n3, y3 duplicates y."""
    a, b, c = builder.inputs("a", "b", "c")
    y = builder.and_(a, b, name="y")
    x = builder.not_(y, name="x")
    r = builder.not_(x, name="r")
    y2 = builder.and_(a, b, name="y2")
    y3 = builder.and_(a, b, name="y3")
    builder.output("o1", builder.nand_(r, c, name="n1"))
    builder.output("o2", builder.nor_(y2, c, name="n2"))
    builder.output("o3", builder.nand_(y, c, name="n3"))
    builder.output("o4", builder.nor_(y3, c, name="n4"))
    return builder.build()


def window_of(netlist, index, names):
    members = [netlist.gate(name) for name in names]
    inputs, outputs = recompute_boundary(netlist, members)
    return Window(
        index=index,
        seeds=(names[0],),
        members=tuple(names),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        radius=1,
    )


class SweepConeOptimizer(InjectingOptimizer):
    """Window A (0) substitutes r by y2, which kills r and, in the full
    netlist, its input x; window B (1) substitutes y3 by y."""

    injected = {
        0: [crafted_move("r", "y2")],
        1: [crafted_move("y3", "y")],
    }


class TestSweepCone:
    """x is an input of A whose only reader is A's r, so the sweep after
    A's move removes x and shrinks the fanout of x's driver y, a member
    of B.  Only the sweep cone puts y in A's reach."""

    def run(self, builder, monkeypatch):
        netlist = sweep_cone_netlist(builder)
        reference = netlist.copy("ref")
        monkeypatch.setattr(
            "repro.transform.windowed.partition_windows",
            lambda n, radius, max_gates: [
                window_of(n, 0, ["y2", "r", "n1", "n2"]),
                window_of(n, 1, ["y", "y3", "n3", "n4"]),
            ],
        )
        optimizer = SweepConeOptimizer(netlist, windowed_options())
        result = optimizer.run()
        assert "x" not in netlist.gates
        assert check_equivalence_tiers(reference, netlist).equal
        return optimizer, result

    def test_dying_input_driver_splits_the_generations(
        self, builder, monkeypatch
    ):
        optimizer, result = self.run(builder, monkeypatch)
        assert [o.generation for o in optimizer.outcomes] == [0, 1]
        assert optimizer.conflicts == []
        assert [m.substitution.target for m in result.moves] == ["r", "y3"]

    def test_touch_check_fires_without_the_cone(self, builder, monkeypatch):
        monkeypatch.setattr(
            "repro.transform.windowed._sweep_cone",
            lambda netlist, members: set(),
        )
        optimizer, result = self.run(builder, monkeypatch)
        assert optimizer.conflicts == [1]
        assert [o.generation for o in optimizer.outcomes] == [0, 1]


class TestGuards:
    def test_requires_windowed_options(self):
        netlist = generated(1, gates=20)
        with pytest.raises(Exception, match="windowed=True"):
            WindowedOptimizer(netlist, OptimizeOptions())

    def test_flat_engine_rejects_windowed_options(self):
        netlist = generated(1, gates=20)
        with pytest.raises(TransformError, match="windowed=False"):
            PowerOptimizer(netlist, OptimizeOptions(windowed=True))

    def test_delay_constraints_rejected_up_front(self):
        with pytest.raises(ValueError, match="delay"):
            OptimizeOptions(windowed=True, delay_limit=5.0)

    def test_worker_error_raises_and_leaves_no_process(self, monkeypatch):
        class Broken:
            def __init__(self, netlist, options):
                pass

            def run(self):
                raise RuntimeError("boom")

        # Forked workers inherit the patched module global.
        monkeypatch.setattr("repro.transform.windowed.PowerOptimizer", Broken)
        netlist = generated(83, gates=80)
        optimizer = RecordingOptimizer(
            netlist, windowed_options(window_size=15, jobs=2)
        )
        with pytest.raises(TransformError, match="RuntimeError: boom"):
            optimizer.run()
        assert len(optimizer.dispatched[0]) > 1
        assert multiprocessing.active_children() == []
