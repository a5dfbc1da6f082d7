"""Micro-benchmarks of the substrates.

These time the building blocks the optimizer's inner loop lives on:
bit-parallel simulation, observability extraction, candidate generation,
the ATPG permissibility oracle, and technology mapping, plus the two
whole-circuit equivalence cross-checks (the CNF miter solved by the CDCL
solver, and global BDDs).  They are honest
pytest-benchmark measurements (multiple rounds), unlike the table benches
which run their experiment once.
"""

import pytest

from repro.atpg.fault import all_stem_faults
from repro.atpg.faultsim import fault_simulate
from repro.atpg.redundancy import generate_test
from repro.bench.suite import build_benchmark
from repro.equiv.checker import check_equivalent
from repro.library.standard import standard_library
from repro.netlist.simulate import SimState, random_patterns
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.synth.flow import build_subject_graph
from repro.synth.mapper import MapOptions, technology_map
from repro.transform.candidates import CandidateOptions, generate_candidates
from repro.bench.pla import random_pla


@pytest.fixture(scope="module")
def lib():
    return standard_library()


@pytest.fixture(scope="module")
def circuit(lib):
    return build_benchmark("alu2", lib)


@pytest.fixture(scope="module")
def sim(circuit):
    return SimState(circuit, random_patterns(circuit.input_names, 2048, seed=1))


def test_full_simulation(benchmark, sim):
    """2048-pattern full re-simulation of alu2."""
    benchmark(sim.resimulate_all)


def test_stem_observability(benchmark, circuit, sim):
    """Observability masks for every stem (candidate-generation kernel)."""
    gates = [g for g in circuit.logic_gates()]

    def run():
        for gate in gates:
            sim.stem_observability(gate)

    benchmark(run)


def test_fault_simulation(benchmark, circuit, sim):
    """Parallel-pattern fault simulation of all stem faults."""
    faults = all_stem_faults(circuit)
    benchmark(fault_simulate, sim, faults)


def test_sat_test_generation_full_fault_list(benchmark, circuit):
    """SAT stuck-at test generation over every stem fault of alu2."""
    faults = all_stem_faults(circuit)

    def run():
        detected = 0
        for fault in faults:
            if generate_test(circuit, fault).testable:
                detected += 1
        return detected

    detected = benchmark.pedantic(run, rounds=1, iterations=1)
    assert detected > 0


def test_equivalence_check(benchmark, circuit):
    """Every stage of the equivalence checker on a self-copy."""
    copy = circuit.copy("copy")
    result = benchmark.pedantic(
        check_equivalent, args=(circuit, copy), rounds=1, iterations=1
    )
    assert result.equal


def test_candidate_generation(benchmark, circuit):
    """One full candidate-generation round on alu2."""
    estimator = PowerEstimator(
        circuit, SimulationProbability(circuit, num_patterns=1024, seed=2)
    )
    candidates = benchmark.pedantic(
        generate_candidates,
        args=(estimator, CandidateOptions()),
        rounds=1,
        iterations=1,
    )
    assert candidates


class TestIncrementalEngine:
    """Old from-scratch paths vs the incremental engine, per circuit size.

    Pairs of benchmarks sharing a prefix measure the same work: the
    ``_fresh`` variant pays the full rebuild the legacy loop paid per
    round/move, the ``_incremental`` variant pays what the persistent
    engine pays.  ``BENCH_incremental.json`` records the measured ratios.
    A candidate round has no incremental variant: it rebuilds its masks
    and pair entries every round.
    """

    CIRCUITS = ("rd53", "alu2")

    @pytest.fixture(scope="class", params=CIRCUITS)
    def sized_circuit(self, request, lib):
        return build_benchmark(request.param, lib)

    @pytest.fixture(scope="class")
    def sized_estimator(self, sized_circuit):
        return PowerEstimator(
            sized_circuit,
            SimulationProbability(sized_circuit, num_patterns=1024, seed=2),
        )

    # -- observability ----------------------------------------------------
    # Both variants produce what one candidate round consumes: a stem mask
    # per driving stem plus a branch mask per branch of every multi-fanout
    # stem.  The legacy kernel pays one flip-propagation pass per mask.

    @staticmethod
    def _consumed_masks(circuit):
        stems = [
            g for g in circuit.gates.values()
            if not g.is_input and g.fanout_count()
        ]
        branches = [
            (sink, pin)
            for g in circuit.gates.values()
            if g.fanout_count() >= 2
            for sink, pin in g.fanouts
        ]
        return stems, branches

    def test_observability_per_stem(self, benchmark, sized_circuit, sized_estimator):
        """Legacy kernel: one flip-propagation pass per stem and branch."""
        state = sized_estimator.engine.sim
        stems, branches = self._consumed_masks(sized_circuit)

        def run():
            for gate in stems:
                state.stem_observability(gate)
            for sink, pin in branches:
                state.branch_observability(sink, pin)

        benchmark(run)

    def test_observability_batched(self, benchmark, sized_circuit, sized_estimator):
        """Batched kernel: one reverse sweep; branch masks are a by-product."""
        from repro.netlist.observability import ObservabilityMaps

        state = sized_estimator.engine.sim
        _stems, branches = self._consumed_masks(sized_circuit)

        def run():
            maps = ObservabilityMaps(state)
            for sink, pin in branches:
                maps.branch(sink, pin)
            return maps

        benchmark(run)

    # -- candidate generation ---------------------------------------------
    def test_candidates_fresh(self, benchmark, sized_estimator):
        """One candidate round; every round builds its state from scratch."""
        benchmark.pedantic(
            generate_candidates,
            args=(sized_estimator, CandidateOptions()),
            rounds=1,
            iterations=1,
        )

    # -- static timing analysis -------------------------------------------
    def test_sta_rebuild(self, benchmark, sized_circuit):
        """Legacy loop: full STA reconstruction after a move."""
        from repro.timing.analysis import TimingAnalysis

        benchmark(lambda: TimingAnalysis(sized_circuit).circuit_delay)

    def test_sta_incremental_update(self, benchmark, sized_circuit):
        """Incremental loop: in-place update for a one-gate dirty set."""
        from repro.timing.analysis import TimingAnalysis

        timing = TimingAnalysis(sized_circuit)
        root = next(iter(sized_circuit.logic_gates()))
        benchmark(lambda: timing.update_after_edit([root]))

    def test_delay_check_trial_copy(self, benchmark, sized_circuit, sized_estimator):
        """Legacy check_delay: copy the netlist, apply, rebuild STA."""
        from repro.timing.analysis import TimingAnalysis
        from repro.transform.substitution import apply_to_copy

        substitution = self._first_applicable(sized_circuit, sized_estimator)

        def run():
            trial, _ = apply_to_copy(sized_circuit, substitution)
            return TimingAnalysis(trial).circuit_delay

        benchmark(run)

    def test_delay_check_what_if(self, benchmark, sized_circuit, sized_estimator):
        """Incremental check_delay: in-place what-if evaluation."""
        from repro.timing.analysis import TimingAnalysis

        substitution = self._first_applicable(sized_circuit, sized_estimator)
        timing = TimingAnalysis(sized_circuit)
        verdict = benchmark(lambda: timing.what_if(substitution))
        assert verdict is not None

    @staticmethod
    def _first_applicable(circuit, estimator):
        from repro.errors import NetlistError, TransformError
        from repro.transform.substitution import apply_to_copy

        for candidate in generate_candidates(estimator, CandidateOptions()):
            try:
                apply_to_copy(circuit, candidate.substitution)
            except (TransformError, NetlistError):
                continue
            return candidate.substitution
        raise RuntimeError("no applicable candidate")


class TestTracingOverhead:
    """Telemetry cost: a traced run vs. the default untraced run.

    The untraced variant is the acceptance bar — with ``trace=None``
    every optimizer hook is a single attribute test, so this measures
    the instrumented loop's steady-state cost.  The traced variant bounds
    the full recording overhead (expected low single-digit percent).
    """

    @pytest.fixture(scope="class")
    def small_circuit(self, lib):
        return build_benchmark("rd53", lib)

    @staticmethod
    def _optimize(circuit, tracer):
        from repro.transform.optimizer import OptimizeOptions, power_optimize

        working = circuit.copy("bench_copy")
        options = OptimizeOptions(
            num_patterns=512, max_rounds=2, trace=tracer
        )
        return power_optimize(working, options)

    def test_optimize_untraced(self, benchmark, small_circuit):
        result = benchmark.pedantic(
            self._optimize, args=(small_circuit, None), rounds=3, iterations=1
        )
        assert result.trace is None

    def test_optimize_traced(self, benchmark, small_circuit):
        from repro.telemetry import Tracer

        result = benchmark.pedantic(
            lambda: self._optimize(small_circuit, Tracer()),
            rounds=3,
            iterations=1,
        )
        assert result.trace is not None and result.trace.moves


class TestPassManagerOverhead:
    """Pipeline cost vs driving the engine directly (ttt2).

    ``power_optimize`` runs the default pipeline through a
    ``PassManager``, which only times one ``powder`` stage around one
    engine run, so its overhead budget is <2% of the direct
    ``PowerOptimizer.run()`` wall time.
    """

    OVERHEAD_BUDGET = 0.02

    @pytest.fixture(scope="class")
    def ttt2(self, lib):
        return build_benchmark("ttt2", lib)

    @staticmethod
    def _options():
        from repro.transform.optimizer import OptimizeOptions

        return OptimizeOptions(num_patterns=512)

    def _direct(self, circuit):
        from repro.transform.optimizer import PowerOptimizer

        return PowerOptimizer(circuit.copy("direct"), self._options()).run()

    def _pipeline(self, circuit):
        from repro.transform.optimizer import power_optimize

        return power_optimize(circuit.copy("piped"), self._options())

    def test_engine_direct(self, benchmark, ttt2):
        result = benchmark.pedantic(
            self._direct, args=(ttt2,), rounds=3, iterations=1
        )
        assert result.moves

    def test_engine_via_pipeline(self, benchmark, ttt2):
        result = benchmark.pedantic(
            self._pipeline, args=(ttt2,), rounds=3, iterations=1
        )
        assert result.moves

    def test_overhead_within_budget(self, ttt2):
        import time

        def best_of(fn, rounds=3):
            best = float("inf")
            for _ in range(rounds):
                tick = time.perf_counter()
                result = fn(ttt2)
                best = min(best, time.perf_counter() - tick)
                assert result.moves
            return best

        direct = best_of(self._direct)
        piped = best_of(self._pipeline)
        # Best-of-3 de-noises; the 50ms absolute slack guards against
        # scheduler hiccups dominating on a fast run.
        assert piped <= direct * (1.0 + self.OVERHEAD_BUDGET) + 0.05, (
            f"pipeline run {piped:.3f}s vs direct {direct:.3f}s exceeds "
            f"the {self.OVERHEAD_BUDGET:.0%} PassManager overhead budget"
        )


def test_technology_mapping(benchmark, lib):
    """Synthesis front-end + mapper on a 40-cube PLA."""
    pla = random_pla("bench", 12, 8, 40, seed=77)
    graph = build_subject_graph(pla.input_names, pla.on, name="bench")

    def run():
        return technology_map(graph, lib, MapOptions(mode="power"))

    netlist = benchmark.pedantic(run, rounds=1, iterations=1)
    assert netlist.num_gates() > 0


def test_sat_oracle_equivalence(benchmark, circuit):
    """CNF miter solved by the CDCL solver on an alu2 self-copy (the
    checker's SAT stage alone)."""
    copy = circuit.copy("sat_copy")
    result = benchmark.pedantic(
        check_equivalent,
        args=(circuit, copy),
        kwargs={"num_patterns": 0, "bdd_node_limit": 0},
        rounds=1,
        iterations=1,
    )
    assert result.equal and result.stage == "sat"


def test_bdd_oracle_equivalence(benchmark, circuit):
    """Global-BDD comparison on an alu2 self-copy (the checker's BDD
    stage)."""
    from repro.equiv.checker import _bdd_verdict

    copy = circuit.copy("bdd_copy")
    result = benchmark.pedantic(
        _bdd_verdict, args=(circuit, copy, 2_000_000), rounds=1, iterations=1
    )
    assert result is not None and result.equal
