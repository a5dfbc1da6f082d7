"""Static analysis: a fixed-point dataflow engine plus builtin analyses.

The package has three layers:

- :mod:`repro.analysis.lattice` / :mod:`repro.analysis.engine` — the
  reusable machinery: explicit lattices (bottom / join / widening) and a
  worklist solver prioritised by the topological levels the packed
  kernels already compute.
- the builtin analyses — ternary constant propagation
  (:mod:`~repro.analysis.constants`), a static observability
  approximation (:mod:`~repro.analysis.observability`), phase/parity
  tracking through inverter chains (:mod:`~repro.analysis.phase`), and
  functional-equivalence classes (:mod:`~repro.analysis.equivalence`).
  Each follows the two-tier recipe of "Simulation-Guided Boolean
  Resubstitution": cheap approximate facts (dataflow / simulation
  signatures) filtered by SAT confirmation, so every emitted fact is
  *proven*, not heuristic.
- :class:`~repro.analysis.suite.AnalysisSuite` — the facade consumers
  use: it owns the shared simulation state and SAT oracle, and caches
  the fact base per structural netlist state.

Soundness contract: every fact in a :class:`~repro.analysis.facts.
NetlistFacts` holds for *all* input assignments of the netlist it was
computed on.  ``powder analyze --check-soundness`` (and the Hypothesis
suite in ``tests/analysis``) re-derive each fact from exhaustive
simulation or a fresh SAT instance.
"""

from repro.analysis.engine import DataflowAnalysis, DataflowEngine
from repro.analysis.facts import (
    ConstantFact,
    EquivClass,
    NetlistFacts,
    PhaseFact,
    UnobservableFact,
)
from repro.analysis.lattice import FlatLattice, Lattice, TernaryLattice
from repro.analysis.suite import AnalysisSuite

__all__ = [
    "AnalysisSuite",
    "ConstantFact",
    "DataflowAnalysis",
    "DataflowEngine",
    "EquivClass",
    "FlatLattice",
    "Lattice",
    "NetlistFacts",
    "PhaseFact",
    "TernaryLattice",
    "UnobservableFact",
]
