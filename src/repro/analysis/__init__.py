"""Static analysis: proven whole-netlist facts, nominated by simulation.

Every fact follows the recipe of "Simulation-Guided Boolean
Resubstitution" and of POWDER's own candidate loop: packed simulation
nominates, an exact check proves.

- :class:`~repro.analysis.suite.AnalysisSuite` — the facade consumers
  use: it owns the simulation state and SAT oracle, builds the fact
  base in one nominate → prove pass (constants from flat signatures,
  unobservables from zero observability masks or a missing path to an
  output, phases from one walk over BUF/INV cells) and caches it per
  structural netlist state.
- :func:`~repro.analysis.equivalence.find_equivalences` — functional
  equivalence classes from signature buckets and structural hashing.
- :class:`~repro.analysis.oracle.FactOracle` — the incremental SAT
  queries that promote a candidate to a fact.

Soundness contract: every fact in a :class:`~repro.analysis.facts.
NetlistFacts` holds for *all* input assignments of the netlist it was
computed on.  ``powder analyze --check-soundness`` (and the Hypothesis
suite in ``tests/analysis``) re-derive each fact from exhaustive
simulation or a fresh SAT instance.
"""

from repro.analysis.facts import (
    ConstantFact,
    EquivClass,
    NetlistFacts,
    PhaseFact,
    UnobservableFact,
)
from repro.analysis.suite import AnalysisSuite

__all__ = [
    "AnalysisSuite",
    "ConstantFact",
    "EquivClass",
    "NetlistFacts",
    "PhaseFact",
    "UnobservableFact",
]
