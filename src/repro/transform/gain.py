"""Power-gain analysis of substitutions (paper §3.3, eqs. 2-5).

The gain of a move decomposes into:

- ``PG_A`` — the dominated region of the substituted signal dies (always a
  gain; computable with *no* re-estimation),
- ``PG_B`` — the substituting signal(s) pick up new fanout load (always a
  cost; no re-estimation),
- ``PG_C`` — the global functions in the substituted signal's transitive
  fanout change, so their activities must be re-estimated (either sign; the
  paper notes it can dominate).

``quick_gain`` returns ``PG_A + PG_B`` for the cheap pre-selection;
``full_gain`` adds ``PG_C`` via a forced-value overlay simulation of exactly
the TFO region, without touching the committed simulation state.  When the
estimator's probability engine is the bit-parallel simulator, ``full_gain``
predicts the post-move estimator total *exactly* (same pattern sample).
The overlay runs on Python-int pattern sets, and ``PG_C`` sums its terms
in packed (topological) index order, so the float total does not depend
on the process's string-hash seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.kernels.bits import evaluate_cell_bits
from repro.kernels.packed import PackedCircuit, packed_view
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.simulate import SimState
from repro.netlist.traverse import region_inputs
from repro.power.estimate import PowerEstimator, transition_probability
from repro.power.probability import SimulationProbability
from repro.transform.substitution import IS2, IS3, OS2, OS3, Substitution


@dataclass
class GainBreakdown:
    """The PG_A/PG_B/PG_C decomposition of one substitution's power gain."""

    pg_a: float
    pg_b: float
    pg_c: float = 0.0
    includes_pg_c: bool = False
    area_delta: float = 0.0  # predicted net area change (negative = smaller)
    dying: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.pg_a + self.pg_b + self.pg_c

    @property
    def quick(self) -> float:
        return self.pg_a + self.pg_b


# ----------------------------------------------------------------------
# Dying-region prediction
# ----------------------------------------------------------------------
def predict_dying_region(
    netlist: Netlist,
    substitution: Substitution,
    dead: Sequence[Gate] = (),
) -> list[Gate]:
    """Gates that die when the move is applied (the paper's ``Dom(a)``).

    For output substitutions this is the target's maximum fanout-free cone,
    except that the gates the move hangs its load on survive: the sources
    (which gain fanout), the tie gate a constant move reuses, and their
    transitive fanins.  For input substitutions the region is empty unless
    the rewired branch was the target's only fanout.

    ``dead`` lists gates that reach no primary output and still reach none
    after the move (the dead logic of a netlist never swept).  They die
    too and seed the growth; an input substitution's target then also dies
    when its other branches all lead into them.
    """
    target = netlist.gate(substitution.target)
    if target.is_input:
        dies = False
    elif substitution.is_output_substitution():
        dies = True
    else:
        sink_name, moved_pin = substitution.branch
        dies = not target.po_names and all(
            sink in dead
            for sink, pin in target.fanouts
            if sink.name != sink_name or pin != moved_pin
        )
    if not dies and not dead:
        return []
    keep_ids = {id(netlist.gate(s)) for s in substitution.source_names()}
    tie = substitution.reused_tie(netlist)
    if tie is not None:
        keep_ids.add(id(tie))
    seeds = list(dead)
    if dies and id(target) not in keep_ids:
        seeds.insert(0, target)
    return _grow_region(netlist, seeds, keep_ids)


def _grow_region(
    netlist: Netlist, seeds: list[Gate], keep_ids: set[int]
) -> list[Gate]:
    """``seeds`` plus, transitively, every gate whose branches all lead
    into the region, except primary inputs, gates driving a primary output
    and gates in ``keep_ids``."""
    region: list[Gate] = list(seeds)
    region_ids = {id(g) for g in region}
    changed = True
    while changed:
        changed = False
        candidates: dict[int, Gate] = {}
        for gate in region:
            for fanin in gate.fanins:
                if (
                    not fanin.is_input
                    and id(fanin) not in region_ids
                    and id(fanin) not in keep_ids
                ):
                    candidates[id(fanin)] = fanin
        for gate in candidates.values():
            if gate.po_names:
                continue
            if all(id(sink) in region_ids for sink, _pin in gate.fanouts):
                region.append(gate)
                region_ids.add(id(gate))
                changed = True
    return region


def dominated_region(netlist: Netlist, target: Gate) -> list[Gate]:
    """The unconstrained dying region of an output substitution of ``target``.

    Equal to :func:`predict_dying_region` for any output substitution by
    sources outside this region (the keep set then never binds, so the
    growth is identical step for step).  Candidate generation computes it
    once per target and shares it across the whole OS3 pair table.
    """
    if target.is_input:
        return []
    return _grow_region(netlist, [target], set())


def _branch_load(netlist: Netlist, substitution: Substitution) -> float:
    """Capacitance of the substituted branch pin (IS2/IS3)."""
    sink_name, pin = substitution.branch
    sink = netlist.gate(sink_name)
    return sink.cell.pins[pin].load


def _moved_load(netlist: Netlist, substitution: Substitution) -> float:
    """Capacitance transferred onto the substituting signal."""
    if substitution.is_output_substitution():
        return netlist.load_of(netlist.gate(substitution.target))
    return _branch_load(netlist, substitution)


# ----------------------------------------------------------------------
# PG_A and PG_B (no re-estimation, §3.3)
# ----------------------------------------------------------------------
def _pg_a(
    estimator: PowerEstimator,
    substitution: Substitution,
    region: list[Gate],
) -> float:
    netlist = estimator.netlist
    if not substitution.is_output_substitution() and not region:
        # Pure branch rewiring: only the branch load leaves the target stem.
        target = netlist.gate(substitution.target)
        return _branch_load(netlist, substitution) * estimator.activity(target)
    return region_power(estimator, region)


def region_power(estimator: PowerEstimator, region: list[Gate]) -> float:
    """Power released when ``region`` dies: its own contributions plus the
    load its gates present to surviving fanins (the ``PG_A`` sum)."""
    netlist = estimator.netlist
    total = 0.0
    for gate in region:
        total += estimator.contribution(gate)
    region_ids = {id(g) for g in region}
    for outside in region_inputs(netlist, region):
        load_into_region = sum(
            sink.cell.pins[pin].load
            for sink, pin in outside.fanouts
            if id(sink) in region_ids
        )
        total += load_into_region * estimator.activity(outside)
    return total


def _new_signal_bits(
    sim: SimState, netlist: Netlist, substitution: Substitution
) -> int:
    """Pattern int of the substituting signal (after inversions / new gate)."""
    full = sim.full
    if substitution.is_constant:
        return full if substitution.constant else 0
    bits1 = sim.value(substitution.source1)
    if substitution.invert1:
        bits1 ^= full
    if substitution.kind in (OS2, IS2):
        return bits1
    bits2 = sim.value(substitution.source2)
    if substitution.invert2:
        bits2 ^= full
    cell = netlist.library[substitution.new_cell]
    return evaluate_cell_bits(cell, [bits1, bits2], full)


def _source_activity(
    estimator: PowerEstimator, name: str
) -> float:
    # E(!b) == E(b): activity is symmetric in the signal probability.
    return estimator.activity(estimator.netlist.gate(name))


def _new_signal_activity(
    estimator: PowerEstimator, substitution: Substitution
) -> float:
    """Activity of the inserted OS3/IS3 gate's output."""
    netlist = estimator.netlist
    engine = estimator.engine
    sim_next = getattr(engine, "sim_next", None)
    if isinstance(engine, SimulationProbability) and sim_next is not None:
        # Temporal pair engine: measure the new signal's toggles directly.
        bits_t = _new_signal_bits(engine.sim, netlist, substitution)
        bits_t1 = _new_signal_bits(sim_next, netlist, substitution)
        return (bits_t ^ bits_t1).bit_count() / engine.sim.num_patterns
    if isinstance(engine, SimulationProbability):
        bits = _new_signal_bits(engine.sim, netlist, substitution)
        p = bits.bit_count() / engine.sim.num_patterns
    else:
        cell = netlist.library[substitution.new_cell]
        p1 = estimator.probability(netlist.gate(substitution.source1))
        p2 = estimator.probability(netlist.gate(substitution.source2))
        if substitution.invert1:
            p1 = 1.0 - p1
        if substitution.invert2:
            p2 = 1.0 - p2
        p = cell.function.onset_probability([p1, p2])
    return transition_probability(p)


def _pg_b(estimator: PowerEstimator, substitution: Substitution) -> float:
    netlist = estimator.netlist
    moved = _moved_load(netlist, substitution)
    library = netlist.library
    cost = 0.0
    if substitution.is_constant:
        # A tie cell never switches: the moved load costs nothing (E = 0).
        return 0.0
    if substitution.kind in (OS2, IS2):
        if substitution.invert1:
            # b drives a fresh inverter, which in turn drives the moved load.
            inv = library.inverter()
            cost += inv.pins[0].load * _source_activity(estimator, substitution.source1)
            cost += moved * _source_activity(estimator, substitution.source1)
        else:
            cost += moved * _source_activity(estimator, substitution.source1)
        return -cost
    # OS3/IS3: pin loads of the new gate, inverter chains, and the moved
    # load now driven by the new gate's output.
    cell = library[substitution.new_cell]
    inv = library.inverter()
    for pin_index, (source, inverted) in enumerate(
        ((substitution.source1, substitution.invert1),
         (substitution.source2, substitution.invert2))
    ):
        activity = _source_activity(estimator, source)
        if inverted:
            cost += inv.pins[0].load * activity
            cost += cell.pins[pin_index].load * activity
        else:
            cost += cell.pins[pin_index].load * activity
    cost += moved * _new_signal_activity(estimator, substitution)
    return -cost


def _area_delta(
    netlist: Netlist, substitution: Substitution, region: list[Gate]
) -> float:
    delta = -sum(g.cell.area for g in region if not g.is_input)
    library = netlist.library
    inversions = int(substitution.invert1) + (
        int(substitution.invert2) if substitution.kind in (OS3, IS3) else 0
    )
    if inversions and library is not None:
        delta += inversions * library.inverter().area
    if substitution.new_cell is not None:
        delta += library[substitution.new_cell].area
    if substitution.is_constant and substitution.reused_tie(netlist) is None:
        # A new tie gate must be instantiated.
        delta += library.constant(bool(substitution.constant)).area
    return delta


def quick_gain(
    estimator: PowerEstimator, substitution: Substitution
) -> GainBreakdown:
    """``PG_A + PG_B`` — the pre-selection metric (no re-estimation)."""
    netlist = estimator.netlist
    region = predict_dying_region(netlist, substitution)
    pg_a = _pg_a(estimator, substitution, region)
    pg_b = _pg_b(estimator, substitution)
    return GainBreakdown(
        pg_a=pg_a,
        pg_b=pg_b,
        area_delta=_area_delta(netlist, substitution, region),
        dying=[g.name for g in region],
    )


# ----------------------------------------------------------------------
# PG_C (TFO re-estimation, eq. 5)
# ----------------------------------------------------------------------
def _overlay_for(
    sim: SimState,
    packed: PackedCircuit,
    netlist: Netlist,
    substitution: Substitution,
) -> tuple[dict[int, int], Optional[int]]:
    """(forced-value overlay over the TFO, index to skip in the PG_C sum)."""
    new_bits = _new_signal_bits(sim, netlist, substitution)
    skip: Optional[int] = None
    if substitution.is_output_substitution():
        root = packed.index[substitution.target]
        forced = {root: new_bits}
        skip = root
    else:
        sink_name, pin = substitution.branch
        forced = {
            packed.index[sink_name]: sim.eval_with_pin(
                netlist.gate(sink_name), pin, new_bits
            )
        }
    return packed.propagate_overlay(sim.rows(), forced, sim.full), skip


def _pg_c(
    estimator: PowerEstimator,
    substitution: Substitution,
    region: list[Gate],
) -> float:
    engine = estimator.engine
    if not isinstance(engine, SimulationProbability):
        return 0.0  # other engines re-estimate only after application
    sim = engine.sim
    netlist = estimator.netlist
    packed = packed_view(netlist)
    overlay, skip = _overlay_for(sim, packed, netlist, substitution)
    sim_next = getattr(engine, "sim_next", None)
    overlay_next: dict[int, int] = {}
    if sim_next is not None:
        overlay_next, _ = _overlay_for(sim_next, packed, netlist, substitution)
        rows_next = sim_next.rows()
    rows = sim.rows()
    dying = {packed.index[g.name] for g in region}
    gain = 0.0
    total = sim.num_patterns
    # Packed index order is topological, so the float sum is the same in
    # every process (a name-keyed set would follow the string-hash seed).
    for i in sorted(overlay.keys() | overlay_next.keys()):
        if i == skip or i in dying:
            continue
        gate = packed.order[i]
        e_before = estimator.activity(gate)
        if sim_next is not None:
            toggles = overlay.get(i, rows[i]) ^ overlay_next.get(i, rows_next[i])
            e_after = toggles.bit_count() / total
        else:
            ones = overlay.get(i, rows[i]).bit_count()
            e_after = transition_probability(ones / total)
        gain += estimator.load(gate) * (e_before - e_after)
    return gain


def full_gain(
    estimator: PowerEstimator, substitution: Substitution
) -> GainBreakdown:
    """Complete ``PG_A + PG_B + PG_C`` breakdown (eq. 2)."""
    breakdown = quick_gain(estimator, substitution)
    region = [estimator.netlist.gate(n) for n in breakdown.dying]
    breakdown.pg_c = _pg_c(estimator, substitution, region)
    breakdown.includes_pg_c = True
    return breakdown
