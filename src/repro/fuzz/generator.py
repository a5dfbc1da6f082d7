"""Seeded random mapped-netlist generation.

The fuzz harness needs circuits that look like mapper output — every gate a
library cell, no dangling logic, no structural damage — but with far more
variety than the bundled benchmarks.  :func:`random_mapped_netlist` grows a
DAG over the standard library under a :class:`GeneratorConfig`:

- ``shape="random"`` — unbiased DAG growth; ``locality`` steers depth
  (high locality chains recent stems into deep logic, low locality gives
  wide shallow cones),
- ``shape="reconvergent"`` — explicit fan-out/reconverge diamonds: one
  stem feeds two disjoint gates that re-join downstream.  These produce
  observability don't-cares, the substrate of every OS2/IS2 move, and
  the redundant stuck-at faults that are hardest to prove untestable,
- ``shape="high_fanout"`` — a few hub stems drive many branches, the IS2
  per-branch substitution playground,
- ``shape="inverter_chain"`` — inverter ladders riding on random stems,
  which OS2-with-inversion and the Q003 cleanup rules feed on.

Generation is deterministic: the same config always yields the same
netlist, gate names included (asserted by the test-suite through BLIF
round-trips).  Emitted netlists are lint-clean at error severity — shapes
may deliberately contain *warnings* (an inverter chain is a Q003 finding
by construction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ReproError
from repro.library.cell import Cell, Library
from repro.library.standard import standard_library
from repro.netlist.netlist import Gate, Netlist

#: Recognized circuit shapes, in batch rotation order.  ``large`` is
#: deliberately NOT in this tuple: batches rotate through these shapes by
#: index, so adding one would silently reshuffle every fixed-seed CI
#: batch, and a default-size campaign has no business generating 50k-gate
#: circuits.  Request it explicitly (``shape="large"`` /
#: :func:`large_config`).
SHAPES = ("random", "reconvergent", "high_fanout", "inverter_chain")

#: Every shape a :class:`GeneratorConfig` accepts, opt-in ones included.
ALL_SHAPES = SHAPES + ("large",)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of one generated circuit (fully determines it)."""

    seed: int = 0
    shape: str = "random"
    min_inputs: int = 3
    max_inputs: int = 8
    min_gates: int = 6
    max_gates: int = 24
    #: Largest cell arity used (the standard library has 1-4 input cells).
    max_arity: int = 4
    #: Probability that a fanin is drawn from the most recent stems; high
    #: values grow deep, narrow logic, low values shallow, wide logic.
    locality: float = 0.5
    #: ``high_fanout`` shape: number of hub stems and the probability that
    #: a gate taps a hub.
    hubs: int = 2
    hub_bias: float = 0.7
    #: Optional fixed model name (default ``fuzz_<shape>_s<seed>``).
    name: Optional[str] = None

    def __post_init__(self):
        if self.shape not in ALL_SHAPES:
            raise ReproError(
                f"unknown generator shape {self.shape!r}; pick from {ALL_SHAPES}"
            )
        if not 1 <= self.min_inputs <= self.max_inputs:
            raise ReproError("need 1 <= min_inputs <= max_inputs")
        if not 1 <= self.min_gates <= self.max_gates:
            raise ReproError("need 1 <= min_gates <= max_gates")
        if not 2 <= self.max_arity <= 4:
            raise ReproError("max_arity must be between 2 and 4")

    @property
    def model_name(self) -> str:
        return self.name or f"fuzz_{self.shape}_s{self.seed}"


def batch_configs(base: GeneratorConfig, count: int) -> list[GeneratorConfig]:
    """``count`` configs derived from ``base``: seeds advance, shapes rotate."""
    return [
        replace(
            base,
            seed=base.seed + index,
            shape=SHAPES[index % len(SHAPES)],
            name=None,
        )
        for index in range(count)
    ]


@dataclass
class _Growth:
    """Mutable state of one generation run."""

    rng: random.Random
    netlist: Netlist
    library: Library
    config: GeneratorConfig
    signals: list[Gate] = field(default_factory=list)
    #: Stems not yet consumed by any sink (candidates for fanins/outputs).
    unused: list[Gate] = field(default_factory=list)
    counter: int = 0

    def fresh(self, prefix: str = "g") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def add(self, cell: Cell, fanins: list[Gate], prefix: str = "g") -> Gate:
        gate = self.netlist.add_gate(cell, fanins, name=self.fresh(prefix))
        for fanin in fanins:
            if fanin in self.unused:
                self.unused.remove(fanin)
        self.signals.append(gate)
        self.unused.append(gate)
        return gate

    # ------------------------------------------------------------------
    def pick_signal(self, avoid: tuple[Gate, ...] = ()) -> Gate:
        """One fanin candidate: recent with ``locality``, unused preferred."""
        rng = self.rng
        pool: list[Gate]
        if self.unused and rng.random() < 0.5:
            pool = self.unused
        elif rng.random() < self.config.locality:
            pool = self.signals[-max(3, len(self.signals) // 4):]
        else:
            pool = self.signals
        choice = rng.choice(pool)
        if choice in avoid:
            candidates = [s for s in self.signals if s not in avoid]
            if not candidates:
                return choice
            choice = rng.choice(candidates)
        return choice

    def pick_fanins(self, arity: int) -> list[Gate]:
        fanins: list[Gate] = []
        for _ in range(arity):
            fanins.append(self.pick_signal(avoid=tuple(fanins)))
        return fanins


def _logic_cells(library: Library, max_arity: int) -> list[Cell]:
    """Non-constant cells of arity 1..max_arity, stable order, 2-in favored."""
    cells = []
    for arity in range(1, max_arity + 1):
        for cell in sorted(
            library.cells_with_inputs(arity), key=lambda c: c.name
        ):
            if cell.function.is_constant():
                continue
            weight = 3 if arity == 2 else 1
            cells.extend([cell] * weight)
    if not cells:
        raise ReproError(f"library {library.name!r} has no usable logic cells")
    return cells


def _pick_cell(growth: _Growth, cells: list[Cell], arity: int | None = None) -> Cell:
    if arity is None:
        return growth.rng.choice(cells)
    pool = [c for c in cells if c.num_inputs == arity]
    if not pool:
        raise ReproError(f"no library cell with {arity} inputs")
    return growth.rng.choice(pool)


# ----------------------------------------------------------------------
# Shape programs
# ----------------------------------------------------------------------
def _grow_random(growth: _Growth, cells: list[Cell], budget: int) -> None:
    while budget > 0:
        cell = _pick_cell(growth, cells)
        if cell.num_inputs > len(growth.signals):
            cell = _pick_cell(growth, cells, arity=2)
        growth.add(cell, growth.pick_fanins(cell.num_inputs))
        budget -= 1


def _grow_reconvergent(growth: _Growth, cells: list[Cell], budget: int) -> None:
    """Diamond motifs: stem -> two disjoint gates -> rejoin gate."""
    while budget >= 3:
        stem = growth.pick_signal()
        other1 = growth.pick_signal(avoid=(stem,))
        other2 = growth.pick_signal(avoid=(stem, other1))
        left = growth.add(_pick_cell(growth, cells, 2), [stem, other1])
        right = growth.add(_pick_cell(growth, cells, 2), [stem, other2])
        growth.add(_pick_cell(growth, cells, 2), [left, right])
        budget -= 3
    _grow_random(growth, cells, budget)


def _grow_high_fanout(growth: _Growth, cells: list[Cell], budget: int) -> None:
    hubs = [
        growth.pick_signal()
        for _ in range(min(growth.config.hubs, len(growth.signals)))
    ]
    while budget > 0:
        cell = _pick_cell(growth, cells, 2)
        first = (
            growth.rng.choice(hubs)
            if hubs and growth.rng.random() < growth.config.hub_bias
            else growth.pick_signal()
        )
        second = growth.pick_signal(avoid=(first,))
        growth.add(cell, [first, second])
        budget -= 1


def _grow_inverter_chain(growth: _Growth, cells: list[Cell], budget: int) -> None:
    inverter = growth.library.inverter()
    while budget > 0:
        if growth.rng.random() < 0.45 and budget >= 2:
            length = min(budget, growth.rng.randint(2, 3))
            head = growth.pick_signal()
            for _ in range(length):
                head = growth.add(inverter, [head], prefix="inv_g")
            budget -= length
        else:
            cell = _pick_cell(growth, cells, 2)
            growth.add(cell, growth.pick_fanins(2))
            budget -= 1


def _grow_large(growth: _Growth, cells: list[Cell], budget: int) -> None:
    """Near-linear tiled growth for 50k-100k-gate circuits.

    Fanins come from a sliding window of recent stems with occasional
    longer-range taps, so TFI/TFO cones stay bounded (the structure the
    windowed optimizer partitions) and no stem accumulates pathological
    fanout.  The small shapes' unused-stem bookkeeping is quadratic in
    circuit size, so this program appends straight to ``growth.signals``
    and lets the generator's closing pass turn every fanout-free stem
    into a primary output.
    """
    rng = growth.rng
    netlist = growth.netlist
    signals = growth.signals
    for _ in range(budget):
        cell = _pick_cell(growth, cells)
        if cell.num_inputs > len(signals):
            cell = _pick_cell(growth, cells, arity=2)
        fanins: list[Gate] = []
        for _ in range(cell.num_inputs):
            pool = signals[-48:] if rng.random() < 0.9 else signals[-2048:]
            choice = rng.choice(pool)
            tries = 0
            while any(choice is f for f in fanins) and tries < 6:
                choice = rng.choice(pool)
                tries += 1
            if any(choice is f for f in fanins):
                # A duplicate driver can survive only when the netlist
                # holds fewer distinct signals than the cell has pins;
                # the config minimums rule that out in practice.
                for candidate in reversed(signals):
                    if all(candidate is not f for f in fanins):
                        choice = candidate
                        break
            fanins.append(choice)
        signals.append(netlist.add_gate(cell, fanins, name=growth.fresh()))


def large_config(
    seed: int = 0, num_gates: int = 50_000, name: Optional[str] = None
) -> GeneratorConfig:
    """A ready-made ``large``-shape config: exactly ``num_gates`` gates
    (generation adds one gate per budget unit) over 64 primary inputs."""
    return GeneratorConfig(
        seed=seed,
        shape="large",
        min_inputs=64,
        max_inputs=64,
        min_gates=num_gates,
        max_gates=num_gates,
        name=name,
    )


_SHAPE_PROGRAMS = {
    "random": _grow_random,
    "reconvergent": _grow_reconvergent,
    "high_fanout": _grow_high_fanout,
    "inverter_chain": _grow_inverter_chain,
    "large": _grow_large,
}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def random_mapped_netlist(
    config: GeneratorConfig, library: Optional[Library] = None
) -> Netlist:
    """Generate one deterministic, lint-clean (error-free) mapped netlist."""
    library = library or standard_library()
    rng = random.Random(config.seed)
    num_inputs = rng.randint(config.min_inputs, config.max_inputs)
    num_gates = rng.randint(config.min_gates, config.max_gates)

    netlist = Netlist(config.model_name, library)
    growth = _Growth(rng, netlist, library, config)
    for index in range(num_inputs):
        pi = netlist.add_input(f"x{index}")
        growth.signals.append(pi)
        growth.unused.append(pi)

    cells = _logic_cells(library, config.max_arity)
    _SHAPE_PROGRAMS[config.shape](growth, cells, num_gates)

    # Every fanout-free logic stem becomes a primary output: no dead logic
    # (a Q001 warning in generated circuits would be generator damage, and
    # the optimizer would just sweep it before doing anything interesting).
    dangling = [
        gate for gate in growth.signals
        if not gate.is_input and not gate.fanout_count()
    ]
    if not dangling:  # every gate consumed: tap the last stem
        dangling = [growth.signals[-1]]
    for index, gate in enumerate(dangling):
        netlist.set_output(f"z{index}", gate)
    return netlist
