"""Stuck-at fault model on stems and branches.

A fault fixes either a gate's stem output (``branch is None``) or a single
fanout branch — identified by its sink gate and pin index — to a constant.
Branch faults matter because the paper's substitutions operate on individual
branches; a stem and its branches are distinct fault (and substitution)
sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import NetlistError
from repro.netlist.netlist import Gate, Netlist


@dataclass(frozen=True)
class StuckAtFault:
    """Stuck-at-``value`` fault at a stem or branch."""

    gate_name: str  # the driving (stem) gate
    value: int  # 0 or 1
    branch: Optional[tuple[str, int]] = None  # (sink gate name, pin index)

    def __post_init__(self):
        if self.value not in (0, 1):
            raise NetlistError(f"stuck-at value must be 0/1, got {self.value}")

    def site_str(self) -> str:
        if self.branch is None:
            return self.gate_name
        sink, pin = self.branch
        return f"{self.gate_name}->{sink}.{pin}"

    def __str__(self) -> str:
        return f"{self.site_str()}/sa{self.value}"

    def resolve(self, netlist: Netlist) -> tuple[Gate, Optional[tuple[Gate, int]]]:
        """Map names to live gate objects, validating the site exists."""
        stem = netlist.gate(self.gate_name)
        if self.branch is None:
            return stem, None
        sink_name, pin = self.branch
        sink = netlist.gate(sink_name)
        if pin >= len(sink.fanins) or sink.fanins[pin] is not stem:
            raise NetlistError(f"fault site {self.site_str()} is stale")
        return stem, (sink, pin)


def all_stem_faults(netlist: Netlist) -> list[StuckAtFault]:
    """Both polarities of stuck-at faults on every stem."""
    faults = []
    for gate in netlist.gates.values():
        for value in (0, 1):
            faults.append(StuckAtFault(gate.name, value))
    return faults


def all_faults(netlist: Netlist, include_branches: bool = True) -> list[StuckAtFault]:
    """Stem faults plus (optionally) faults on every multi-fanout branch."""
    faults = all_stem_faults(netlist)
    if include_branches:
        for gate in netlist.gates.values():
            if gate.fanout_count() <= 1:
                continue  # single-branch stems: branch fault == stem fault
            for sink, pin in gate.fanouts:
                for value in (0, 1):
                    faults.append(
                        StuckAtFault(gate.name, value, branch=(sink.name, pin))
                    )
    return faults
