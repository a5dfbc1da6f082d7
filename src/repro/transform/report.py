"""Move logs and per-class statistics.

Every substitution the optimizer performs is recorded as a
:class:`MoveRecord` carrying both the *predicted* gain breakdown and the
*measured* power/area change.  :func:`class_statistics` aggregates records
into the per-class contributions reported in the paper's Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transform.gain import GainBreakdown
from repro.transform.substitution import IS2, IS3, OS2, OS3, Substitution

ALL_CLASSES = (OS2, IS2, OS3, IS3)


@dataclass
class MoveRecord:
    """One performed substitution."""

    substitution: Substitution
    predicted: GainBreakdown
    measured_power_gain: float  # estimator total before - after
    measured_area_delta: float  # netlist area after - before
    round_index: int
    circuit_delay_after: float
    #: Fresh gates the move created, in creation order.
    added: tuple[str, ...] = ()
    #: The gate left driving the substituted load ("" if none).
    substituting: str = ""

    @property
    def kind(self) -> str:
        return self.substitution.kind


@dataclass
class ClassStats:
    """Aggregated effect of one substitution class."""

    kind: str
    count: int = 0
    power_gain: float = 0.0
    area_delta: float = 0.0

    def power_share(self, total_gain: float) -> float:
        """Fraction of the overall power reduction due to this class."""
        if total_gain == 0:
            return 0.0
        return self.power_gain / total_gain

    def area_share(self, total_delta: float) -> float:
        """Fraction of the overall area change due to this class.

        The paper's Table 2 reports shares of the overall area *reduction*;
        classes that increase area get negative shares there (and can push
        another class past 100%).
        """
        if total_delta == 0:
            return 0.0
        return self.area_delta / total_delta


def class_statistics(moves: list[MoveRecord]) -> dict[str, ClassStats]:
    """Per-class totals over a move log (Table 2's raw data)."""
    stats = {kind: ClassStats(kind) for kind in ALL_CLASSES}
    for move in moves:
        entry = stats[move.kind]
        entry.count += 1
        entry.power_gain += move.measured_power_gain
        entry.area_delta += move.measured_area_delta
    return stats


def format_class_table(moves: list[MoveRecord]) -> str:
    """Human-readable Table-2-style summary of a move log."""
    stats = class_statistics(moves)
    total_gain = sum(s.power_gain for s in stats.values())
    total_area = sum(s.area_delta for s in stats.values())
    header = f"{'class':>6} {'moves':>6} {'power %':>9} {'area %':>9}"
    lines = [header, "-" * len(header)]
    for kind in ALL_CLASSES:
        s = stats[kind]
        power_pct = 100.0 * s.power_share(total_gain) if total_gain else 0.0
        # Express area as share of the total area *reduction* like Table 2
        # (reduction = -total_area when area shrank).
        area_pct = (
            100.0 * s.area_delta / total_area if total_area else 0.0
        )
        lines.append(
            f"{kind:>6} {s.count:>6d} {power_pct:>8.1f}% {area_pct:>8.1f}%"
        )
    return "\n".join(lines)
