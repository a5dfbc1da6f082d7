"""The structured run trace: per-round and per-move records of one
POWDER run, with a versioned JSON serialization.

A :class:`RunTrace` pins everything the paper's value claims rest on:

- the exact move sequence, each move identified by its canonical
  :meth:`~repro.transform.substitution.Substitution.candidate_id` (the
  optimizer's tie-break key, stable across Python builds),
- the ``PG = PG_A + PG_B + PG_C`` gain decomposition of every applied
  move next to the independently measured power delta,
- the ATPG verdict behind every acceptance (status, deciding stage,
  backtracks spent),
- per-round candidate counts by class (OS2/IS2/OS3/IS3), short-list
  sizes, and rejection tallies,
- run-level counters (ATPG calls/backtracks/aborts, workspace cache hit
  rates) and phase wall-times.

Every field except the ``timers`` section is a pure function of
(netlist, options), so two runs of the same build must produce
byte-identical deterministic sections — that is what the golden-trace
regression suite asserts.  ``timers`` are machine facts and are ignored
by :func:`repro.telemetry.diff.compare_traces`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import TelemetryError

#: Bump on any backwards-incompatible change to the trace layout.
TRACE_SCHEMA_VERSION = 1


def deterministic_json(data) -> str:
    """Canonical JSON text for ``data``: sorted keys, compact separators,
    shortest-roundtrip floats, NaN/Infinity rejected.

    Two structurally equal values serialize to byte-identical text, so
    this is the serialization for everything that must be byte-stable:
    the deterministic trace subset, canonical
    :class:`~repro.transform.optimizer.OptimizeOptions` dictionaries,
    and the result payloads the :mod:`repro.serve` cache hands out.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


@dataclass
class MoveTrace:
    """One applied substitution, with its full value decomposition."""

    index: int  # 1-based position in the run's move sequence
    round: int  # candidate-generation round that produced it
    candidate_id: str  # canonical Substitution.candidate_id()
    kind: str  # OS2 / IS2 / OS3 / IS3
    pg_a: float
    pg_b: float
    pg_c: float
    predicted_total: float  # PG_A + PG_B + PG_C
    measured_power_gain: float  # estimator total before - after
    measured_area_delta: float
    circuit_delay_after: float
    atpg_status: str  # permissible verdict behind the acceptance
    atpg_stage: str  # which oracle stage decided (simulation/bdd/atpg)
    atpg_backtracks: int


@dataclass
class RoundTrace:
    """One candidate-generation round of the optimizer's outer loop."""

    index: int  # 1-based round number
    pool_size: int  # candidates emitted by generation
    candidates_by_class: dict[str, int]  # OS2/IS2/OS3/IS3 counts
    shortlist_evaluations: int  # short-list slots examined (PG_C scored)
    moves_applied: int
    rejections: dict[str, int]  # delay/not-permissible/aborted/stale


@dataclass
class RunTrace:
    """Complete telemetry of one optimizer run."""

    schema_version: int = TRACE_SCHEMA_VERSION
    netlist: str = ""
    options: dict = field(default_factory=dict)
    rounds: list[RoundTrace] = field(default_factory=list)
    moves: list[MoveTrace] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, float] = field(default_factory=dict)
    summary: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form, keys in canonical order."""
        data = asdict(self)
        data["counters"] = dict(sorted(data["counters"].items()))
        data["timers"] = dict(sorted(data["timers"].items()))
        data["summary"] = dict(sorted(data["summary"].items()))
        return data

    def deterministic_dict(self) -> dict:
        """The reproducible subset: everything except wall-times."""
        data = self.to_dict()
        del data["timers"]
        return data

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, shortest-roundtrip floats)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def deterministic_json(self) -> str:
        """Canonical JSON of the deterministic subset (byte-comparable)."""
        return deterministic_json(self.deterministic_dict())

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "RunTrace":
        from repro.telemetry.schema import validate_trace

        validate_trace(data)
        return cls(
            schema_version=data["schema_version"],
            netlist=data["netlist"],
            options=dict(data["options"]),
            rounds=[RoundTrace(**r) for r in data["rounds"]],
            moves=[MoveTrace(**m) for m in data["moves"]],
            counters=dict(data["counters"]),
            timers=dict(data.get("timers", {})),
            summary=dict(data["summary"]),
        )


def write_trace(trace: RunTrace, path: str | Path) -> None:
    """Serialize ``trace`` to ``path`` as schema-valid JSON."""
    Path(path).write_text(trace.to_json())


def read_trace(path: str | Path) -> RunTrace:
    """Load and validate a trace written by :func:`write_trace`."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TelemetryError(f"cannot read trace {path}: {exc}") from exc
    return RunTrace.from_dict(data)


def format_trace(trace: RunTrace, max_moves: Optional[int] = None) -> str:
    """Human-readable rendering (the ``powder trace show`` output)."""
    lines = [
        f"trace of {trace.netlist!r} (schema v{trace.schema_version})",
        f"  rounds : {len(trace.rounds)}   moves : {len(trace.moves)}",
    ]
    summary = trace.summary
    if "initial_power" in summary and "final_power" in summary:
        lines.append(
            f"  power  : {summary['initial_power']:.4f} -> "
            f"{summary['final_power']:.4f}"
        )
    if trace.counters:
        parts = ", ".join(
            f"{name}={value}" for name, value in sorted(trace.counters.items())
        )
        lines.append(f"  counts : {parts}")
    if trace.timers:
        parts = ", ".join(
            f"{name} {seconds:.3f}s"
            for name, seconds in sorted(trace.timers.items())
        )
        lines.append(f"  timers : {parts}")
    shown = trace.moves if max_moves is None else trace.moves[:max_moves]
    if shown:
        header = (
            f"  {'#':>4} {'rnd':>3} {'class':>5} {'PG_A':>9} {'PG_B':>9} "
            f"{'PG_C':>9} {'total':>9} {'measured':>9}  atpg"
        )
        lines.append(header)
        for move in shown:
            lines.append(
                f"  {move.index:>4} {move.round:>3} {move.kind:>5} "
                f"{move.pg_a:>9.4f} {move.pg_b:>9.4f} {move.pg_c:>9.4f} "
                f"{move.predicted_total:>9.4f} "
                f"{move.measured_power_gain:>9.4f}  "
                f"{move.atpg_status}/{move.atpg_stage}"
            )
        if len(shown) < len(trace.moves):
            lines.append(f"  ... {len(trace.moves) - len(shown)} more moves")
    return "\n".join(lines)
