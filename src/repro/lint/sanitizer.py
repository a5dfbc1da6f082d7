"""The transformation sanitizer: per-move validation of the optimizer.

:class:`TransformSanitizer` runs when ``OptimizeOptions.sanitize`` is
set.  After every applied substitution it

1. runs the configured lint rule set over the edited netlist (``X001``
   wraps any error-severity finding),
2. rebuilds the simulation state from the committed input patterns and
   compares every stem word and probability against the incremental
   engine (``X002``),
3. rebuilds the static timing analysis from scratch and compares arrival
   times, gate delays, and the circuit delay exactly (``X003``),
4. compares the triage checker's followed simulation against a fresh
   simulation of the checker's own patterns, and every simulation
   state's cached rows and word matrix against its committed pattern ints
   (``X006``).

``X004`` and ``X005`` are retired and not reused: the candidate
workspace they checked now rebuilds its state every round.

It is built over the optimizer run's
:class:`~repro.pipeline.OptimizationContext` and only *reads* the
analyses there, so a sanitized run applies a bit-identical move sequence
to an unsanitized one.  On any finding it raises
:class:`~repro.errors.LintError` naming the offending move, the rule ID,
and the minimal repro context.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import LintError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.rules import Rule, lint_netlist, resolve_rules
from repro.netlist.simulate import SimState, covering_patterns
from repro.power.probability import SimulationProbability
from repro.timing.analysis import TimingAnalysis

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.context import OptimizationContext
    from repro.transform.substitution import AppliedSubstitution

#: Sanitizer check IDs (documented alongside the lint rule catalog).
X_LINT = "X001"
X_PROBABILITY = "X002"
X_TIMING = "X003"
X_FOLLOWED_SIM = "X006"


class TransformSanitizer:
    """Validates a context's incremental analyses after every move."""

    def __init__(
        self,
        context: "OptimizationContext",
        rules: Optional[list[Rule]] = None,
    ):
        self.ctx = context
        #: Lint rules run after each move (default: every registered rule
        #: at error severity — warnings would fire on legitimate
        #: intermediate states like freshly inserted inverter chains).
        self.rules = rules if rules is not None else resolve_rules()
        #: Reports of every checked move (all clean unless a raise aborted).
        self.reports: list[LintReport] = []

    # ------------------------------------------------------------------
    def after_move(self, applied: "AppliedSubstitution", move_index: int) -> None:
        """Run every check; raise :class:`LintError` on any finding."""
        findings: list[Diagnostic] = []
        findings.extend(self._check_lint())
        if not findings:
            # The rebuild cross-checks assume a structurally sound netlist;
            # on lint failures they could crash (e.g. a stale fanout pin
            # index breaks load computation), so report the lint finding
            # alone rather than masking it with a secondary exception.
            findings.extend(self._check_probabilities())
            findings.extend(self._check_timing())
            findings.extend(self._check_followed_simulation())
        move = str(applied.substitution)
        report = LintReport(
            f"{self.ctx.netlist.name}: move #{move_index} {move}",
            findings,
        )
        self.reports.append(report)
        if findings:
            first = findings[0]
            context = (
                f"move #{move_index} {move} "
                f"(added {applied.added or '[]'}, removed "
                f"{applied.removed or '[]'})"
            )
            raise LintError(
                f"sanitizer: {first.rule_id} after {context}: {first.message}",
                rule_id=first.rule_id,
                report=report,
            )

    # ------------------------------------------------------------------
    # Individual checks
    # ------------------------------------------------------------------
    def _check_lint(self) -> list[Diagnostic]:
        report = lint_netlist(self.ctx.netlist, rules=self.rules)
        return [
            Diagnostic(
                rule_id=X_LINT,
                severity=Severity.ERROR,
                message=f"netlist lint failed: {diag}",
                gate=diag.gate,
                pin=diag.pin,
            )
            for diag in report.errors
        ]

    def _check_probabilities(self) -> list[Diagnostic]:
        engine = self.ctx.get("estimator").engine
        if not isinstance(engine, SimulationProbability):
            return []
        netlist = self.ctx.netlist
        patterns = {name: engine.sim.words(name) for name in netlist.input_names}
        fresh = SimState(netlist, patterns)
        findings = _compare_simulations(X_PROBABILITY, engine.sim, fresh, "")
        # Probabilities: exact restatement of the committed sample.  Only
        # the plain engine derives them from `sim` alone; temporal
        # subclasses measure from pair simulations we don't rebuild here.
        if type(engine) is SimulationProbability:
            for name in netlist.gates:
                expected = fresh.signal_probability(name)
                got = engine.probability(name)
                if got != expected:
                    findings.append(
                        _finding(
                            X_PROBABILITY,
                            f"probability of {name!r} is {got!r}, "
                            f"resimulation gives {expected!r}",
                            gate=name,
                        )
                    )
        return findings

    def _check_timing(self) -> list[Diagnostic]:
        ctx = self.ctx
        constraint = ctx.get("constraint")
        fresh = TimingAnalysis(
            ctx.netlist, constraint.limit if constraint else None
        )
        timing = ctx.get("timing")
        findings: list[Diagnostic] = []
        for label, incremental, rebuilt in (
            ("arrival", timing.arrival, fresh.arrival),
            ("delay", timing.delay_of, fresh.delay_of),
        ):
            for name in rebuilt:
                if incremental.get(name) != rebuilt[name]:
                    findings.append(
                        _finding(
                            X_TIMING,
                            f"incremental {label} of {name!r} is "
                            f"{incremental.get(name)!r}, rebuild gives "
                            f"{rebuilt[name]!r}",
                            gate=name,
                        )
                    )
            for name in incremental:
                if name not in rebuilt:
                    findings.append(
                        _finding(
                            X_TIMING,
                            f"incremental STA carries {label} for dead "
                            f"gate {name!r}",
                            gate=name,
                        )
                    )
        if timing.circuit_delay != fresh.circuit_delay:
            findings.append(
                _finding(
                    X_TIMING,
                    f"incremental circuit delay {timing.circuit_delay!r} "
                    f"!= rebuilt {fresh.circuit_delay!r}",
                )
            )
        return findings

    def _check_followed_simulation(self) -> list[Diagnostic]:
        findings: list[Diagnostic] = []
        netlist = self.ctx.netlist
        states: list[tuple[str, SimState]] = []
        estimator = self.ctx.peek("estimator")
        engine = estimator.engine if estimator is not None else None
        if isinstance(engine, SimulationProbability):
            states.append(("estimator simulation", engine.sim))
            sim_next = getattr(engine, "sim_next", None)
            if sim_next is not None:
                states.append(("estimator cycle-t+1 simulation", sim_next))
        triage = self.ctx.peek("triage")
        if triage is not None and triage._sim is not None:
            followed = triage.followed_state()
            if followed is None:
                # The optimizer reports every move before this check runs.
                findings.append(
                    _finding(
                        X_FOLLOWED_SIM,
                        "triage simulation was not told about the move",
                    )
                )
            else:
                states.append(("triage simulation", followed))
                patterns, _ = covering_patterns(
                    netlist.input_names, triage.num_patterns, triage.seed
                )
                findings.extend(
                    _compare_simulations(
                        X_FOLLOWED_SIM,
                        followed,
                        SimState(netlist, patterns),
                        "triage ",
                    )
                )
        for label, sim in states:
            for name in sim.stale_derived():
                findings.append(
                    _finding(
                        X_FOLLOWED_SIM,
                        f"{label}: cached rows or words of {name!r} differ "
                        f"from its committed pattern int",
                        gate=name,
                    )
                )
        return findings


def _compare_simulations(
    rule_id: str, sim: SimState, fresh: SimState, label: str
) -> list[Diagnostic]:
    """Findings where ``sim``'s committed values differ from ``fresh``."""
    netlist = fresh.netlist
    findings: list[Diagnostic] = []
    for name in netlist.gates:
        committed = sim.values.get(name)
        if committed is None:
            findings.append(
                _finding(
                    rule_id,
                    f"no committed {label}simulation value for {name!r}",
                    gate=name,
                )
            )
        elif committed != fresh.values[name]:
            findings.append(
                _finding(
                    rule_id,
                    f"committed {label}value of {name!r} diverged from a "
                    f"from-scratch resimulation",
                    gate=name,
                )
            )
    for name in [n for n in sim.values if n not in netlist.gates]:
        findings.append(
            _finding(
                rule_id,
                f"{label}simulation carries value for dead gate {name!r}",
                gate=name,
            )
        )
    return findings


def _finding(
    rule_id: str, message: str, gate: Optional[str] = None
) -> Diagnostic:
    return Diagnostic(
        rule_id=rule_id,
        severity=Severity.ERROR,
        message=message,
        gate=gate,
    )
