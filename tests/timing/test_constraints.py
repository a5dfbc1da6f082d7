"""Tests for delay-constraint handling (§3.4)."""

import pytest

from repro.errors import TimingError
from repro.timing.analysis import TimingAnalysis
from repro.timing.constraints import DelayConstraint, quick_delay_reject


class TestDelayConstraint:
    def test_from_netlist_zero_slack(self, figure2):
        constraint = DelayConstraint.from_netlist(figure2, 0.0)
        assert constraint.limit == pytest.approx(
            TimingAnalysis(figure2).circuit_delay
        )

    def test_from_netlist_with_slack(self, figure2):
        base = TimingAnalysis(figure2).circuit_delay
        constraint = DelayConstraint.from_netlist(figure2, 50.0)
        assert constraint.limit == pytest.approx(base * 1.5)

    def test_negative_slack_rejected(self, figure2):
        with pytest.raises(TimingError):
            DelayConstraint.from_netlist(figure2, -10.0)


class TestQuickReject:
    def test_late_arrival_rejected(self, builder):
        # Long chain from a; substituting its end into an early signal
        # violates the required time.
        a, b = builder.inputs("a", "b")
        chain = a
        for i in range(6):
            chain = builder.not_(chain, name=f"c{i}")
        early = builder.and_(a, b, name="early")
        merge = builder.and_(chain, early, name="merge")
        builder.output("o", merge)
        nl = builder.build()
        timing = TimingAnalysis(nl)  # constraint = current delay
        # 'early' is needed at its required time; the chain end arrives
        # much later, so substituting early <- c5 must be rejected.
        assert quick_delay_reject(
            timing,
            substituting=nl.gate("c5"),
            substituted=early,
            added_load=1.0,
        )

    def test_early_arrival_accepted(self, builder):
        a, b = builder.inputs("a", "b")
        chain = a
        for i in range(6):
            chain = builder.not_(chain, name=f"c{i}")
        early = builder.and_(a, b, name="early")
        merge = builder.and_(chain, early, name="merge")
        builder.output("o", merge)
        nl = builder.build()
        timing = TimingAnalysis(nl)
        # Substituting deep signal c5 by the early AND adds little load and
        # arrives far before c5's required time.
        assert not quick_delay_reject(
            timing,
            substituting=early,
            substituted=nl.gate("c5"),
            added_load=0.0,
        )

    def test_load_slack_rejection(self, builder):
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        builder.output("o", g)
        nl = builder.build()
        timing = TimingAnalysis(nl)  # zero slack on the critical path
        # Any real extra load on g must push it past its slack.
        assert quick_delay_reject(
            timing, substituting=g, substituted=g, added_load=100.0
        )
