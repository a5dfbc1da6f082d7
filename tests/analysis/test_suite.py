"""The AnalysisSuite facade: caching per structural state, the surface."""

from repro.analysis import AnalysisSuite


class TestCaching:
    def test_facts_cached_per_structural_state(self, lib, figure2):
        suite = AnalysisSuite(figure2)
        first = suite.facts
        assert suite.facts is first
        assert suite.counters == {"full": 1}

    def test_structural_edit_without_dirty_report_forces_full(
        self, lib, figure2
    ):
        suite = AnalysisSuite(figure2)
        suite.facts
        figure2._invalidate()  # structure changed
        suite.facts
        assert suite.counters["full"] == 2

    def test_force_refresh(self, lib, figure2):
        suite = AnalysisSuite(figure2)
        first = suite.facts
        second = suite.refresh(force=True)
        assert second is not first
        assert suite.counters["full"] == 2


class TestFactsSurface:
    def test_counts_and_total(self, lib, figure2):
        facts = AnalysisSuite(figure2).facts
        counts = facts.counts()
        assert set(counts) == {
            "constants", "unobservables", "phases", "equivalences"
        }
        assert facts.total() == sum(counts.values())

    def test_to_dict_round_trips_through_format_text(self, lib, figure2):
        facts = AnalysisSuite(figure2).facts
        payload = facts.to_dict()
        assert payload["netlist"] == "fig2"
        assert isinstance(facts.format_text(), str)
