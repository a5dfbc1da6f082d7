"""Benchmarks of the static fact base (:mod:`repro.analysis`).

Three layers, matching the claims recorded in ``BENCH_analysis.json``:

- fact-base construction cost per golden circuit (what ``LintPass``
  and the S-rules pay up front: one simulation, one observability
  sweep, one phase walk, and a SAT proof per nominated fact),
- soundness-check cost (the CI gate's budget),
- the end-to-end optimisation of ttt2 the fact base is weighed against.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from benchmarks.conftest import once
from repro.analysis import AnalysisSuite
from repro.analysis.soundness import check_soundness
from repro.netlist.blif import parse_blif_file
from repro.telemetry import Tracer
from repro.transform.optimizer import OptimizeOptions, power_optimize

BLIF_DIR = Path(__file__).resolve().parent / "blif"
GOLDEN = ("rd53", "misex1", "sqrt8", "ttt2")


@pytest.fixture(params=GOLDEN)
def golden(request, lib):
    return request.param, parse_blif_file(
        BLIF_DIR / f"{request.param}.blif", lib
    )


def test_fact_base_construction(benchmark, golden):
    """Full AnalysisSuite fact build (simulation nominates, SAT proves)."""
    _name, netlist = golden
    benchmark(lambda: AnalysisSuite(netlist).refresh(force=True))


def test_soundness_check(benchmark, golden):
    """Independent re-derivation of every fact (the CI gate)."""
    _name, netlist = golden
    facts = AnalysisSuite(netlist).facts

    def run():
        report = check_soundness(netlist, facts)
        assert report.ok
        return report

    once(benchmark, run)


def test_end_to_end_optimize(benchmark, lib):
    """power_optimize on ttt2 (BENCH_analysis.json's ``end_to_end``
    baseline)."""
    netlist = parse_blif_file(BLIF_DIR / "ttt2.blif", lib)
    options = OptimizeOptions(num_patterns=512, trace=Tracer())
    result = once(benchmark, power_optimize, netlist, options)
    assert result.moves
