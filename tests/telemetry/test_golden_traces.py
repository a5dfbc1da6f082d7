"""Golden-trace regression suite.

Each bundled benchmark BLIF (``benchmarks/blif/``) has a committed
baseline run trace under ``tests/telemetry/golden/``, and two of them
have a second one under the Table-2 protocol at 0 % delay slack
(``<name>.delay0.trace.json``), where most selected moves fail the delay
check.  Every test here replays the optimizer with :func:`golden_options`
on the same input and compares the fresh trace against the baseline with
:func:`repro.telemetry.compare_traces` — so any behavioural drift in
candidate ranking, gain arithmetic (PG_A/PG_B/PG_C), ATPG outcomes, or
counter totals fails with a precise move-level diff instead of a vague
end-to-end power delta.  Wall-times are ignored by construction.

Regenerating the baselines
--------------------------
After an *intentional* behaviour change (new ranking rule, gain-model
fix, ...), refresh the committed traces and review the diff like any
other source change::

    PYTHONPATH=src python -m pytest tests/telemetry/test_golden_traces.py \
        --update-golden

With ``--update-golden`` the tests write the freshly recorded traces to
``tests/telemetry/golden/<name>.trace.json`` (or
``<name>.delay0.trace.json``) and pass; without it they
compare and fail on any deterministic-field divergence.  Never update a
baseline to silence a diff you cannot explain.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import pytest

from repro.library.standard import standard_library
from repro.netlist.blif import parse_blif_file
from repro.telemetry import Tracer, compare_traces, read_trace, write_trace
from repro.transform.optimizer import OptimizeOptions, power_optimize

REPO_ROOT = Path(__file__).resolve().parents[2]
BLIF_DIR = REPO_ROOT / "benchmarks" / "blif"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_BENCHMARKS = ("rd53", "misex1", "sqrt8", "ttt2")
#: Circuits with a second baseline recorded at ``delay_slack_percent=0``.
DELAY_GOLDEN_BENCHMARKS = ("rd53", "misex1")

#: Absolute float tolerance for the comparison: zero would also hold on
#: the machine that generated the baseline, but identical logic can land
#: on slightly different doubles across NumPy builds; 1e-9 keeps the
#: baselines portable while still failing on any real drift in the gain
#: arithmetic (real regressions move gains by far more than 1e-9).
TOLERANCE = 1e-9


def golden_options(
    tracer: Tracer, delay_slack_percent: Optional[float] = None
) -> OptimizeOptions:
    """The pinned configuration every baseline was recorded with."""
    return OptimizeOptions(
        num_patterns=512,
        trace=tracer,
        delay_slack_percent=delay_slack_percent,
    )


def record_trace(name: str, delay_slack_percent: Optional[float] = None):
    netlist = parse_blif_file(BLIF_DIR / f"{name}.blif", standard_library())
    tracer = Tracer()
    result = power_optimize(
        netlist, golden_options(tracer, delay_slack_percent)
    )
    return result.trace


@pytest.mark.parametrize("name", GOLDEN_BENCHMARKS)
def test_golden_trace(name, request):
    _replay(name, GOLDEN_DIR / f"{name}.trace.json", None, request)


@pytest.mark.parametrize("name", DELAY_GOLDEN_BENCHMARKS)
def test_delay_golden_trace(name, request):
    fresh = _replay(
        name, GOLDEN_DIR / f"{name}.delay0.trace.json", 0.0, request
    )
    assert fresh.summary["final_delay"] <= fresh.summary["initial_delay"]


def _replay(name, golden_path, delay_slack_percent, request):
    fresh = record_trace(name, delay_slack_percent)
    assert fresh.moves, f"{name} must apply at least one move"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        write_trace(fresh, golden_path)
        return fresh
    assert golden_path.exists(), (
        f"missing baseline {golden_path}; regenerate with "
        "pytest tests/telemetry/test_golden_traces.py --update-golden"
    )
    golden = read_trace(golden_path)
    diff = compare_traces(golden, fresh, tolerance=TOLERANCE)
    if not diff.ok:
        pytest.fail(
            f"optimizer behaviour drifted from the committed {name} "
            f"baseline:\n{diff.format()}\n"
            "If the change is intentional, regenerate with "
            "--update-golden and review the new trace.",
            pytrace=False,
        )
    return fresh


def test_golden_baselines_are_schema_valid():
    """Committed baselines must parse and validate standalone."""
    for name in GOLDEN_BENCHMARKS:
        trace = read_trace(GOLDEN_DIR / f"{name}.trace.json")
        assert trace.netlist == name
        assert trace.moves and trace.rounds
    for name in DELAY_GOLDEN_BENCHMARKS:
        trace = read_trace(GOLDEN_DIR / f"{name}.delay0.trace.json")
        assert trace.netlist == name
        assert trace.moves and trace.rounds
        assert trace.options["delay_slack_percent"] == 0.0
