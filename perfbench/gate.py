"""The correctness gate and the result-derived metrics.

Every check here runs outside the timed region.  A problem is returned as
a line of text; any problem makes the run incorrect.
"""

from __future__ import annotations

import json
import resource
from pathlib import Path

#: Absolute tolerance of the golden-summary comparison (the same the
#: golden-trace tests allow for NumPy builds that round differently).
GOLDEN_TOLERANCE = 1e-9
GOLDEN_FIELDS = (
    "moves", "initial_power", "final_power", "initial_area", "final_area",
    "final_delay",
)


def summary(result) -> dict:
    """The quality figures of one optimize result, as the service reports
    them in a job's ``summary``."""
    return {
        "initial_power": result.initial_power,
        "final_power": result.final_power,
        "initial_area": result.initial_area,
        "final_area": result.final_area,
        "initial_delay": result.initial_delay,
        "final_delay": result.final_delay,
        "moves": len(result.moves),
    }


def prove_equivalent(label: str, original, optimized) -> list[str]:
    """A proof (BDD or exhaustive search) that the output keeps the function."""
    from repro.equiv.checker import EQUAL, check_equivalent

    verdict = check_equivalent(original, optimized)
    if verdict.status == EQUAL:
        return []
    return [
        f"{label}: output not proven equivalent to its input "
        f"({verdict.status}, stage {verdict.stage!r})"
    ]


def match_golden(root: Path, name: str, result) -> list[str]:
    """Compare with the committed golden-trace summary of ``name``."""
    path = root / "tests" / "telemetry" / "golden" / f"{name}.trace.json"
    golden = json.loads(path.read_text(encoding="utf-8"))["summary"]
    fresh = summary(result)
    return [
        f"{name}: {key} is {fresh[key]!r}, golden trace has {golden[key]!r}"
        for key in GOLDEN_FIELDS
        if abs(fresh[key] - golden[key]) > GOLDEN_TOLERANCE
    ]


def quality(summaries) -> dict:
    """Power and area left after optimization, in percent of the initial
    totals over a set of circuits (lower is better; never 0 or negative,
    unlike a reduction, which goes negative when area grows)."""
    summaries = list(summaries)

    def left(kind: str) -> float:
        before = sum(entry[f"initial_{kind}"] for entry in summaries)
        after = sum(entry[f"final_{kind}"] for entry in summaries)
        return 100.0 * after / before if before else 0.0

    return {"final_power_pct": left("power"), "final_area_pct": left("area")}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
