"""Small latency statistics behind the ``latency`` block of ``/metrics``."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending-sorted sequence.

    Nearest-rank with linear interpolation; 0.0 for an empty sequence so
    callers can report "no data yet" without branching.
    """
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return float(
        sorted_values[lower] * (1.0 - fraction)
        + sorted_values[upper] * fraction
    )


def latency_summary(values: Iterable[float]) -> dict:
    """count/mean/p50/p95/p99/max over a collection of seconds."""
    data = sorted(float(v) for v in values)
    if not data:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "max": 0.0}
    return {
        "count": len(data),
        "mean": sum(data) / len(data),
        "p50": percentile(data, 0.50),
        "p95": percentile(data, 0.95),
        "p99": percentile(data, 0.99),
        "max": data[-1],
    }


class LatencyWindow:
    """A bounded window of recent durations for live percentile reporting."""

    def __init__(self, maxlen: int = 1024):
        self._values: deque = deque(maxlen=maxlen)

    def record(self, seconds: float) -> None:
        self._values.append(float(seconds))

    def summary(self) -> dict:
        return latency_summary(self._values)

    def __len__(self) -> int:
        return len(self._values)
