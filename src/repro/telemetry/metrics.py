"""Counter/timer registry: where a run (or the server) keeps its numbers.

A :class:`Metrics` instance is a flat, named registry of monotonically
increasing :class:`Counter` objects and wall-clock :class:`Timer`
accumulators.  The clock is injectable, so tests can drive timers with a
fake clock and assert on exact durations; production code uses
:data:`WALL_CLOCK`, the package's one wall clock.

Counters hold run facts that must be reproducible (candidate counts, ATPG
calls/backtracks/aborts, cache hits); timers hold wall-times, which are
inherently machine-dependent and therefore excluded from trace comparison
(:func:`repro.telemetry.diff.compare_traces` ignores them).
"""

from __future__ import annotations

import time
from typing import Callable

#: The clock every timer reads unless a test injects its own.
WALL_CLOCK: Callable[[], float] = time.perf_counter


class Counter:
    """A named monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Timer:
    """A named wall-time accumulator; usable as a context manager."""

    __slots__ = ("name", "seconds", "_clock", "_started")

    def __init__(self, name: str, clock: Callable[[], float] = WALL_CLOCK):
        self.name = name
        self.seconds = 0.0
        self._clock = clock
        self._started: float | None = None

    def start(self) -> None:
        self._started = self._clock()

    def stop(self) -> None:
        if self._started is None:
            return
        self.seconds += self._clock() - self._started
        self._started = None

    def add(self, seconds: float) -> None:
        """Fold in a duration measured elsewhere (e.g. a job's queue wait)."""
        self.seconds += seconds

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


class Metrics:
    """Registry of counters and timers for one run (or one server)."""

    def __init__(self, clock: Callable[[], float] = WALL_CLOCK):
        self.clock = clock
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        entry = self._counters.get(name)
        if entry is None:
            entry = self._counters[name] = Counter(name)
        return entry

    def timer(self, name: str) -> Timer:
        entry = self._timers.get(name)
        if entry is None:
            entry = self._timers[name] = Timer(name, self.clock)
        return entry

    def increment(self, name: str, amount: int = 1) -> None:
        self.counter(name).increment(amount)

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Counter values, sorted by name (deterministic)."""
        return {
            name: self._counters[name].value
            for name in sorted(self._counters)
        }

    def timers(self) -> dict[str, float]:
        """Timer totals, sorted by name (wall-times; machine-dependent)."""
        return {
            name: self._timers[name].seconds for name in sorted(self._timers)
        }
