"""A host-speed probe: a fixed CPU-bound loop that uses no program code.

The benchmark runs on shared machines whose speed drifts by a quarter or
more over a minute, slowing every process on the host alike (the same
optimization measured 2.2 s and 3.8 s a minute apart on a 2-vCPU VM).
The probe is a plain interpreter loop over integer arithmetic, run
between the timed operations, never during them; of the probes tried it
tracked the optimizer's slowdowns best.  Dividing a measured time by
``median probe / REFERENCE_PROBE_S`` expresses it in seconds on a host of
the reference speed, which cancels drift that lasts longer than a few
operations.  Every result also records the raw times and the factor.
"""

from __future__ import annotations

import statistics
import time

#: Median probe seconds on the reference host (the 2-vCPU x86-64 VM the
#: workloads were sized on, Python 3.11).
REFERENCE_PROBE_S = 0.03
#: Loop iterations of one probe.
PROBE_LOOPS = 300_000


def probe() -> float:
    """Wall seconds of one fixed probe loop."""
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value % 7
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError("unreachable")
    return elapsed


class SpeedMeter:
    """Collects probes through a run; converts times to reference seconds."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(probe())

    @property
    def factor(self) -> float:
        """How much slower than the reference host this run's host was."""
        return statistics.median(self.samples) / REFERENCE_PROBE_S

    def normalize(self, seconds: float) -> float:
        return seconds / self.factor
