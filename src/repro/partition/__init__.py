"""Netlist windowing: TFI/TFO cones for scalable optimization.

Large netlists cannot afford whole-netlist candidate rounds; the windowed
optimizer (:mod:`repro.transform.windowed`) instead optimizes small
*windows* — TFI/TFO cones around seed gates — independently and merges the
non-conflicting results.  This package is the structural half of that
scheme:

- :func:`extract_window` grows one radius-bounded cone around a seed gate,
- :func:`partition_windows` selects seeds deterministically so every logic
  gate lands in at least one window,
- :func:`export_window` turns a window into a self-contained sub-netlist
  plus the boundary constraints (external output loads, and slots for
  boundary input probabilities) that make window-local power estimates
  meaningful.

The soundness contract, proven gate-by-gate in ``tests/partition`` and
end-to-end by the differential oracle in ``tests/transform/test_windowed``:
a window's exported sub-netlist exposes *every* signal the rest of the
netlist can observe (external branches and primary outputs) as a
sub-netlist primary output, so any transformation preserving the
sub-netlist's output functions preserves the full netlist's primary-output
functions when replayed in place.
"""

from repro.partition.export import WindowBoundary, export_window
from repro.partition.window import (
    Window,
    extract_window,
    partition_windows,
    recompute_boundary,
)

__all__ = [
    "Window",
    "WindowBoundary",
    "extract_window",
    "export_window",
    "partition_windows",
    "recompute_boundary",
]
