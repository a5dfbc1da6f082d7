"""POWDER: power reduction by permissible structural transformations.

This package is the paper's contribution (§3):

- :mod:`~repro.transform.substitution` — the OS2/IS2/OS3/IS3 move model and
  its application to netlists,
- :mod:`~repro.transform.candidates` — simulation-filtered candidate
  generation (the fault-simulation-based technique of refs [2, 5]),
- :mod:`~repro.transform.permissible` — the exact ATPG permissibility check
  with abort semantics,
- :mod:`~repro.transform.gain` — the PG_A / PG_B / PG_C power-gain analysis
  (eqs. 2-5),
- :mod:`~repro.transform.optimizer` — the greedy ``power_optimize`` loop of
  Figure 5, with the delay-constraint handling of §3.4,
- :mod:`~repro.transform.report` — move logs and per-class statistics
  (the data behind Tables 1 and 2).
"""

from repro.transform.substitution import (
    Substitution,
    OS2,
    IS2,
    OS3,
    IS3,
    apply_substitution,
)
from repro.transform.candidates import CandidateOptions, generate_candidates
from repro.transform.permissible import check_candidate, PERMISSIBLE, NOT_PERMISSIBLE, ABORTED
from repro.transform.gain import GainBreakdown, quick_gain, full_gain
from repro.transform.optimizer import (
    OptimizeOptions,
    OptimizeResult,
    PowerOptimizer,
    power_optimize,
)
from repro.transform.report import MoveRecord, ClassStats, class_statistics
from repro.transform.windowed import WindowedOptimizer, windowed_optimize
from repro.transform.dedupe import count_duplicate_gates, merge_duplicate_gates

__all__ = [
    "Substitution",
    "OS2",
    "IS2",
    "OS3",
    "IS3",
    "apply_substitution",
    "CandidateOptions",
    "generate_candidates",
    "check_candidate",
    "PERMISSIBLE",
    "NOT_PERMISSIBLE",
    "ABORTED",
    "GainBreakdown",
    "quick_gain",
    "full_gain",
    "OptimizeOptions",
    "OptimizeResult",
    "PowerOptimizer",
    "power_optimize",
    "MoveRecord",
    "ClassStats",
    "class_statistics",
    "WindowedOptimizer",
    "windowed_optimize",
    "count_duplicate_gates",
    "merge_duplicate_gates",
]
