"""Static analysis for mapped netlists (``repro.lint``).

Public surface:

- :func:`lint_netlist` — run a rule set, collect *all* findings,
- :class:`LintReport` / :class:`Diagnostic` / :class:`Severity` — results,
- :class:`Rule` + :func:`register` — the extension point for custom rules,
- :func:`all_rules` / :func:`resolve_rules` / :func:`rule_catalog` — the
  registry (built-in IDs: ``N0xx`` structure, ``Q0xx`` quality, ``L0xx``
  library, ``P0xx`` power),
- :class:`TransformSanitizer` — per-move optimizer validation behind
  ``OptimizeOptions(sanitize=True)`` (check IDs ``X001``–``X003`` and
  ``X006``; ``X004`` and ``X005`` are retired).
"""

from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.rules import (
    LintContext,
    Rule,
    all_rules,
    get_rule,
    lint_netlist,
    register,
    resolve_rules,
    rule_catalog,
    structural_rules,
)
from repro.lint import builtin  # noqa: F401  (registers the rule pack)
from repro.lint.sanitizer import TransformSanitizer

__all__ = [
    "Diagnostic",
    "LintContext",
    "LintReport",
    "Rule",
    "Severity",
    "TransformSanitizer",
    "all_rules",
    "get_rule",
    "lint_netlist",
    "register",
    "resolve_rules",
    "rule_catalog",
    "structural_rules",
]
