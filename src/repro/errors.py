"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one type at the API boundary.  Subsystems raise the most specific
subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class LogicError(ReproError):
    """Invalid Boolean-function operation (bad support, arity mismatch...)."""


class ParseError(ReproError):
    """Malformed input text (genlib, BLIF, PLA, expression...).

    Attributes
    ----------
    line:
        1-based line number of the offending input, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LibraryError(ReproError):
    """Inconsistent cell library (missing inverter, bad pin data...).

    Attributes
    ----------
    line:
        1-based line number of the offending genlib input, when the
        inconsistency was detected while parsing a library file.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NetlistError(ReproError):
    """Structurally invalid netlist operation (cycle, dangling pin...)."""


class MappingError(ReproError):
    """Technology mapping could not cover the subject graph."""


class TransformError(ReproError):
    """A structural transformation could not be applied."""


class TimingError(ReproError):
    """Timing analysis failure (unconstrained graph, negative load...)."""


class TelemetryError(ReproError):
    """Invalid run-trace data (unreadable file, schema violation...)."""


class PipelineError(ReproError):
    """Invalid pass-pipeline configuration (unknown pass or analysis,
    malformed pipeline spec...).

    Attributes
    ----------
    position:
        0-based character offset into the pipeline-spec text where the
        problem was detected, when one applies.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"column {position}: {message}"
        super().__init__(message)
        self.position = position


class ServeError(ReproError):
    """Invalid request or server-side failure in the ``powder serve``
    optimization service.

    Attributes
    ----------
    code:
        Short machine-readable error code (``bad-blif``, ``bad-options``,
        ``queue-full``...), mirrored into the structured JSON error body.
    status:
        The HTTP status the service maps this error to (4xx for request
        problems, 5xx for server faults).
    """

    def __init__(self, message: str, code: str = "bad-request",
                 status: int = 400):
        super().__init__(message)
        self.code = code
        self.status = status


class LintError(ReproError):
    """A static-analysis failure surfaced as an exception.

    Raised for invalid lint configuration (unknown rule ID, bad severity)
    and by the transformation sanitizer when a finding of error severity
    survives.  Diagnostics always carry a stable rule ID so suppressions
    keep working across rule renames.

    Attributes
    ----------
    rule_id:
        Stable ID of the rule behind the finding, when one applies.
    report:
        The full :class:`repro.lint.LintReport`, when one was produced.
    """

    def __init__(self, message: str, rule_id: str | None = None, report=None):
        super().__init__(message)
        self.rule_id = rule_id
        self.report = report
