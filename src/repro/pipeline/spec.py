"""The pipeline-spec mini-language.

A spec is a ``;``-separated list of stages, each a registered pass name
with optional keyword parameters::

    dedupe; powder(repeat=25, objective=power); sweep

Grammar (whitespace insignificant)::

    spec   := stage (';' stage)* [';']
    stage  := NAME [ '(' [param (',' param)*] ')' ]
    param  := NAME '=' value
    value  := INT | FLOAT | 'true' | 'false' | 'none' | NAME | STRING

``NAME`` is ``[A-Za-z_][A-Za-z0-9_]*``; bare-word values parse as
strings (``objective=power``); ``STRING`` is single- or double-quoted
for values with commas or spaces.  Errors raise
:class:`~repro.errors.PipelineError` carrying the 0-based character
``position`` of the offending token.

``parse_pipeline_spec`` and ``format_pipeline_spec`` round-trip:
``parse(format(parse(s))) == parse(s)`` for every valid ``s``, and
``format`` emits the canonical spelling (single spaces, lowercase
keyword literals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import PipelineError

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789")

#: Keyword literals (case-insensitive in the source, canonical lowercase).
_KEYWORDS = {"true": True, "false": False, "none": None}


@dataclass(frozen=True)
class StageSpec:
    """One parsed stage: a pass name plus its keyword parameters."""

    name: str
    kwargs: dict = field(default_factory=dict)


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str, position: int | None = None) -> PipelineError:
        return PipelineError(
            message, position=self.pos if position is None else position
        )

    def name(self, what: str) -> str:
        self.skip_ws()
        start = self.pos
        if self.peek() not in _NAME_START:
            raise self.error(
                f"expected {what}, got "
                + (f"{self.peek()!r}" if self.peek() else "end of spec")
            )
        while self.peek() in _NAME_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def value(self):
        self.skip_ws()
        start = self.pos
        ch = self.peek()
        if ch in ("'", '"'):
            self.pos += 1
            while self.peek() and self.peek() != ch:
                self.pos += 1
            if not self.peek():
                raise self.error("unterminated string", position=start)
            literal = self.text[start + 1:self.pos]
            self.pos += 1
            return literal
        if ch in _NAME_START:
            word = self.name("value")
            return _KEYWORDS.get(word.lower(), word)
        # Numeric literal: consume up to a delimiter, let Python decide.
        while self.peek() and self.peek() not in ",); \t\n":
            self.pos += 1
        token = self.text[start:self.pos]
        if not token:
            raise self.error("expected a parameter value")
        for cast in (int, float):
            try:
                return cast(token)
            except ValueError:
                continue
        raise self.error(f"invalid value {token!r}", position=start)


def parse_pipeline_spec(text: str) -> list[StageSpec]:
    """Parse a spec string into :class:`StageSpec` stages."""
    cursor = _Cursor(text)
    stages: list[StageSpec] = []
    while True:
        cursor.skip_ws()
        if cursor.pos >= len(text):
            break
        stage_name = cursor.name("a pass name")
        kwargs: dict = {}
        cursor.skip_ws()
        if cursor.peek() == "(":
            cursor.pos += 1
            cursor.skip_ws()
            while cursor.peek() != ")":
                param_start = cursor.pos
                param = cursor.name("a parameter name")
                if param in kwargs:
                    raise cursor.error(
                        f"duplicate parameter {param!r}", position=param_start
                    )
                cursor.skip_ws()
                if cursor.peek() != "=":
                    raise cursor.error(f"expected '=' after {param!r}")
                cursor.pos += 1
                kwargs[param] = cursor.value()
                cursor.skip_ws()
                if cursor.peek() == ",":
                    cursor.pos += 1
                    cursor.skip_ws()
                    if cursor.peek() == ")":
                        raise cursor.error("trailing comma before ')'")
                elif cursor.peek() != ")":
                    raise cursor.error(
                        "expected ',' or ')' in the parameter list"
                    )
            cursor.pos += 1
        stages.append(StageSpec(stage_name, kwargs))
        cursor.skip_ws()
        if cursor.pos >= len(text):
            break
        if cursor.peek() != ";":
            raise cursor.error("expected ';' between stages")
        cursor.pos += 1
    if not stages:
        raise PipelineError("empty pipeline spec", position=0)
    return stages


def _format_value(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "none"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    if text and all(c in _NAME_CHARS for c in text) and text[0] in _NAME_START:
        lowered = text.lower()
        if lowered in _KEYWORDS:
            return f'"{text}"'  # quote so it stays a string on reparse
        return text
    escaped = text.replace('"', "'")
    return f'"{escaped}"'


def format_stage(name: str, kwargs: dict) -> str:
    """The canonical spelling of one stage."""
    if not kwargs:
        return name
    params = ", ".join(
        f"{key}={_format_value(value)}"
        for key, value in kwargs.items()
        if value is not None
    )
    return f"{name}({params})" if params else name


def format_pipeline_spec(stages: Sequence[StageSpec]) -> str:
    """The canonical spec string for ``stages`` (round-trips with
    :func:`parse_pipeline_spec`)."""
    return "; ".join(format_stage(s.name, s.kwargs) for s in stages)


def build_pipeline(spec: str, options=None):
    """Parse ``spec`` and instantiate every stage through the registry.

    With the run's ``options``, every ``powder``/``window`` stage also
    resolves its options against them, so a stage whose overrides clash
    with the run's (``window`` under a delay constraint) raises
    :class:`~repro.errors.PipelineError` before any stage runs.
    """
    from repro.pipeline.passes import PowderPass, make_pass

    passes = [
        make_pass(stage.name, stage.kwargs)
        for stage in parse_pipeline_spec(spec)
    ]
    if options is not None:
        for stage in passes:
            if isinstance(stage, PowderPass):
                stage.stage_options(options)
    return passes
