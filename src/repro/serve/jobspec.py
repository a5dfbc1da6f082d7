"""Job canonicalization: wire payload → validated, hashable job spec.

Deduplication is only sound if "identical submission" is a syntactic
property, so every accepted job is normalised before it is keyed:

- the BLIF text is parsed against the server library and re-emitted by
  :func:`~repro.netlist.blif.write_blif`, giving one canonical text per
  netlist regardless of comment placement, line wrapping, or cover-row
  order in the submission,
- the pipeline spec (when given) round-trips through
  :func:`~repro.pipeline.spec.parse_pipeline_spec` /
  :func:`~repro.pipeline.spec.format_pipeline_spec`, so ``powder( repeat=5 )``
  and ``powder(repeat=5)`` are the same job,
- the options dictionary becomes a full
  :class:`~repro.transform.optimizer.OptimizeOptions` (defaults filled,
  unknown knobs rejected) and is serialized back with
  :meth:`~repro.transform.optimizer.OptimizeOptions.canonical_json`.

The cache key is the SHA-256 over those three canonical texts; two
submissions share a key iff the optimizer would do byte-identical work
for both.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import PipelineError, ReproError, ServeError
from repro.library.standard import standard_library
from repro.netlist.blif import parse_blif, write_blif
from repro.transform.optimizer import OptimizeOptions

_LIBRARY = None


def server_library():
    """The one cell library the service optimizes against (built-in)."""
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = standard_library()
    return _LIBRARY


@dataclass(frozen=True)
class JobSpec:
    """One canonicalized optimization job (the unit of dedup)."""

    #: Canonical BLIF text (parse → re-emit of the submission).
    blif: str
    #: Canonical pipeline spec, or ``None`` for one
    #: :func:`repro.transform.optimizer.power_optimize` run.
    spec: Optional[str]
    #: Canonical JSON of the full :class:`OptimizeOptions`.
    options_json: str
    #: SHA-256 hex digest over the three canonical texts.
    key: str


def _require(condition: bool, message: str, code: str) -> None:
    if not condition:
        raise ServeError(message, code=code, status=400)


def canonical_spec(text: str) -> str:
    """Round-trip a pipeline spec to its canonical formatting."""
    from repro.pipeline.spec import format_pipeline_spec, parse_pipeline_spec

    try:
        return format_pipeline_spec(parse_pipeline_spec(text))
    except PipelineError as error:
        raise ServeError(f"invalid pipeline spec: {error}",
                         code="bad-spec", status=400) from error


def canonicalize_options(options: Optional[dict]) -> OptimizeOptions:
    """Validated :class:`OptimizeOptions` from a wire dictionary."""
    _require(options is None or isinstance(options, dict),
             "'options' must be a JSON object", "bad-options")
    try:
        return OptimizeOptions.from_dict(dict(options or {}))
    except (ValueError, TypeError, ReproError) as error:
        raise ServeError(f"invalid options: {error}",
                         code="bad-options", status=400) from error


def canonicalize_job(payload: dict) -> JobSpec:
    """Validate one submission payload into a keyed :class:`JobSpec`.

    Raises :class:`~repro.errors.ServeError` (→ structured 400) on any
    malformed part; nothing about a rejected submission reaches the
    queue or a worker.
    """
    _require(isinstance(payload, dict), "submission must be a JSON object",
             "bad-request")
    blif = payload.get("blif")
    _require(isinstance(blif, str) and blif.strip() != "",
             "'blif' must be a non-empty string of BLIF text", "bad-blif")

    options = canonicalize_options(payload.get("options"))
    if options.trace is not None:  # defensive: wire options never carry one
        raise ServeError("options cannot carry a tracer",
                         code="bad-options", status=400)

    spec = payload.get("spec")
    _require(spec is None or isinstance(spec, str),
             "'spec' must be a pipeline-spec string", "bad-spec")
    spec_text = canonical_spec(spec) if spec is not None else None
    if spec_text is not None:
        # Fail unknown pass names, rejected stage overrides and stages that
        # clash with the options at submission, not inside a worker.
        from repro.pipeline import build_pipeline

        try:
            build_pipeline(spec_text, options)
        except PipelineError as error:
            raise ServeError(f"invalid pipeline spec: {error}",
                             code="bad-spec", status=400) from error

    try:
        netlist = parse_blif(blif, server_library())
    except ReproError as error:
        raise ServeError(f"invalid BLIF: {error}",
                         code="bad-blif", status=400) from error
    canonical_blif = write_blif(netlist)

    options_json = options.canonical_json()
    digest = hashlib.sha256()
    for part in (canonical_blif, spec_text or "", options_json):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return JobSpec(
        blif=canonical_blif,
        spec=spec_text,
        options_json=options_json,
        key=digest.hexdigest(),
    )
