"""Canonical JSON round-trips for everything the service puts on the wire.

The dedup cache is keyed by canonical option/spec text, so serialization
must be total (every field), canonical (a fixed point under re-encode),
and closed (unknown fields rejected, never silently dropped).  This is
the regression suite for that contract: a new ``OptimizeOptions`` or
``CandidateOptions`` field added without wire support fails here, by
name, before it can corrupt cache keys.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.telemetry import deterministic_json
from repro.transform.candidates import CandidateOptions
from repro.transform.optimizer import OptimizeOptions
from repro.power.temporal import TemporalSpec

#: One non-default value per OptimizeOptions field (``trace`` excluded:
#: it is process-local by design and must never serialize).
NON_DEFAULT_OPTIONS = {
    "objective": "area",
    "repeat": 9,
    "delay_limit": 12.5,
    "delay_slack_percent": 7.5,
    "candidates": {"enable_os3": False, "max_per_target": 3},
    "num_patterns": 4096,
    "seed": 1234,
    "input_probs": {"a": 0.25, "b": 0.75},
    "input_temporal_specs": {"a": {"p1": 0.5, "activity": 0.125}},
    "preselect": 5,
    "min_gain": 0.001,
    "gain_threshold_fraction": 0.2,
    "max_moves": 42,
    "max_rounds": 6,
    "sanitize": True,
    "windowed": True,
    "window_size": 500,
    "window_radius": 5,
    "jobs": 4,
}

NON_DEFAULT_CANDIDATES = {
    "enable_os2": False,
    "enable_is2": False,
    "enable_os3": False,
    "enable_is3": False,
    "allow_inversion": False,
    "max_per_target": 7,
    "max_total": 99,
    "pair_source_limit": 11,
    "os3_cells": ("nand2", "nor2"),
    "min_quick_gain": 0.01,
    "constant_substitution": True,
}


def test_every_options_field_has_a_non_default_case():
    """Adding a field without extending this suite fails here, by name."""
    covered = set(NON_DEFAULT_OPTIONS) | {"trace"}
    declared = {f.name for f in fields(OptimizeOptions)}
    assert declared == covered, (
        "OptimizeOptions fields without wire-format coverage: "
        f"{sorted(declared - covered)}; stale cases: "
        f"{sorted(covered - declared)}"
    )


def test_every_candidates_field_has_a_non_default_case():
    covered = set(NON_DEFAULT_CANDIDATES)
    declared = {f.name for f in fields(CandidateOptions)}
    assert declared == covered, (
        "CandidateOptions fields without wire-format coverage: "
        f"{sorted(declared - covered)}; stale cases: "
        f"{sorted(covered - declared)}"
    )


@pytest.mark.parametrize("name", sorted(NON_DEFAULT_OPTIONS))
def test_options_field_roundtrips(name):
    """Each field survives to_dict → from_dict and changes the canonical
    text relative to the defaults (so it participates in cache keys)."""
    options = OptimizeOptions.from_dict({name: NON_DEFAULT_OPTIONS[name]})
    rebuilt = OptimizeOptions.from_dict(options.to_dict())
    assert rebuilt == options
    assert rebuilt.canonical_json() == options.canonical_json()
    assert options.canonical_json() != OptimizeOptions().canonical_json()


@pytest.mark.parametrize("name", sorted(NON_DEFAULT_CANDIDATES))
def test_candidates_field_roundtrips(name):
    candidates = CandidateOptions.from_dict(
        {name: NON_DEFAULT_CANDIDATES[name]}
    )
    rebuilt = CandidateOptions.from_dict(candidates.to_dict())
    assert rebuilt == candidates
    assert rebuilt.to_dict() != CandidateOptions().to_dict()


def test_all_fields_at_once_roundtrip():
    merged = dict(NON_DEFAULT_OPTIONS,
                  candidates=dict(NON_DEFAULT_CANDIDATES))
    # delay_limit/delay_slack_percent are mutually exclusive, and the
    # windowed mode forbids delay constraints and temporal specs
    merged.pop("delay_slack_percent")
    merged["windowed"] = False
    options = OptimizeOptions.from_dict(merged)
    rebuilt = OptimizeOptions.from_dict(options.to_dict())
    assert rebuilt == options
    assert rebuilt.candidates == options.candidates
    assert isinstance(
        rebuilt.input_temporal_specs["a"], TemporalSpec
    )


def test_canonical_json_is_a_fixed_point():
    merged = dict(NON_DEFAULT_OPTIONS)
    merged.pop("delay_slack_percent")
    merged["windowed"] = False
    options = OptimizeOptions.from_dict(merged)
    text = options.canonical_json()
    again = OptimizeOptions.from_dict(json.loads(text)).canonical_json()
    assert again == text


def test_canonical_json_is_deterministic_json():
    options = OptimizeOptions()
    assert options.canonical_json() == deterministic_json(options.to_dict())
    # byte-stability: key order in the input dict must not matter
    shuffled = dict(reversed(list(options.to_dict().items())))
    assert deterministic_json(shuffled) == options.canonical_json()


def test_unknown_fields_rejected_by_name():
    # Deleted knobs are unknown fields like any other.
    for name in ("bogus_knob", "incremental", "permissibility",
                 "analysis_prune", "backtrack_limit", "self_check",
                 "verbose", "dedupe_first", "window_verify"):
        with pytest.raises(ValueError, match=name):
            OptimizeOptions.from_dict({name: 1})
    with pytest.raises(ValueError, match="nope"):
        CandidateOptions.from_dict({"nope": True})


def test_trace_never_serializes():
    options = OptimizeOptions()
    options.trace = object()
    with pytest.raises(ValueError, match="trace"):
        options.to_dict()
    with pytest.raises(ValueError, match="trace"):
        OptimizeOptions.from_dict({"trace": {"anything": 1}})


def test_pipeline_spec_canonical_form_is_a_fixed_point():
    from repro.pipeline.spec import format_pipeline_spec, parse_pipeline_spec

    noisy = " powder( max_rounds = 2 , repeat = 5 ) ; lint() "
    canonical = format_pipeline_spec(parse_pipeline_spec(noisy))
    assert canonical == format_pipeline_spec(
        parse_pipeline_spec(canonical)
    )
