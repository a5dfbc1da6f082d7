"""Pipeline-spec mini-language: parsing, round-trips, positioned errors."""

from __future__ import annotations

import pytest

from repro.errors import PipelineError
from repro.pipeline import (
    StageSpec,
    build_pipeline,
    format_pipeline_spec,
    format_stage,
    parse_pipeline_spec,
)
from repro.pipeline.passes import DedupePass, PowderPass, SweepPass


class TestParsing:
    def test_plain_stages(self):
        stages = parse_pipeline_spec("dedupe; powder; sweep")
        assert [s.name for s in stages] == ["dedupe", "powder", "sweep"]
        assert all(s.kwargs == {} for s in stages)

    def test_whitespace_and_trailing_semicolon(self):
        stages = parse_pipeline_spec("  dedupe ;\n powder ;  ")
        assert [s.name for s in stages] == ["dedupe", "powder"]

    def test_value_typing(self):
        (stage,) = parse_pipeline_spec(
            "powder(repeat=25, min_gain=1e-6, objective=power, "
            "sanitize=false, max_moves=none, windowed=TRUE)"
        )
        assert stage.kwargs == {
            "repeat": 25,
            "min_gain": 1e-6,
            "objective": "power",
            "sanitize": False,
            "max_moves": None,
            "windowed": True,
        }
        assert isinstance(stage.kwargs["repeat"], int)
        assert isinstance(stage.kwargs["min_gain"], float)

    def test_quoted_strings(self):
        (stage,) = parse_pipeline_spec(
            "lint(select=\"N001,N002\", ignore='P001')"
        )
        assert stage.kwargs == {"select": "N001,N002", "ignore": "P001"}

    def test_empty_parens(self):
        (stage,) = parse_pipeline_spec("sweep()")
        assert stage == StageSpec("sweep", {})


class TestRoundTrip:
    SPECS = [
        "dedupe; powder(repeat=25, objective=power); sweep",
        "powder(min_gain=1e-06, sanitize=false, max_rounds=3)",
        "lint(fail_on=warning, select=\"N001,N002\")",
        "sweep",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_parse_format_parse(self, spec):
        stages = parse_pipeline_spec(spec)
        assert parse_pipeline_spec(format_pipeline_spec(stages)) == stages

    def test_canonical_spelling(self):
        stages = parse_pipeline_spec(
            "dedupe ;powder( repeat = 25 ,objective=power )"
        )
        assert (
            format_pipeline_spec(stages)
            == "dedupe; powder(repeat=25, objective=power)"
        )

    def test_keyword_colliding_string_stays_quoted(self):
        # A *string* "true" must not reparse as the boolean.
        text = format_stage("lint", {"fail_on": "true"})
        assert text == 'lint(fail_on="true")'
        (stage,) = parse_pipeline_spec(text)
        assert stage.kwargs == {"fail_on": "true"}

    def test_pass_spec_round_trips_through_instances(self):
        passes = build_pipeline("dedupe; powder(repeat=5); sweep")
        spec = "; ".join(p.spec() for p in passes)
        assert spec == "dedupe; powder(repeat=5); sweep"


class TestErrors:
    @pytest.mark.parametrize(
        "spec,fragment,position",
        [
            ("", "empty pipeline spec", 0),
            ("   ", "empty pipeline spec", 0),
            ("powder(", "expected a parameter name", 7),
            ("powder(repeat)", "expected '=' after 'repeat'", 13),
            ("powder(repeat=25,)", "trailing comma", 17),
            ("powder(repeat=25 seed=1)", "expected ',' or ')'", 17),
            ("powder(repeat=1, repeat=2)", "duplicate parameter", 17),
            ("powder(seed='12)", "unterminated string", 12),
            ("powder(seed=1.2.3)", "invalid value '1.2.3'", 12),
            ("dedupe powder", "expected ';' between stages", 7),
            ("; dedupe", "expected a pass name", 0),
        ],
    )
    def test_malformed_specs_carry_positions(self, spec, fragment, position):
        with pytest.raises(PipelineError) as excinfo:
            parse_pipeline_spec(spec)
        assert fragment in str(excinfo.value)
        assert excinfo.value.position == position
        if position:
            assert f"column {position}" in str(excinfo.value)


class TestBuildPipeline:
    def test_instantiates_registered_passes(self):
        passes = build_pipeline("dedupe; powder(repeat=5); sweep")
        assert isinstance(passes[0], DedupePass)
        assert isinstance(passes[1], PowderPass)
        assert passes[1].params == {"repeat": 5}
        assert isinstance(passes[2], SweepPass)

    def test_unknown_pass_lists_registry(self):
        with pytest.raises(PipelineError, match="unknown pass 'polish'"):
            build_pipeline("dedupe; polish")

    def test_unknown_powder_option(self):
        with pytest.raises(PipelineError, match="unknown powder option"):
            build_pipeline("powder(turbo=true)")

    def test_rejected_parameters_name_the_signature(self):
        with pytest.raises(PipelineError, match="rejected its parameters"):
            build_pipeline("resynth(mode=power, extra=1)")

    def test_bad_resynth_mode(self):
        with pytest.raises(PipelineError, match="unknown resynth mode"):
            build_pipeline("resynth(mode=fast)")
