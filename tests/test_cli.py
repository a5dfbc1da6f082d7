"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.library.standard import STANDARD_GENLIB

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
RD53 = str(BENCHMARKS / "blif" / "rd53.blif")
NANDNOR = str(BENCHMARKS / "genlib" / "nandnor.genlib")

#: Every subcommand that takes ``--patterns``, with its required arguments.
PATTERN_COMMANDS = {
    "table1": ["table1", "--circuits", "rd53"],
    "table2": ["table2", "--circuits", "rd53"],
    "figure6": ["figure6", "--circuits", "rd53"],
    "optimize": ["optimize", RD53],
    "pipeline-run": ["pipeline", "run", RD53],
    "retarget": ["retarget", RD53, "--to", NANDNOR],
    "atpg": ["atpg", RD53],
    "stats": ["stats", RD53],
    "lint": ["lint", RD53],
    "analyze": ["analyze", RD53],
    "fuzz": ["fuzz", "--count", "1"],
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_args(self):
        args = build_parser().parse_args(
            ["table1", "--patterns", "512", "--circuits", "rd53"]
        )
        assert args.patterns == 512
        assert args.circuits == ["rd53"]

    @pytest.mark.parametrize("command", sorted(PATTERN_COMMANDS))
    def test_bad_pattern_count_is_usage_error(self, command, capsys):
        for bad in ("0", "100", "-64"):
            with pytest.raises(SystemExit) as exit_info:
                main(PATTERN_COMMANDS[command] + ["--patterns", bad])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "error: argument --patterns" in err
            assert "multiple of 64" in err and f"got {bad}" in err

    def test_optimize_args(self):
        args = build_parser().parse_args(
            ["optimize", "x.blif", "--delay-slack", "0"]
        )
        assert args.netlist == "x.blif"
        assert args.delay_slack == 0.0


#: Option values the optimizer or an experiment refuses, with the one
#: line each must print.
REJECTED_SETTINGS = [
    (
        ["optimize", RD53, "--windowed", "--trace", "unused.json"],
        "windowed optimization does not support tracing: per-window "
        "traces do not compose into one RunTrace",
    ),
    (
        ["optimize", RD53, "--windowed", "--delay-slack", "0"],
        "windowed optimization does not support delay constraints: "
        "window-local slack cannot see external paths, so the constraint "
        "would not be enforced",
    ),
    (["optimize", RD53, "--repeat", "-1"], "repeat must be non-negative, got -1"),
    (["optimize", RD53, "--max-rounds", "0"], "max_rounds must be positive, got 0"),
    (
        ["optimize", RD53, "--max-moves", "-1"],
        "max_moves must be non-negative, got -1",
    ),
    (
        ["optimize", RD53, "--windowed", "--jobs", "0"],
        "jobs must be positive, got 0",
    ),
    (
        ["optimize", RD53, "--windowed", "--window-size", "0"],
        "window_size must be positive, got 0",
    ),
    (
        ["pipeline", "run", RD53, "--repeat", "-1"],
        "repeat must be non-negative, got -1",
    ),
    (
        ["fuzz", "--count", "1", "--max-moves", "-1"],
        "max_moves must be non-negative, got -1",
    ),
    (
        ["table1", "--circuits", "rd53", "--repeat", "-1"],
        "repeat must be non-negative, got -1",
    ),
]


class TestRejectedSettings:
    @pytest.mark.parametrize(
        "argv, message",
        REJECTED_SETTINGS,
        ids=[
            " ".join("rd53" if arg == RD53 else arg for arg in argv)
            for argv, _message in REJECTED_SETTINGS
        ],
    )
    def test_is_one_error_line_before_any_work(
        self, argv, message, monkeypatch, capsys
    ):
        import repro.cli
        import repro.fuzz

        def no_work(*_args, **_kwargs):
            raise AssertionError("a rejected setting must not start work")

        monkeypatch.setattr(repro.cli, "_load_mapped_netlist", no_work)
        monkeypatch.setattr(repro.cli, "run_table1", no_work)
        monkeypatch.setattr(repro.fuzz, "run_fuzz", no_work)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("pairs", ["0", "-5"])
    def test_glitch_pair_count_below_one_is_usage_error(self, pairs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["glitch", RD53, "--pairs", pairs])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --pairs: must be at least 1, got {pairs}" in err


class TestCommands:
    def test_bench_list(self, capsys):
        assert main(["bench-list"]) == 0
        out = capsys.readouterr().out
        assert "comp" in out and "9sym" in out

    def test_synth_and_optimize_pipeline(self, tmp_path, capsys):
        pla = tmp_path / "maj.pla"
        pla.write_text(
            ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n1-1 1\n-11 1\n.e\n"
        )
        mapped = tmp_path / "maj.blif"
        assert main(["synth", str(pla), "-o", str(mapped)]) == 0
        assert mapped.exists()
        optimized = tmp_path / "opt.blif"
        assert (
            main(
                [
                    "optimize",
                    str(mapped),
                    "-o",
                    str(optimized),
                    "--patterns",
                    "512",
                    "--max-rounds",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "POWDER result" in out
        assert optimized.exists()

    def test_synth_to_stdout(self, tmp_path, capsys):
        pla = tmp_path / "f.pla"
        pla.write_text(".i 2\n.o 1\n11 1\n.e\n")
        assert main(["synth", str(pla)]) == 0
        assert ".gate" in capsys.readouterr().out

    def test_optimize_with_custom_library(self, tmp_path, capsys):
        genlib = tmp_path / "lib.genlib"
        genlib.write_text(STANDARD_GENLIB)
        pla = tmp_path / "f.pla"
        pla.write_text(".i 2\n.o 1\n11 1\n.e\n")
        mapped = tmp_path / "f.blif"
        assert (
            main(["synth", str(pla), "--library", str(genlib), "-o", str(mapped)])
            == 0
        )
        assert (
            main(
                [
                    "optimize",
                    str(mapped),
                    "--library",
                    str(genlib),
                    "--patterns",
                    "512",
                    "--max-rounds",
                    "1",
                ]
            )
            == 0
        )

    def test_table1_tiny(self, capsys):
        assert (
            main(
                [
                    "table1",
                    "--circuits",
                    "sqrt8",
                    "--patterns",
                    "512",
                    "--repeat",
                    "4",
                    "--max-rounds",
                    "1",
                    "--max-moves",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sqrt8" in out and "reduction%" in out


class TestUtilityCommands:
    @pytest.fixture
    def mapped_blif(self, tmp_path):
        pla = tmp_path / "maj.pla"
        pla.write_text(
            ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n1-1 1\n-11 1\n.e\n"
        )
        out = tmp_path / "maj.blif"
        assert main(["synth", str(pla), "-o", str(out)]) == 0
        return out

    def test_verify_equal(self, mapped_blif, capsys):
        assert main(["verify", str(mapped_blif), str(mapped_blif)]) == 0
        assert "equal" in capsys.readouterr().out

    def test_verify_not_equal(self, mapped_blif, tmp_path, capsys):
        pla = tmp_path / "and3.pla"
        pla.write_text(".i 3\n.o 1\n.ilb a b c\n.ob f\n111 1\n.e\n")
        other = tmp_path / "and3.blif"
        assert main(["synth", str(pla), "-o", str(other)]) == 0
        assert main(["verify", str(mapped_blif), str(other)]) == 1
        out = capsys.readouterr().out
        assert "not-equal" in out and "counterexample" in out

    def test_verify_different_input_sets_is_one_error_line(self, capsys):
        misex1 = str(BENCHMARKS / "blif" / "misex1.blif")
        assert main(["verify", RD53, misex1]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "primary-input sets" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_multi_input_names_is_one_error_line(
        self, command, tmp_path, capsys
    ):
        blif = tmp_path / "logic.blif"
        blif.write_text(
            ".model m\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n"
        )
        argv = [command, str(blif)] + ([str(blif)] if command == "verify" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: line 4: .names with multiple inputs is not a "
            "mapped-netlist construct\n"
        )

    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_missing_input_is_one_error_line(self, command, tmp_path, capsys):
        missing = str(tmp_path / "nope.blif")
        argv = [command, missing] + ([RD53] if command == "verify" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "nope.blif" in captured.err
        assert captured.err.count("\n") == 1

    def test_serve_rejects_a_bad_setting_with_exit_2(self, monkeypatch, capsys):
        import repro.serve

        def no_server(*_args, **_kwargs):
            raise AssertionError("a rejected setting must not start a server")

        monkeypatch.setattr(repro.serve, "PowderServer", no_server)
        assert main(["serve", "--workers", "0", "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: workers must be >= 1, got 0\n"

    def test_atpg_report(self, mapped_blif, capsys):
        assert main(["atpg", str(mapped_blif), "--patterns", "256"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out

    def test_atpg_classifies_a_redundant_fault(self, tmp_path, capsys):
        # y = ab + abc: the second term is absorbed, so abc/sa0 is
        # redundant and no random pattern can detect it.
        from repro.library.standard import standard_library
        from repro.netlist.blif import write_blif
        from repro.netlist.build import NetlistBuilder

        builder = NetlistBuilder(standard_library(), "absorb")
        a, b, c = builder.inputs("a", "b", "c")
        ab = builder.and_(a, b, name="ab")
        abc = builder.and_(ab, c, name="abc")
        builder.output("y", builder.or_(ab, abc, name="y_g"))
        blif = tmp_path / "absorb.blif"
        blif.write_text(write_blif(builder.build()))
        assert main(["atpg", str(blif), "--patterns", "256"]) == 0
        out = capsys.readouterr().out
        assert "classifying with SAT" in out
        verdicts = dict(line.split() for line in out.splitlines()[2:])
        assert verdicts["abc/sa0"] == "redundant"

    def test_glitch_report(self, mapped_blif, capsys):
        assert main(["glitch", str(mapped_blif), "--pairs", "64"]) == 0
        out = capsys.readouterr().out
        assert "glitch share" in out

    def test_synth_logic_blif_input(self, tmp_path, capsys):
        logic = tmp_path / "fa.blif"
        logic.write_text(
            ".inputs a b\n.outputs y\n.names a b t\n11 1\n"
            ".names t y\n0 1\n.end\n"
        )
        mapped = tmp_path / "fa_mapped.blif"
        assert main(["synth", str(logic), "-o", str(mapped)]) == 0
        assert mapped.exists()

    def test_synth_delay_mode(self, tmp_path):
        pla = tmp_path / "f.pla"
        pla.write_text(".i 2\n.o 1\n11 1\n.e\n")
        out = tmp_path / "f.blif"
        assert main(["synth", str(pla), "--mode", "delay", "-o", str(out)]) == 0

    def test_stats_report(self, mapped_blif, capsys):
        assert main(["stats", str(mapped_blif), "--patterns", "256"]) == 0
        out = capsys.readouterr().out
        assert "cell mix" in out and "power (sum CE)" in out

    def test_optimize_area_objective(self, mapped_blif, capsys):
        assert (
            main(
                [
                    "optimize", str(mapped_blif), "--objective", "area",
                    "--patterns", "256", "--max-rounds", "1",
                ]
            )
            == 0
        )
        assert "POWDER result" in capsys.readouterr().out

    def test_table2_tiny(self, capsys):
        assert (
            main(
                [
                    "table2", "--circuits", "sqrt8", "--patterns", "512",
                    "--repeat", "4", "--max-rounds", "1", "--max-moves", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "OS2" in out and "paper" in out

    def test_optimize_sanitize_flag(self, mapped_blif, capsys):
        assert (
            main(
                [
                    "optimize", str(mapped_blif), "--sanitize",
                    "--patterns", "256", "--max-rounds", "1",
                ]
            )
            == 0
        )
        assert "POWDER result" in capsys.readouterr().out

    def test_figure6_tiny(self, capsys):
        # Note: the CLI sweeps DEFAULT_SLACK_PERCENTS; restrict circuits to
        # the smallest and cap effort to keep this test quick.
        from repro.experiments.figure6 import run_figure6, format_figure6
        from repro.experiments.common import ExperimentConfig

        result = run_figure6(
            circuits=["sqrt8"],
            slack_percents=(0, 200),
            config=ExperimentConfig(
                num_patterns=512, repeat=4, max_rounds=1, max_moves=3
            ),
        )
        text = format_figure6(result)
        assert "trade-off" in text


class TestTraceCommands:
    @pytest.fixture
    def mapped_blif(self, tmp_path):
        pla = tmp_path / "maj.pla"
        pla.write_text(
            ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n1-1 1\n-11 1\n.e\n"
        )
        out = tmp_path / "maj.blif"
        assert main(["synth", str(pla), "-o", str(out)]) == 0
        return out

    @pytest.fixture
    def trace_file(self, mapped_blif, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        assert (
            main(
                [
                    "optimize", str(mapped_blif), "--trace", str(out),
                    "--patterns", "256", "--max-rounds", "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        return out

    def test_optimize_writes_schema_valid_trace(self, trace_file):
        from repro.telemetry import read_trace

        trace = read_trace(trace_file)  # read_trace validates
        assert trace.summary["moves"] == len(trace.moves)

    def test_trace_show(self, trace_file, capsys):
        assert main(["trace", "show", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "schema v1" in out and "rounds" in out

    def test_trace_show_caps_moves(self, trace_file, capsys):
        assert main(["trace", "show", str(trace_file), "--moves", "0"]) == 0
        assert "#1" not in capsys.readouterr().out

    def test_trace_diff_identical(self, trace_file, capsys):
        assert (
            main(["trace", "diff", str(trace_file), str(trace_file)]) == 0
        )
        assert "identical" in capsys.readouterr().out

    def test_trace_diff_divergent_exits_nonzero(
        self, trace_file, tmp_path, capsys
    ):
        from repro.telemetry import read_trace, write_trace

        trace = read_trace(trace_file)
        trace.counters["atpg_calls"] = trace.counters.get("atpg_calls", 0) + 1
        other = tmp_path / "other.trace.json"
        write_trace(trace, other)
        assert main(["trace", "diff", str(trace_file), str(other)]) == 1
        assert "atpg_calls" in capsys.readouterr().out

    def test_trace_diff_tolerance_flag(self, trace_file, capsys):
        assert (
            main(
                [
                    "trace", "diff", str(trace_file), str(trace_file),
                    "--tolerance", "1e-9",
                ]
            )
            == 0
        )

    def test_unreadable_trace_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["trace", "show", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "cannot read" in captured.err
        # diff exits 1 on differing traces, so an unreadable one is 2.
        assert main(["trace", "diff", str(bad), str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestLintCommand:
    @pytest.fixture
    def mapped_blif(self, tmp_path):
        pla = tmp_path / "maj.pla"
        pla.write_text(
            ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n1-1 1\n-11 1\n.e\n"
        )
        out = tmp_path / "maj.blif"
        assert main(["synth", str(pla), "-o", str(out)]) == 0
        return out

    @pytest.fixture
    def dangling_blif(self, tmp_path):
        """A parseable BLIF whose netlist carries a zero-fanout gate."""
        from repro.library.standard import standard_library
        from repro.netlist.blif import parse_blif_file, write_blif

        library = standard_library()
        pla = tmp_path / "maj.pla"
        pla.write_text(
            ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n1-1 1\n-11 1\n.e\n"
        )
        mapped = tmp_path / "maj.blif"
        assert main(["synth", str(pla), "-o", str(mapped)]) == 0
        netlist = parse_blif_file(mapped, library)
        netlist.add_gate(
            library.inverter(), [netlist.gate("a")], name="dead_inv"
        )
        out = tmp_path / "dangling.blif"
        out.write_text(write_blif(netlist))
        return out

    def test_clean_netlist_exits_zero(self, mapped_blif, capsys):
        assert main(["lint", str(mapped_blif), "--patterns", "256"]) == 0
        out = capsys.readouterr().out
        assert "clean: no findings" in out

    def test_json_format(self, mapped_blif, capsys):
        import json

        assert (
            main(
                [
                    "lint", str(mapped_blif), "--format", "json",
                    "--patterns", "256",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "N001" in out and "Q001" in out and "P001" in out

    def test_missing_netlist_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "required" in captured.err

    def test_warning_finding_and_fail_on(self, dangling_blif, capsys):
        # Warnings alone do not fail the default (error) threshold...
        assert main(["lint", str(dangling_blif), "--patterns", "256"]) == 0
        out = capsys.readouterr().out
        assert "Q001" in out and "dead_inv" in out
        # ...but do fail --fail-on warning, with a nonzero exit code.
        assert (
            main(
                [
                    "lint", str(dangling_blif), "--fail-on", "warning",
                    "--patterns", "256",
                ]
            )
            == 1
        )

    def test_warning_finding_json(self, dangling_blif, capsys):
        import json

        assert (
            main(
                [
                    "lint", str(dangling_blif), "--format", "json",
                    "--fail-on", "warning", "--patterns", "256",
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        (diag,) = [
            d for d in payload["diagnostics"] if d["rule"] == "Q001"
        ]
        assert diag["gate"] == "dead_inv"

    def test_select_and_ignore(self, dangling_blif, capsys):
        assert (
            main(
                [
                    "lint", str(dangling_blif), "--ignore", "Q001",
                    "--fail-on", "warning", "--patterns", "256",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "lint", str(dangling_blif), "--select", "N001,N005",
                    "--fail-on", "warning", "--no-probabilities",
                ]
            )
            == 0
        )


class TestPipelineCommand:
    @pytest.fixture
    def mapped_blif(self, tmp_path):
        pla = tmp_path / "maj.pla"
        pla.write_text(
            ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n1-1 1\n-11 1\n.e\n"
        )
        out = tmp_path / "maj.blif"
        assert main(["synth", str(pla), "-o", str(out)]) == 0
        return out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["pipeline", "run", "x.blif"])
        assert args.netlist == "x.blif"
        assert args.spec == "powder"
        assert not args.list_passes

    def test_list_passes_catalog(self, capsys):
        assert main(["pipeline", "run", "--list-passes"]) == 0
        out = capsys.readouterr().out
        for name in ("dedupe", "powder", "sweep", "lint", "resynth"):
            assert name in out
        assert "sanitize" not in out
        assert "parameters:" in out

    def test_missing_netlist_is_usage_error(self, capsys):
        assert main(["pipeline", "run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "required" in captured.err

    def test_invalid_spec_reports_position(self, mapped_blif, capsys):
        assert (
            main(
                [
                    "pipeline", "run", str(mapped_blif),
                    "--spec", "dedupe powder",
                ]
            )
            == 2
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "column 7" in captured.err

    def test_unknown_pass_is_usage_error(self, mapped_blif, capsys):
        assert (
            main(["pipeline", "run", str(mapped_blif), "--spec", "polish"])
            == 2
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown pass 'polish'" in captured.err

    def test_run_spec_writes_outputs(self, mapped_blif, tmp_path, capsys):
        out_blif = tmp_path / "opt.blif"
        trace = tmp_path / "run.trace.json"
        assert (
            main(
                [
                    "pipeline", "run", str(mapped_blif),
                    "--spec", "dedupe; powder(repeat=3, max_rounds=1); sweep",
                    "--patterns", "512",
                    "-o", str(out_blif),
                    "--trace", str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pipeline: dedupe; powder(repeat=3, max_rounds=1); sweep" in out
        for stage in ("dedupe", "powder", "sweep", "total"):
            assert stage in out
        assert out_blif.exists() and trace.exists()


class TestLintAnalysisFlags:
    @pytest.fixture
    def mapped_blif(self, tmp_path):
        pla = tmp_path / "maj.pla"
        pla.write_text(
            ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n1-1 1\n-11 1\n.e\n"
        )
        out = tmp_path / "maj.blif"
        assert main(["synth", str(pla), "-o", str(out)]) == 0
        return out

    def test_unknown_rule_id_exits_two(self, mapped_blif, capsys):
        assert (
            main(["lint", str(mapped_blif), "--select", "S003,BOGUS"]) == 2
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown rule ID 'BOGUS'" in captured.err

    def test_explain_prints_docstring_and_severity(self, capsys):
        assert main(["lint", "--explain", "S003"]) == 0
        out = capsys.readouterr().out
        assert "S003" in out
        assert "severity:" in out
        # The rule docstring, not a one-liner: the exemptions paragraph.
        assert "phase" in out.lower()

    def test_explain_covers_builtin_rules_too(self, capsys):
        assert main(["lint", "--explain", "N005"]) == 0
        assert "N005" in capsys.readouterr().out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--explain", "S999"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown rule ID" in captured.err

    def test_facts_flag_enables_s_rules(self, mapped_blif, capsys):
        assert (
            main(
                [
                    "lint", str(mapped_blif), "--facts",
                    "--select", "S001,S002,S003,S004",
                    "--patterns", "256",
                ]
            )
            == 0
        )
        capsys.readouterr()


class TestAnalyzeCommand:
    @pytest.fixture
    def mapped_blif(self, tmp_path):
        pla = tmp_path / "maj.pla"
        pla.write_text(
            ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n1-1 1\n-11 1\n.e\n"
        )
        out = tmp_path / "maj.blif"
        assert main(["synth", str(pla), "-o", str(out)]) == 0
        return out

    def test_text_report(self, mapped_blif, capsys):
        assert main(["analyze", str(mapped_blif)]) == 0
        out = capsys.readouterr().out
        assert "facts" in out

    def test_json_report(self, mapped_blif, capsys):
        import json

        assert main(["analyze", str(mapped_blif), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["netlist"] == "maj"
        assert "soundness" not in payload

    def test_check_soundness_exit_zero_when_sound(self, mapped_blif, capsys):
        assert main(["analyze", str(mapped_blif), "--check-soundness"]) == 0
        out = capsys.readouterr().out
        assert "0 unsound" in out

    def test_check_soundness_json_payload(self, mapped_blif, capsys):
        import json

        assert (
            main(
                [
                    "analyze", str(mapped_blif),
                    "--check-soundness", "--format", "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["soundness"]["ok"] is True
        assert payload["soundness"]["unsound"] == []

    def test_missing_netlist_raises_like_other_commands(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "nope.blif"
        assert main(["analyze", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "nope.blif" in captured.err
        assert captured.err.count("\n") == 1


class TestRetargetCommand:
    NANDNOR = "benchmarks/genlib/nandnor.genlib"

    @pytest.fixture
    def mapped_blif(self, tmp_path):
        pla = tmp_path / "maj.pla"
        pla.write_text(
            ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n1-1 1\n-11 1\n.e\n"
        )
        out = tmp_path / "maj.blif"
        assert main(["synth", str(pla), "-o", str(out)]) == 0
        return out

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["retarget", "x.blif", "--to", "alt.genlib"]
        )
        assert args.to == "alt.genlib"
        assert args.mode == "power"
        assert not args.bdd
        assert not args.no_verify

    def test_structural_retarget(self, mapped_blif, tmp_path, capsys):
        out = tmp_path / "re.blif"
        assert (
            main(
                [
                    "retarget", str(mapped_blif), "--to", self.NANDNOR,
                    "--patterns", "256", "-o", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "retarget" in text and "equal" in text
        assert out.exists()
        # The output must be parseable against the target library and
        # reference only its cells.
        from repro.library.genlib import parse_genlib_file
        from repro.netlist.blif import parse_blif

        target = parse_genlib_file(self.NANDNOR)
        netlist = parse_blif(out.read_text(), target)
        for gate in netlist.logic_gates():
            assert gate.cell.name.startswith("g_")

    def test_bdd_retarget(self, mapped_blif, capsys):
        assert (
            main(
                [
                    "retarget", str(mapped_blif), "--to", self.NANDNOR,
                    "--bdd", "--patterns", "256",
                ]
            )
            == 0
        )
        assert "equal" in capsys.readouterr().out

    def test_no_verify_skips_oracle(self, mapped_blif, capsys):
        assert (
            main(
                [
                    "retarget", str(mapped_blif), "--to", self.NANDNOR,
                    "--patterns", "256", "--no-verify",
                ]
            )
            == 0
        )
        assert "oracle" not in capsys.readouterr().out

    def test_retarget_to_same_library_is_identity_friendly(
        self, mapped_blif, tmp_path, capsys
    ):
        assert (
            main(
                [
                    "retarget", str(mapped_blif), "--to",
                    str(_write_standard_genlib(tmp_path)),
                    "--patterns", "256",
                ]
            )
            == 0
        )
        assert "equal" in capsys.readouterr().out


def _write_standard_genlib(tmp_path):
    path = tmp_path / "std.genlib"
    path.write_text(STANDARD_GENLIB)
    return path
