"""Command-line interface: ``python -m repro <command>`` or ``powder``.

Commands:

- ``table1`` / ``table2`` / ``figure6`` — regenerate the paper's tables and
  figure over the benchmark suite (``--full`` for the whole registry),
- ``synth`` — synthesize a ``.pla`` or logic ``.blif`` to a mapped netlist,
- ``optimize`` — run POWDER on a mapped BLIF netlist (``--objective
  power|area|delay``, ``--delay-slack``, ``--trace out.json`` telemetry,
  Verilog export),
- ``trace`` — inspect (``show``) and compare (``diff``) the JSON run
  traces written by ``optimize --trace``; ``diff`` exits 1 on any
  deterministic-field divergence,
- ``verify`` — equivalence-check two mapped BLIFs (exit 1 when they differ
  or the check cannot decide),
- ``atpg`` — fault coverage and redundancy report,
- ``glitch`` — glitch-aware power analysis,
- ``stats`` — netlist metrics and cell mix,
- ``lint`` — rule-based findings on a mapped BLIF (``--format
  text|json``, ``--fail-on <severity>``, rule selection/suppression by
  stable ID, ``--explain <rule-id>``, ``--facts`` for the proof-backed
  S-series),
- ``analyze`` — the static fact base itself: proven constants,
  unobservable cones, phase chains, SAT-confirmed equivalence classes
  (``--check-soundness`` re-proves every fact independently),
- ``fuzz`` — differential fuzzing of the optimizer: generate seeded random
  mapped netlists, optimize, verify equivalence three independent ways,
  check metamorphic properties, and shrink failures to reproducers
  (``--shrink``, ``--corpus-dir``, ``--replay``, ``--self-test``),
- ``bench-list`` — list the benchmark registry.

Every command reports a rejected input (any
:class:`~repro.errors.ReproError`: malformed BLIF, mismatched interfaces,
a bad library...) or setting (checked before any work starts) as one
``error: <message>`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.bench.pla import parse_pla_file
from repro.bench.suite import DEFAULT_SUITE, SUITE
from repro.errors import NetlistError, ReproError
from repro.experiments.common import ExperimentConfig
from repro.experiments.figure6 import format_figure6, run_figure6
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, table2_from_runs
from repro.kernels.words import validate_num_patterns
from repro.library.genlib import parse_genlib_file
from repro.library.standard import standard_library
from repro.netlist.blif import parse_blif_file, write_blif
from repro.synth.flow import SynthesisOptions, synthesize
from repro.synth.mapper import MapOptions
from repro.transform.optimizer import OptimizeOptions, power_optimize


def _pattern_count(text: str) -> int:
    """``--patterns`` value: a positive multiple of the simulation word."""
    try:
        value = int(text)
        validate_num_patterns(value, "the pattern count")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    except NetlistError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _positive_int(text: str) -> int:
    """A count that must be at least 1 (``--pairs``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a rejected setting (ValueError)
    reported like a rejected input instead of as a traceback."""
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        raise ReproError(str(error)) from None


def _load_library(args):
    """The genlib library named by ``--library``, or the built-in one."""
    if getattr(args, "library", None):
        return parse_genlib_file(args.library)
    return standard_library()


def _load_mapped_netlist(args, attribute: str = "netlist"):
    """Shared BLIF-loading + library-binding path for every subcommand."""
    library = _load_library(args)
    return parse_blif_file(getattr(args, attribute), library), library


#: Optimizer flags (argparse ``dest``) and the ``OptimizeOptions`` field
#: each sets; ``--trace`` attaches a ``Tracer``.
_OPTION_FLAGS = {
    "objective": "objective",
    "delay_slack": "delay_slack_percent",
    "patterns": "num_patterns",
    "repeat": "repeat",
    "max_rounds": "max_rounds",
    "max_moves": "max_moves",
    "sanitize": "sanitize",
    "windowed": "windowed",
    "jobs": "jobs",
    "window_size": "window_size",
    "window_radius": "window_radius",
}


def _options_from(args, base: OptimizeOptions) -> OptimizeOptions:
    """``base`` with every optimizer flag the command declares; a value
    the options reject is reported like a rejected input."""
    overrides = {
        name: getattr(args, dest)
        for dest, name in _OPTION_FLAGS.items()
        if hasattr(args, dest)
    }
    if getattr(args, "trace", None):
        from repro.telemetry import Tracer

        overrides["trace"] = Tracer()
    return _checked(replace, base, **overrides)


def _add_optimizer_arguments(parser: argparse.ArgumentParser) -> None:
    """The optimizer flags shared by ``optimize`` and ``pipeline run``."""
    parser.add_argument("--objective", choices=("power", "area", "delay"),
                        default="power",
                        help="what each substitution must improve (default "
                        "power; pipeline stage parameters override)")
    parser.add_argument("--delay-slack", type=float, default=None,
                        help="delay constraint as %% over initial (e.g. 0)")
    parser.add_argument("--patterns", type=_pattern_count, default=2048)
    parser.add_argument("--repeat", type=int, default=25)
    parser.add_argument("--max-rounds", type=int, default=20)
    parser.add_argument("--max-moves", type=int, default=None)
    parser.add_argument(
        "--sanitize", action="store_true",
        help="validate every incremental structure after each move "
        "(slow; raises on the first diverging move)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record per-round/per-move telemetry and write the JSON run "
        "trace of the last flat powder run here (inspect with "
        "'powder trace show')",
    )


def _add_window_arguments(parser: argparse.ArgumentParser) -> None:
    """The windowed-optimization flags shared by ``optimize`` and ``fuzz``."""
    parser.add_argument(
        "--windowed", action="store_true",
        help="partition into TFI/TFO windows, optimize them in "
        "conflict-free generations on a multiprocessing pool, and merge "
        "each generation's moves (for netlists too large for "
        "whole-netlist candidate rounds)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="windowed mode: pool worker count (1 = run windows inline; "
        "default 1)",
    )
    parser.add_argument(
        "--window-size", type=int, default=80, metavar="GATES",
        help="windowed mode: max logic gates per window (default 80)",
    )
    parser.add_argument(
        "--window-radius", type=int, default=3, metavar="STEPS",
        help="windowed mode: extraction radius in fanin+fanout steps "
        "(default 3)",
    )


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--patterns", type=_pattern_count, default=2048,
        help="random patterns for probability estimation (default 2048)",
    )
    parser.add_argument(
        "--repeat", type=int, default=25,
        help="substitutions per candidate round (default 25)",
    )
    parser.add_argument(
        "--max-rounds", type=int, default=20,
        help="candidate-generation rounds cap (default 20)",
    )
    parser.add_argument(
        "--max-moves", type=int, default=None,
        help="hard cap on substitutions per circuit (default unlimited)",
    )
    parser.add_argument(
        "--circuits", nargs="*", default=None,
        help="benchmark subset (default: the paper suite)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run every registry circuit, including the large synthetic "
        "PLAs (slow)",
    )


def _config_from(args) -> ExperimentConfig:
    return ExperimentConfig(
        optimize=_options_from(args, ExperimentConfig().optimize)
    )


def _circuits_from(args):
    if args.circuits:
        return args.circuits
    if getattr(args, "full", False):
        return list(SUITE)
    return None


def _cmd_table1(args) -> int:
    config = _config_from(args)
    print(f"Running Table 1 on {args.circuits or list(DEFAULT_SUITE)} ...")
    result = run_table1(_circuits_from(args), config, progress=True)
    print()
    print(format_table1(result))
    return 0


def _cmd_table2(args) -> int:
    config = _config_from(args)
    print("Running Table 2 (unconstrained move logs) ...")
    table1 = run_table1(_circuits_from(args), config, progress=True)
    print()
    print(format_table2(table2_from_runs(table1.runs)))
    return 0


def _cmd_figure6(args) -> int:
    config = _config_from(args)
    print("Running Figure 6 trade-off sweep ...")
    result = run_figure6(_circuits_from(args), config=config, progress=True)
    print()
    print(format_figure6(result))
    return 0


def _write_optimized_outputs(args, netlist, tracer) -> None:
    """Trace/BLIF/Verilog emission shared by ``optimize`` and ``pipeline``."""
    if tracer is not None:
        from repro.telemetry import write_trace

        # A tracer holds the last run it recorded: a pipeline's last flat
        # powder stage.
        write_trace(tracer.trace, args.trace)
        print(f"run trace written to {args.trace}")
    if getattr(args, "output", None):
        Path(args.output).write_text(write_blif(netlist))
        print(f"optimized netlist written to {args.output}")
    if getattr(args, "verilog", None):
        from repro.netlist.verilog import write_verilog

        Path(args.verilog).write_text(write_verilog(netlist))
        print(f"structural Verilog written to {args.verilog}")


def _cmd_optimize(args) -> int:
    options = _options_from(args, OptimizeOptions())
    netlist, _library = _load_mapped_netlist(args)
    result = power_optimize(netlist, options)
    print(result.summary())
    _write_optimized_outputs(args, netlist, options.trace)
    return 0


def _cmd_pipeline_run(args) -> int:
    from repro.pipeline import (
        PassManager,
        PowderPass,
        available_passes,
        build_pipeline,
    )

    if args.list_passes:
        print(f"{'name':10s} description")
        for entry in available_passes():
            print(f"{entry.name:10s} {entry.description}")
            if entry.parameters:
                print(f"{'':10s}   parameters: {entry.parameters}")
        return 0
    if args.netlist is None:
        print(
            "error: a mapped BLIF input is required (or --list-passes)",
            file=sys.stderr,
        )
        return 2
    options = _options_from(args, OptimizeOptions())
    passes = build_pipeline(args.spec, options)
    if options.trace is not None and not any(
        isinstance(stage, PowderPass) and not stage.stage_options(options).windowed
        for stage in passes
    ):
        raise ReproError(
            "--trace records a flat powder stage, and this pipeline runs none"
        )
    netlist, _library = _load_mapped_netlist(args)
    print(f"pipeline: {'; '.join(stage.spec() for stage in passes)}")
    outcome = PassManager(verbose=True).run(netlist, options, passes)
    print(outcome.summary())
    result = outcome.optimize_result
    if result is not None:
        print(result.summary())
    _write_optimized_outputs(args, outcome.netlist, options.trace)
    return 0


def _cmd_synth(args) -> int:
    library = _load_library(args)
    source = Path(args.pla)
    options = SynthesisOptions(map_options=MapOptions(mode=args.mode))
    if source.suffix == ".blif":
        from repro.synth.blif_logic import synthesize_logic_blif

        netlist = synthesize_logic_blif(
            source.read_text(), library, options, name=source.stem
        )
    else:
        pla = parse_pla_file(source)
        netlist = synthesize(
            pla.input_names,
            pla.on,
            library,
            dont_cares=pla.dc or None,
            options=options,
            name=pla.name,
        )
    text = write_blif(netlist)
    if args.output:
        Path(args.output).write_text(text)
        print(
            f"{netlist.num_gates()} gates, area {netlist.total_area():.0f} "
            f"-> {args.output}"
        )
    else:
        print(text, end="")
    return 0


def _retarget_metrics(netlist, patterns: int) -> dict:
    from repro.power.estimate import PowerEstimator
    from repro.power.probability import SimulationProbability
    from repro.timing.analysis import TimingAnalysis

    estimator = PowerEstimator(
        netlist,
        SimulationProbability(netlist, num_patterns=patterns, seed=3),
    )
    return {
        "gates": netlist.num_gates(),
        "area": netlist.total_area(),
        "power": estimator.total(),
        "delay": TimingAnalysis(netlist).circuit_delay,
    }


def _cmd_retarget(args) -> int:
    from repro.fuzz.oracle import check_equivalence_tiers
    from repro.library.genlib import parse_genlib_file as _parse_genlib
    from repro.synth.bdd_resynth import bdd_resynthesize
    from repro.synth.resynth import resynthesize

    netlist, _library = _load_mapped_netlist(args)
    target = _parse_genlib(args.to)
    target.validate()
    map_options = MapOptions(mode=args.mode)
    if args.bdd:
        remapped = bdd_resynthesize(
            netlist, library=target, map_options=map_options
        )
    else:
        remapped = resynthesize(netlist, library=target, options=map_options)

    before = _retarget_metrics(netlist, args.patterns)
    after = _retarget_metrics(remapped, args.patterns)
    print(
        f"retarget {netlist.name!r}: "
        f"{_library.name} ({len(_library)} cells) -> "
        f"{target.name} ({len(target)} cells)"
    )
    for label, row in (("before", before), ("after", after)):
        print(
            f"  {label:6s} gates {row['gates']:4d}  "
            f"area {row['area']:8.1f}  power {row['power']:8.4f}  "
            f"delay {row['delay']:7.3f}"
        )

    if args.output:
        Path(args.output).write_text(write_blif(remapped))
        print(f"retargeted netlist written to {args.output}")

    if args.no_verify:
        return 0
    report = check_equivalence_tiers(
        netlist, remapped, num_patterns=args.patterns, seed=99
    )
    verdicts = ", ".join(
        f"{tier}={verdict}" for tier, verdict in sorted(report.verdicts.items())
    )
    print(f"equivalence: {'equal' if report.equal else 'NOT EQUAL'} "
          f"({verdicts})")
    if not report.equal:
        if report.counterexample:
            print("counterexample:", report.counterexample)
        return 1
    return 0


def _cmd_verify(args) -> int:
    from repro.equiv.checker import check_equivalent

    library = _load_library(args)
    left = parse_blif_file(args.left, library)
    right = parse_blif_file(args.right, library)
    result = check_equivalent(left, right)
    print(f"equivalence: {result.status} (decided by {result.stage})")
    if result.counterexample:
        print("counterexample:", result.counterexample)
    return 0 if result.equal else 1


def _cmd_atpg(args) -> int:
    from repro.atpg.fault import all_faults
    from repro.atpg.faultsim import fault_coverage, undetected_faults
    from repro.atpg.redundancy import classify_fault
    from repro.netlist.simulate import SimState, random_patterns

    netlist, _library = _load_mapped_netlist(args)
    faults = all_faults(netlist)
    sim = SimState(
        netlist, random_patterns(netlist.input_names, args.patterns, seed=11)
    )
    coverage = fault_coverage(sim, faults)
    print(
        f"{len(faults)} stuck-at faults, random-pattern coverage "
        f"({args.patterns} patterns): {coverage:.1%}"
    )
    leftovers = undetected_faults(sim, faults)
    print(f"{len(leftovers)} undetected faults; classifying with SAT:")
    for fault in leftovers:
        print(f"  {str(fault):24s} {classify_fault(netlist, fault)}")
    return 0


def _cmd_glitch(args) -> int:
    from repro.power.glitch import analyze_glitches

    netlist, _library = _load_mapped_netlist(args)
    result = analyze_glitches(netlist, num_pairs=args.pairs)
    print(
        f"zero-delay power : {result.zero_delay_power:10.4f}\n"
        f"timed power      : {result.timed_power:10.4f}\n"
        f"glitch share     : {result.glitch_fraction:.1%} "
        f"(paper's expectation: ~20%)"
    )
    print("worst glitching signals:")
    for name, surplus in result.worst_glitchers(8):
        print(f"  {name:16s} +{surplus:.3f} transitions/cycle")
    return 0


def _cmd_stats(args) -> int:
    from repro.power.estimate import PowerEstimator
    from repro.power.probability import SimulationProbability
    from repro.timing.analysis import TimingAnalysis
    from repro.transform.dedupe import count_duplicate_gates

    netlist, _library = _load_mapped_netlist(args)
    estimator = PowerEstimator(
        netlist,
        SimulationProbability(netlist, num_patterns=args.patterns, seed=3),
    )
    timing = TimingAnalysis(netlist)
    print(f"netlist {netlist.name!r}:")
    print(f"  inputs/outputs : {len(netlist.input_names)} / {len(netlist.outputs)}")
    print(f"  gates          : {netlist.num_gates()}")
    print(f"  area           : {netlist.total_area():.0f}")
    print(f"  power (sum CE) : {estimator.total():.4f}")
    print(f"  delay          : {timing.circuit_delay:.3f}")
    print(f"  duplicate gates: {count_duplicate_gates(netlist)}")
    mix: dict[str, int] = {}
    for gate in netlist.logic_gates():
        mix[gate.cell.name] = mix.get(gate.cell.name, 0) + 1
    print("  cell mix       : " + ", ".join(
        f"{name}x{count}" for name, count in sorted(mix.items())
    ))
    print("  top power contributors:")
    for name, ce in estimator.report().top_contributors(8):
        print(f"    {name:16s} C*E = {ce:.4f}")
    return 0


def _split_rule_ids(values):
    """Flatten repeatable, comma-separated ``--select``/``--ignore`` args."""
    if not values:
        return None
    ids = [part.strip() for v in values for part in v.split(",")]
    return [rule_id for rule_id in ids if rule_id] or None


def _cmd_lint(args) -> int:
    from repro.lint import Severity, get_rule, lint_netlist, rule_catalog
    from repro.power.probability import SimulationProbability

    if args.list_rules:
        print(f"{'id':5s} {'severity':8s} {'category':9s}  description")
        for rule_id, severity, category, title in rule_catalog():
            print(f"{rule_id:5s} {severity:8s} {category:9s}  {title}")
        return 0
    if args.explain:
        import inspect

        rule = get_rule(args.explain)
        print(f"{rule.id}: {rule.title}")
        print(f"severity: {rule.severity}   category: {rule.category}")
        doc = type(rule).__doc__
        print()
        print(inspect.cleandoc(doc) if doc else "(no documentation)")
        return 0
    if args.netlist is None:
        print(
            "error: a mapped BLIF input is required "
            "(or --list-rules / --explain)",
            file=sys.stderr,
        )
        return 2
    netlist, _library = _load_mapped_netlist(args)
    probabilities = None
    if not args.no_probabilities:
        engine = SimulationProbability(
            netlist, num_patterns=args.patterns, seed=3
        )
        probabilities = {
            name: engine.probability(name) for name in netlist.gates
        }
    facts = None
    if args.facts:
        from repro.analysis import AnalysisSuite

        facts = AnalysisSuite(netlist).facts
    report = lint_netlist(
        netlist,
        select=_split_rule_ids(args.select),
        ignore=_split_rule_ids(args.ignore),
        probabilities=probabilities,
        facts=facts,
    )
    if args.format == "json":
        print(report.format_json())
    else:
        print(report.format_text())
    threshold = Severity.from_name(args.fail_on)
    return 1 if report.at_least(threshold) else 0


def _cmd_analyze(args) -> int:
    from repro.analysis import AnalysisSuite
    from repro.analysis.soundness import check_soundness

    netlist, _library = _load_mapped_netlist(args)
    suite = AnalysisSuite(netlist, num_patterns=args.patterns, seed=args.seed)
    facts = suite.facts
    soundness = None
    if args.check_soundness:
        soundness = check_soundness(netlist, facts)
    if args.format == "json":
        import json

        payload = facts.to_dict()
        if soundness is not None:
            payload["soundness"] = soundness.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(facts.format_text())
        if soundness is not None:
            print()
            print(soundness.format_text())
    return 1 if soundness is not None and not soundness.ok else 0


def _cmd_fuzz(args) -> int:
    from repro.bench.suite import FUZZ_SUITE
    from repro.fuzz import (
        FuzzOptions,
        cell_swap_mutator,
        replay_corpus,
        run_bench_cases,
        run_fuzz,
    )
    shapes = _split_rule_ids(args.shapes)
    options = FuzzOptions(
        seed=args.seed,
        count=args.count,
        min_inputs=args.min_inputs,
        max_inputs=args.max_inputs,
        min_gates=args.min_gates,
        max_gates=args.max_gates,
        shapes=tuple(shapes) if shapes else FuzzOptions.shapes,
        optimize=_options_from(args, FuzzOptions().optimize),
        shrink=args.shrink or args.corpus_dir is not None,
        corpus_dir=Path(args.corpus_dir) if args.corpus_dir else None,
        check_rerun=not args.quick,
        check_pipeline_identity=not args.quick,
        mutator=cell_swap_mutator if args.self_test else None,
        library=(
            parse_genlib_file(args.library)
            if getattr(args, "library", None)
            else None
        ),
    )
    if args.replay:
        report = replay_corpus(Path(args.replay), options)
        if not report.cases:
            print(f"no .blif reproducers under {args.replay}")
            return 0
    elif args.bench:
        names = list(FUZZ_SUITE) if args.bench == ["all"] else args.bench
        report = run_bench_cases(names, options)
    else:
        report = run_fuzz(options, progress=lambda case: print(
            f"  {'ok  ' if case.ok else 'FAIL'} {case.name} "
            f"({case.gates} gates, {case.moves} moves)",
            flush=True,
        ))
    print(report.summary())
    if args.self_test:
        caught = all(not case.ok for case in report.cases)
        print(
            "self-test: injected cell-swap corruption "
            + ("caught in every case" if caught else "MISSED in some case")
        )
        return 0 if caught else 1
    return 0 if report.ok else 1


def _cmd_trace_show(args) -> int:
    from repro.telemetry import format_trace, read_trace

    trace = read_trace(args.trace)
    limit = None if args.moves < 0 else args.moves
    print(format_trace(trace, max_moves=limit))
    return 0


def _cmd_trace_diff(args) -> int:
    from repro.telemetry import compare_traces, read_trace

    left = read_trace(args.left)
    right = read_trace(args.right)
    diff = compare_traces(left, right, tolerance=args.tolerance)
    print(diff.format())
    return 0 if diff.ok else 1


def _cmd_serve(args) -> int:
    import asyncio
    import sys

    from repro.serve import PowderServer, ServerConfig

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    config = _checked(
        ServerConfig,
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_entries=args.cache_size,
        max_request_bytes=args.max_request_bytes,
        default_timeout=args.job_timeout,
        max_timeout=args.max_timeout,
        max_queue=args.max_queue,
        max_retries=args.max_retries,
        allow_remote_shutdown=not args.no_remote_shutdown,
        log=None if args.quiet else log,
    )
    server = PowderServer(config)
    try:
        asyncio.run(server.run(install_signal_handlers=True))
    except KeyboardInterrupt:  # pragma: no cover — signal handler races
        pass
    return 0


def _cmd_bench_list(_args) -> int:
    print(f"{'name':10s} {'default':>7s} {'synthetic':>9s}  description")
    for name, spec in SUITE.items():
        print(
            f"{name:10s} {'yes' if spec.default else '':>7s} "
            f"{'yes' if spec.synthetic else '':>9s}  {spec.description}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powder",
        description=(
            "POWDER reproduction: power reduction after technology mapping "
            "by ATPG-based structural transformations (DAC 1996)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func in (
        ("table1", _cmd_table1),
        ("table2", _cmd_table2),
        ("figure6", _cmd_figure6),
    ):
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        _add_config_arguments(p)
        p.set_defaults(func=func)

    p = sub.add_parser("optimize", help="run POWDER on a mapped BLIF file")
    p.add_argument("netlist", help="mapped BLIF input")
    p.add_argument("--library", help="genlib file (default: built-in)")
    p.add_argument("--output", "-o", help="write optimized BLIF here")
    p.add_argument("--verilog", help="also write structural Verilog here")
    _add_optimizer_arguments(p)
    _add_window_arguments(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "pipeline",
        help="compose and run optimization pass pipelines "
        "(e.g. --spec 'dedupe; powder(repeat=25); sweep')",
    )
    psub = p.add_subparsers(dest="pipeline_command", required=True)
    pr = psub.add_parser("run", help="run a pass pipeline on a mapped BLIF")
    pr.add_argument(
        "netlist", nargs="?", default=None, help="mapped BLIF input"
    )
    pr.add_argument(
        "--spec", default="powder", metavar="SPEC",
        help="pipeline spec: 'pass; pass(key=value, ...); ...' "
        "(default 'powder'; see --list-passes)",
    )
    pr.add_argument("--library", help="genlib file (default: built-in)")
    pr.add_argument("--output", "-o", help="write the final BLIF here")
    pr.add_argument("--verilog", help="also write structural Verilog here")
    _add_optimizer_arguments(pr)
    pr.add_argument(
        "--list-passes", action="store_true",
        help="print the registered pass catalog and exit",
    )
    pr.set_defaults(func=_cmd_pipeline_run)

    p = sub.add_parser(
        "synth", help="synthesize a .pla or logic .blif to a mapped netlist"
    )
    p.add_argument("pla", help="espresso .pla or .names-style .blif input")
    p.add_argument("--library", help="genlib file (default: built-in)")
    p.add_argument("--mode", choices=("area", "power", "delay"), default="power")
    p.add_argument("--output", "-o", help="write mapped BLIF here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="check equivalence of two mapped BLIFs")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--library", help="genlib file (default: built-in)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "retarget",
        help="cross-map a netlist onto a different genlib library",
    )
    p.add_argument("netlist", help="mapped BLIF input")
    p.add_argument(
        "--to", required=True, metavar="GENLIB",
        help="target genlib file to map onto",
    )
    p.add_argument(
        "--library", help="source genlib file (default: built-in)"
    )
    p.add_argument(
        "--mode", choices=("area", "power", "delay"), default="power",
        help="mapping cost function (default power)",
    )
    p.add_argument(
        "--bdd", action="store_true",
        help="resynthesize through probability-sifted output BDDs "
        "instead of the structural unmap",
    )
    p.add_argument(
        "--patterns", type=_pattern_count, default=1024,
        help="random patterns for metrics and the oracle (default 1024)",
    )
    p.add_argument("--output", "-o", help="write retargeted BLIF here")
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip the differential-oracle equivalence check",
    )
    p.set_defaults(func=_cmd_retarget)

    p = sub.add_parser("atpg", help="fault coverage and redundancy report")
    p.add_argument("netlist", help="mapped BLIF input")
    p.add_argument("--library", help="genlib file (default: built-in)")
    p.add_argument("--patterns", type=_pattern_count, default=1024)
    p.set_defaults(func=_cmd_atpg)

    p = sub.add_parser("glitch", help="glitch-aware power analysis")
    p.add_argument("netlist", help="mapped BLIF input")
    p.add_argument("--library", help="genlib file (default: built-in)")
    p.add_argument("--pairs", type=_positive_int, default=192,
                   help="random consecutive vector pairs (default 192)")
    p.set_defaults(func=_cmd_glitch)

    p = sub.add_parser("stats", help="report netlist metrics and cell mix")
    p.add_argument("netlist", help="mapped BLIF input")
    p.add_argument("--library", help="genlib file (default: built-in)")
    p.add_argument("--patterns", type=_pattern_count, default=2048)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "lint", help="static analysis: collect all rule findings on a BLIF"
    )
    p.add_argument(
        "netlist", nargs="?", default=None, help="mapped BLIF input"
    )
    p.add_argument("--library", help="genlib file (default: built-in)")
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p.add_argument(
        "--fail-on", choices=("error", "warning", "info"), default="error",
        help="exit nonzero when a finding at or above this severity "
        "exists (default error)",
    )
    p.add_argument(
        "--select", action="append", default=None, metavar="IDS",
        help="run only these rule IDs (comma-separated, repeatable)",
    )
    p.add_argument(
        "--ignore", action="append", default=None, metavar="IDS",
        help="suppress these rule IDs (comma-separated, repeatable)",
    )
    p.add_argument(
        "--patterns", type=_pattern_count, default=2048,
        help="random patterns for the probability rules (default 2048)",
    )
    p.add_argument(
        "--no-probabilities", action="store_true",
        help="skip probability estimation (disables the P0xx rules)",
    )
    p.add_argument(
        "--facts", action="store_true",
        help="run the analysis suite first and enable the proof-backed "
        "S0xx rules",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    p.add_argument(
        "--explain", default=None, metavar="RULE_ID",
        help="print one rule's documentation and severity, then exit",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="static fact base: proven constants, unobservable cones, "
        "phase chains, and equivalence classes",
    )
    p.add_argument("netlist", help="mapped BLIF input")
    p.add_argument("--library", help="genlib file (default: built-in)")
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p.add_argument(
        "--patterns", type=_pattern_count, default=256,
        help="simulation patterns seeding the analyses, multiple of 64 "
        "(default 256)",
    )
    p.add_argument(
        "--seed", type=int, default=11,
        help="pattern seed (default 11)",
    )
    p.add_argument(
        "--check-soundness", action="store_true",
        help="re-derive every fact by exhaustive simulation or a fresh "
        "SAT instance; exit 1 if any fact is unsound",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the optimizer (generate, optimize, "
        "verify three ways, shrink failures)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; case i uses seed+i (default 0)")
    p.add_argument("--count", type=int, default=20,
                   help="number of generated cases (default 20)")
    p.add_argument("--min-gates", type=int, default=6)
    p.add_argument("--max-gates", type=int, default=24)
    p.add_argument("--min-inputs", type=int, default=3)
    p.add_argument("--max-inputs", type=int, default=8)
    p.add_argument(
        "--shapes", action="append", default=None, metavar="NAMES",
        help="circuit shapes to rotate through (comma-separated, "
        "repeatable; default: random, reconvergent, high_fanout, "
        "inverter_chain)",
    )
    p.add_argument("--patterns", type=_pattern_count, default=256,
                   help="random patterns per case, multiple of 64 "
                   "(default 256)")
    p.add_argument("--library",
                   help="genlib file to generate/replay against "
                   "(default: built-in)")
    p.add_argument("--max-moves", type=int, default=None)
    p.add_argument("--delay-slack", type=float, default=None,
                   help="also impose a delay constraint (%% over initial)")
    p.add_argument(
        "--shrink", action="store_true",
        help="delta-debug failing cases to minimal reproducers",
    )
    p.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="write shrunk reproducers here as replayable BLIF "
        "(implies --shrink)",
    )
    p.add_argument(
        "--replay", default=None, metavar="DIR",
        help="re-verify every .blif reproducer in DIR instead of "
        "generating",
    )
    p.add_argument(
        "--bench", nargs="+", default=None, metavar="NAME",
        help="verify registry benchmark circuits instead of generated "
        "ones ('all' = the FUZZ_SUITE subset)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="skip the properties that re-run the optimizer "
        "(idempotent-rerun, pipeline-identity)",
    )
    p.add_argument(
        "--self-test", action="store_true",
        help="inject a cell-swap corruption after each optimization and "
        "require the oracle to catch it (exit 0 = every case caught)",
    )
    _add_window_arguments(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "trace",
        help="inspect and compare optimizer run traces "
        "(written by 'optimize --trace')",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    t = tsub.add_parser("show", help="render a run trace")
    t.add_argument("trace", help="trace JSON file")
    t.add_argument(
        "--moves", type=int, default=20,
        help="move-table rows to print (default 20; -1 for all)",
    )
    t.set_defaults(func=_cmd_trace_show)

    t = tsub.add_parser(
        "diff",
        help="compare the deterministic fields of two run traces "
        "(exit 1 on any divergence; wall-times are ignored)",
    )
    t.add_argument("left")
    t.add_argument("right")
    t.add_argument(
        "--tolerance", type=float, default=0.0,
        help="absolute tolerance for float fields (default 0: exact)",
    )
    t.set_defaults(func=_cmd_trace_diff)

    p = sub.add_parser(
        "serve",
        help="run the long-lived optimization service (HTTP/JSON)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port; 0 picks an ephemeral port (default 8787)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent optimizer processes (default 2)")
    p.add_argument("--cache-size", type=int, default=256,
                   help="completed-result LRU entries (default 256)")
    p.add_argument("--max-request-bytes", type=int, default=8 * 1024 * 1024,
                   help="request body cap; larger bodies get 413")
    p.add_argument("--job-timeout", type=float, default=300.0,
                   help="default per-job wall-clock budget in seconds")
    p.add_argument("--max-timeout", type=float, default=3600.0,
                   help="cap on client-requested per-job timeouts")
    p.add_argument("--max-queue", type=int, default=1024,
                   help="pending-execution bound; beyond it submissions "
                        "get 429")
    p.add_argument("--max-retries", type=int, default=1,
                   help="worker re-runs granted after a crash (default 1)")
    p.add_argument("--no-remote-shutdown", action="store_true",
                   help="disable POST /shutdown (signals only)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request log lines on stderr")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench-list", help="list the benchmark registry")
    p.set_defaults(func=_cmd_bench_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        # Rejected or unreadable input (malformed BLIF, mismatched
        # interfaces, a missing file...): one line, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
