"""The fuzz-campaign driver behind ``powder fuzz``.

One *case* is: generate a netlist, optimize a copy, then interrogate the
result — the three-tier equivalence oracle against the original, the
from-scratch metric cross-check, and the metamorphic properties.  Any
failure string fails the case; ``--shrink`` then delta-debugs the input
netlist to a minimal reproducer that still triggers a failure of the same
category, and writes it (BLIF plus replay instructions in the header) into
the corpus directory.

:func:`replay_corpus` re-verifies every ``.blif`` in a corpus directory —
the standard test-suite points it at ``tests/fuzz/corpus/`` so every
previously-found failure is replayed in CI forever.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import ReproError
from repro.fuzz.generator import (
    ALL_SHAPES,
    SHAPES,
    GeneratorConfig,
    batch_configs,
    random_mapped_netlist,
)
from repro.fuzz.oracle import check_equivalence_tiers, cross_check_metrics
from repro.fuzz.properties import run_properties
from repro.fuzz.shrink import shrink_netlist
from repro.library.cell import Library
from repro.library.standard import standard_library
from repro.netlist.blif import parse_blif, write_blif
from repro.netlist.netlist import Netlist
from repro.transform.optimizer import OptimizeOptions, power_optimize

#: A fault-injection hook: mutate the optimized netlist in place (returns
#: True when a mutation was applied).  Used by the test-suite to prove the
#: harness catches broken transforms; never active in production runs.
Mutator = Callable[[Netlist, random.Random], bool]


def cell_swap_mutator(netlist: Netlist, rng: random.Random) -> bool:
    """The reference broken transform: change one gate's logic function.

    Picks a logic gate and rebinds it to a different same-arity library
    cell computing a different function — exactly the kind of silent
    miswiring a buggy substitution would introduce.  Used by ``powder fuzz
    --self-test`` and the test-suite to prove the oracle catches it.
    """
    gates = [g for g in netlist.logic_gates() if g.num_inputs >= 2]
    rng.shuffle(gates)
    for gate in gates:
        pool = [
            cell
            for cell in netlist.library.cells_with_inputs(gate.num_inputs)
            if cell.name != gate.cell.name
            and not cell.function.is_constant()
            and cell.function != gate.cell.function
        ]
        if pool:
            gate.cell = rng.choice(pool)
            return True
    return False


@dataclass(frozen=True)
class FuzzOptions:
    """Configuration of one fuzz campaign."""

    seed: int = 0
    count: int = 10
    min_inputs: int = 3
    max_inputs: int = 8
    min_gates: int = 6
    max_gates: int = 24
    shapes: tuple[str, ...] = SHAPES
    #: The optimizer run of every case; its ``num_patterns`` also sizes
    #: the oracle prefilter.  ``windowed=True`` routes every case through
    #: the windowed flow, whose cases skip the power-monotone property:
    #: window-local power estimates approximate the global estimator.
    optimize: OptimizeOptions = field(
        default_factory=lambda: OptimizeOptions(num_patterns=256, max_rounds=8)
    )
    #: Delta-debug failing inputs down to minimal reproducers.
    shrink: bool = False
    #: Where shrunk reproducers are written (None = don't write).
    corpus_dir: Optional[Path] = None
    #: Metamorphic properties that re-run the optimizer (can be disabled
    #: for quick smoke runs).
    check_rerun: bool = True
    check_pipeline_identity: bool = True
    #: Test-only fault injection (see :data:`Mutator`).
    mutator: Optional[Mutator] = None
    #: Cell library the campaign generates/replays against (None = the
    #: built-in one).  Pointing this at an alternate genlib fuzzes the
    #: whole optimize-verify pipeline for hidden standard-cell-name
    #: assumptions.
    library: Optional[Library] = None

    def __post_init__(self):
        for shape in self.shapes:
            if shape not in ALL_SHAPES:
                raise ReproError(
                    f"unknown shape {shape!r}; pick from {ALL_SHAPES}"
                )


@dataclass
class CaseResult:
    """Outcome of one fuzz case."""

    name: str
    seed: int
    shape: str
    gates: int
    moves: int
    failures: list[str] = field(default_factory=list)
    #: Shrunk reproducer (only on failure with shrinking enabled).
    reproducer: Optional[Netlist] = None
    reproducer_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class FuzzReport:
    """Everything one campaign produced."""

    options: FuzzOptions
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def failed_cases(self) -> list[CaseResult]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.failed_cases

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: {len(self.cases)} cases, "
            f"{len(self.failed_cases)} failed "
            f"(seed {self.options.seed}, shapes {', '.join(self.options.shapes)})"
        ]
        for case in self.cases:
            status = "ok  " if case.ok else "FAIL"
            lines.append(
                f"  [{status}] {case.name:28s} {case.gates:3d} gates, "
                f"{case.moves:3d} moves"
            )
            for failure in case.failures:
                lines.append(f"         - {failure}")
            if case.reproducer is not None:
                where = (
                    f" -> {case.reproducer_path}" if case.reproducer_path else ""
                )
                lines.append(
                    f"         shrunk to {case.reproducer.num_gates()} "
                    f"gates{where}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Core verification pipeline
# ----------------------------------------------------------------------
def verify_netlist(
    netlist: Netlist, options: FuzzOptions, case_seed: int
) -> tuple[list[str], int]:
    """Optimize a copy of ``netlist`` and run every check.

    Returns (failure strings, move count).  Each failure is tagged with a
    ``[category]`` prefix; shrinking preserves the category.
    """
    original = netlist
    work = netlist.copy(netlist.name + "_opt")
    opt = options.optimize
    result = power_optimize(work, opt)
    failures: list[str] = []

    if options.mutator is not None:
        options.mutator(work, random.Random(case_seed))

    oracle = check_equivalence_tiers(
        original, work, num_patterns=opt.num_patterns
    )
    if not oracle.equal:
        failures.append(
            f"[equivalence] optimizer output differs from its input: "
            f"{oracle.verdicts}"
            + (
                f"; counterexample {oracle.counterexample}"
                if oracle.counterexample
                else ""
            )
        )
    for disagreement in oracle.disagreements:
        failures.append(f"[oracle-consistency] {disagreement}")

    for problem in cross_check_metrics(result, opt):
        failures.append(f"[metrics] {problem}")

    failures.extend(
        run_properties(
            original,
            result,
            opt,
            check_rerun=options.check_rerun,
            check_pipeline_identity=options.check_pipeline_identity,
            check_power_monotone=not opt.windowed,
        )
    )
    return failures, len(result.moves)


def _category(failure: str) -> str:
    return failure.split("]", 1)[0].lstrip("[") if "]" in failure else failure


def run_case(config: GeneratorConfig, options: FuzzOptions) -> CaseResult:
    """Generate, verify, and (on failure) shrink one case."""
    netlist = random_mapped_netlist(config, options.library)
    failures, moves = verify_netlist(netlist, options, config.seed)
    case = CaseResult(
        name=netlist.name,
        seed=config.seed,
        shape=config.shape,
        gates=netlist.num_gates(),
        moves=moves,
        failures=failures,
    )
    if failures and options.shrink:
        categories = {_category(f) for f in failures}

        def still_fails(candidate: Netlist) -> bool:
            found, _moves = verify_netlist(candidate, options, config.seed)
            return any(_category(f) in categories for f in found)

        case.reproducer = shrink_netlist(netlist, still_fails)
        if options.corpus_dir is not None:
            case.reproducer_path = write_reproducer(
                case.reproducer, failures, options.corpus_dir, netlist.name
            )
    return case


def run_fuzz(options: FuzzOptions, progress=None) -> FuzzReport:
    """Run the full campaign described by ``options``."""
    base = GeneratorConfig(
        seed=options.seed,
        shape=options.shapes[0],
        min_inputs=options.min_inputs,
        max_inputs=options.max_inputs,
        min_gates=options.min_gates,
        max_gates=options.max_gates,
    )
    configs = batch_configs(base, options.count)
    shapes = options.shapes
    report = FuzzReport(options=options)
    for index, config in enumerate(configs):
        config = GeneratorConfig(
            **{
                **config.__dict__,
                "shape": shapes[index % len(shapes)],
                "name": None,
            }
        )
        case = run_case(config, options)
        report.cases.append(case)
        if progress is not None:
            progress(case)
    return report


def run_bench_cases(names: list[str], options: FuzzOptions) -> FuzzReport:
    """Run the verification pipeline on registry benchmark circuits.

    The registry gives realistic mapper output where the generator gives
    variety; ``powder fuzz --bench`` points the same oracle at both.
    """
    from repro.bench.suite import build_benchmark

    library = options.library or standard_library()
    report = FuzzReport(options=options)
    for name in names:
        netlist = build_benchmark(name, library)
        failures, moves = verify_netlist(netlist, options, options.seed)
        report.cases.append(
            CaseResult(
                name=name,
                seed=options.seed,
                shape="bench",
                gates=netlist.num_gates(),
                moves=moves,
                failures=failures,
            )
        )
    return report


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
def write_reproducer(
    netlist: Netlist,
    failures: list[str],
    directory: Path,
    name: str,
) -> Path:
    """Write a shrunk failing netlist as a replayable corpus entry."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.blif"
    header = [
        "# powder fuzz reproducer",
        f"# original case: {name}",
        "# replay: PYTHONPATH=src python -m repro.cli fuzz --replay "
        + str(path),
    ]
    header.extend(f"# failure: {failure}" for failure in failures)
    path.write_text("\n".join(header) + "\n" + write_blif(netlist))
    return path


def replay_corpus(directory: Path, options: FuzzOptions) -> FuzzReport:
    """Re-verify ``.blif`` reproducers: a corpus directory or a single file."""
    target = Path(directory)
    paths = [target] if target.is_file() else sorted(target.glob("*.blif"))
    library = options.library or standard_library()
    report = FuzzReport(options=options)
    for path in paths:
        netlist = parse_blif(path.read_text(), library, name=path.stem)
        failures, moves = verify_netlist(netlist, options, options.seed)
        report.cases.append(
            CaseResult(
                name=path.stem,
                seed=options.seed,
                shape="corpus",
                gates=netlist.num_gates(),
                moves=moves,
                failures=failures,
            )
        )
    return report
