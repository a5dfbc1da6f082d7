"""Campaign driver, corpus replay (the CI regression gate), and the CLI."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.fuzz import FuzzOptions, replay_corpus, run_fuzz
from repro.transform.optimizer import OptimizeOptions

CORPUS = Path(__file__).parent / "corpus"

QUICK = dict(check_rerun=False)


def test_small_campaign_passes():
    report = run_fuzz(FuzzOptions(seed=0, count=4))
    assert len(report.cases) == 4
    assert report.ok, report.summary()
    assert {c.shape for c in report.cases} == {
        "random", "reconvergent", "high_fanout", "inverter_chain"
    }
    assert "0 failed" in report.summary()


def test_campaign_is_deterministic():
    options = FuzzOptions(seed=3, count=2, **QUICK)
    first = run_fuzz(options)
    second = run_fuzz(options)
    assert [(c.name, c.gates, c.moves) for c in first.cases] == [
        (c.name, c.gates, c.moves) for c in second.cases
    ]


def test_options_validation():
    with pytest.raises(ReproError):
        # not a multiple of 64
        FuzzOptions(optimize=OptimizeOptions(num_patterns=100))
    with pytest.raises(ReproError):
        FuzzOptions(optimize=OptimizeOptions(num_patterns=0))
    with pytest.raises(ReproError):
        FuzzOptions(shapes=("random", "spiral"))


def test_default_optimizer_run():
    """Fuzz cases run 256 patterns and at most 8 rounds, the rest at the
    optimizer's defaults."""
    assert FuzzOptions().optimize == OptimizeOptions(
        num_patterns=256, max_rounds=8
    )


def test_regression_corpus_replays_clean():
    """Every shrunk reproducer ever committed must keep passing — this is
    the 'replayed in CI forever' gate."""
    report = replay_corpus(CORPUS, FuzzOptions(**QUICK))
    assert report.cases, "the seed corpus must not be empty"
    assert report.ok, report.summary()


def test_cli_fuzz_smoke(capsys):
    code = main([
        "fuzz", "--seed", "0", "--count", "2", "--quick",
        "--patterns", "128", "--max-gates", "14",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out


def test_cli_fuzz_self_test(capsys):
    code = main([
        "fuzz", "--seed", "0", "--count", "2", "--quick",
        "--patterns", "128", "--self-test",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "caught in every case" in out


def test_cli_fuzz_replay_corpus(capsys):
    code = main(["fuzz", "--replay", str(CORPUS), "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out


def test_cli_fuzz_bench(capsys):
    code = main(["fuzz", "--bench", "rd53", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rd53" in out


def test_cli_fuzz_alternate_library(capsys):
    code = main([
        "fuzz", "--seed", "3", "--count", "2", "--quick",
        "--patterns", "128", "--max-gates", "12",
        "--library", "benchmarks/genlib/nandnor.genlib",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out
