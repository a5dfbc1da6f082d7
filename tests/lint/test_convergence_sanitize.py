"""Acceptance: the ttt2 convergence configuration runs sanitized to
completion with zero findings and a bit-identical move sequence."""

from repro.bench.suite import build_benchmark
from repro.library.standard import standard_library
from repro.transform.optimizer import OptimizeOptions, PowerOptimizer

#: The bench_convergence configuration (benchmarks/bench_convergence.py).
CONFIG = dict(num_patterns=1024, repeat=15, max_rounds=6)


def test_ttt2_convergence_sanitized():
    library = standard_library()
    base = build_benchmark("ttt2", library, map_mode="power")

    plain = PowerOptimizer(
        base.copy("plain"), OptimizeOptions(**CONFIG)
    ).run()
    sanitized_optimizer = PowerOptimizer(
        base.copy("sanitized"), OptimizeOptions(sanitize=True, **CONFIG)
    )
    sanitized = sanitized_optimizer.run()

    assert [str(m.substitution) for m in sanitized.moves] == [
        str(m.substitution) for m in plain.moves
    ]
    assert sanitized.final_power == plain.final_power
    assert sanitized.rounds == plain.rounds
    reports = sanitized_optimizer.sanitizer.reports
    assert len(reports) == len(sanitized.moves)
    assert all(not r.diagnostics for r in reports)
