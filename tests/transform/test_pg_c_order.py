"""``PG_C`` does not depend on the process's string-hash seed.

The nandnor library's pin loads (0.9/1.8) make the ``PG_C`` terms
non-dyadic, so float addition order shows in the last bits.  The terms are
summed in packed (topological) index order; two processes with different
``PYTHONHASHSEED`` values must predict the same ``pg_c`` for every move.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NANDNOR = ROOT / "benchmarks" / "genlib" / "nandnor.genlib"

SCRIPT = f"""
import json
from repro.bench.suite import build_benchmark
from repro.library.genlib import parse_genlib_file
from repro.transform.optimizer import OptimizeOptions, power_optimize

library = parse_genlib_file({str(NANDNOR)!r})
result = power_optimize(
    build_benchmark("misex1", library), OptimizeOptions(num_patterns=512)
)
print(json.dumps([move.predicted.pg_c.hex() for move in result.moves]))
"""


def _pg_c_hexes(hash_seed: int) -> list[str]:
    path = os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(done.stdout)


def test_pg_c_is_the_same_under_two_hash_seeds():
    first = _pg_c_hexes(0)
    assert first, "the run applies moves"
    assert _pg_c_hexes(1) == first
