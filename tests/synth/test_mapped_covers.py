"""The benchmark registry's mapped covers, pinned by fingerprint.

``mapped_covers.json`` holds the sha256 of ``write_blif`` for every
registry circuit in every mapping mode, on the built-in library and on
``benchmarks/genlib/nandnor.genlib``.  A change anywhere in the synthesis
front end (two-level minimization, factoring, the subject graph, the cut
mapper) that moves a cover fails here.  The default run checks power mode
on the built-in library; ``POWDER_RUN_SLOW=1`` checks all 240 covers.

After an *intentional* cover change, rewrite the fingerprints of every
case that runs and review the diff::

    POWDER_RUN_SLOW=1 PYTHONPATH=src python -m pytest \\
        tests/synth/test_mapped_covers.py --update-golden
"""

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path

import pytest

from repro.bench.suite import SUITE, build_benchmark
from repro.library.genlib import parse_genlib_file
from repro.library.standard import standard_library
from repro.netlist.blif import write_blif

HERE = Path(__file__).resolve().parent
NANDNOR = HERE.parents[1] / "benchmarks" / "genlib" / "nandnor.genlib"
COVERS = HERE / "mapped_covers.json"
FINGERPRINTS = json.loads(COVERS.read_text())
SLOW = bool(os.environ.get("POWDER_RUN_SLOW"))
MODES = ("power", "area", "delay")


@lru_cache(maxsize=None)
def library(name):
    return standard_library() if name == "builtin" else parse_genlib_file(NANDNOR)


def cases():
    for lib_name in ("builtin", "nandnor"):
        for mode in MODES:
            tier1 = lib_name == "builtin" and mode == "power"
            marks = () if tier1 or SLOW else pytest.mark.skip(
                reason="full cover sweep: set POWDER_RUN_SLOW=1"
            )
            for circuit in SUITE:
                yield pytest.param(
                    lib_name, mode, circuit, marks=marks,
                    id=f"{lib_name}-{mode}-{circuit}",
                )


def test_fingerprints_cover_the_whole_registry():
    assert sorted(FINGERPRINTS) == ["builtin", "nandnor"]
    for per_mode in FINGERPRINTS.values():
        assert sorted(per_mode) == sorted(MODES)
        for digests in per_mode.values():
            assert sorted(digests) == sorted(SUITE)


@pytest.mark.parametrize("lib_name, mode, circuit", cases())
def test_cover_is_unchanged(lib_name, mode, circuit, request):
    netlist = build_benchmark(circuit, library(lib_name), map_mode=mode)
    digest = hashlib.sha256(write_blif(netlist).encode()).hexdigest()
    if request.config.getoption("--update-golden"):
        FINGERPRINTS.setdefault(lib_name, {}).setdefault(mode, {})[circuit] = digest
        COVERS.write_text(json.dumps(FINGERPRINTS, indent=1, sort_keys=True) + "\n")
        return
    assert digest == FINGERPRINTS[lib_name][mode][circuit]
