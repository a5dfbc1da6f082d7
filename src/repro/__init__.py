"""repro — reproduction of "Reducing Power Dissipation after Technology
Mapping by Structural Transformations" (Rohfleisch, Koelbl, Wurth; DAC 1996).

The package implements the POWDER power optimizer — a greedy sequence of
ATPG-verified permissible signal substitutions on mapped netlists — together
with every substrate it needs: a Boolean-function kernel, genlib cell
libraries, a mapped-netlist DAG with bit-parallel simulation, power and
timing models, SAT-based ATPG, a POSE-like synthesis front-end, and the
benchmark/experiment harness that regenerates the paper's tables and figures.

Quickstart::

    from repro import standard_library, NetlistBuilder, power_optimize

    lib = standard_library()
    b = NetlistBuilder(lib)
    a, bb, c = b.inputs("a", "b", "c")
    b.output("e_out", b.and_(a, bb, name="e"))
    b.output("f_out", b.and_(b.xor_(a, c), bb))
    result = power_optimize(b.build())   # finds the paper's Fig.-2 rewiring
    print(result.summary())
"""

from repro.library import standard_library, parse_genlib, Library, Cell
from repro.netlist import Netlist, Gate, parse_blif, write_blif
from repro.netlist.build import NetlistBuilder

__version__ = "1.0.0"

__all__ = [
    "standard_library",
    "parse_genlib",
    "Library",
    "Cell",
    "Netlist",
    "Gate",
    "NetlistBuilder",
    "parse_blif",
    "write_blif",
    "power_optimize",
    "PowerOptimizer",
    "OptimizeOptions",
    "run_pipeline",
    "OptimizationContext",
    "PassManager",
    "WindowedOptimizer",
    "__version__",
]


def __getattr__(name):
    # Late imports keep `import repro` light and avoid circular imports
    # while the higher layers (transform, pipeline) are built on the
    # lower ones.
    if name in ("power_optimize", "PowerOptimizer", "OptimizeOptions"):
        from repro.transform import optimizer

        return getattr(optimizer, name)
    if name in ("run_pipeline", "OptimizationContext", "PassManager"):
        import repro.pipeline as pipeline

        return getattr(pipeline, name)
    if name == "WindowedOptimizer":
        from repro.transform.windowed import WindowedOptimizer

        return WindowedOptimizer
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
