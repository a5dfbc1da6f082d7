"""Span tracing from outside the program: wrap public functions, time layers.

A :class:`Recorder` keeps spans (name, start, end, parent) in memory.
:func:`install` replaces each function or method named in :data:`LAYERS`
with a wrapper that opens a span around the call, patching every loaded
``repro`` module that holds the original object, so callers that imported
the name (``repro.transform.optimizer.full_gain``) see the wrapper too.
A wrapper only reads arguments and results, so a traced run applies the
same moves as an untraced one.

Spans opened inside forked children (window pool workers, serve worker
processes) are not recorded: the recorder switches itself off in every
child, and the parent-side span around the pool or the attempt stands for
the child's work.

A span's self time is its duration minus the durations of its child
spans.  :func:`layer_metrics` folds the spans into the per-layer metrics
the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

#: Spans that only drive other layers.  Their self time is loop and
#: bookkeeping code, so it does not count as attributed to a layer.
DRIVER_SPANS = frozenset({"unit", "pipeline", "optimizer.run", "windowed.run"})


class Span:
    """One timed call: name, start, end, parent, and its root's name."""

    __slots__ = ("name", "start", "end", "parent", "child_s", "root")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 root: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.root = root

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Recorder:
    """In-memory span store; records only while enabled, never in a child."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        #: Event counts taken at the same boundaries as the spans.
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = False
        #: Root name given to spans opened on a thread with no open span
        #: (the serve executor threads).
        self.current_root = ""
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        root = parent.root if parent is not None else self.current_root
        span = Span(name, self.clock(), parent, root)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str):
        """Record everything inside the block under a root span ``name``."""
        self.enabled = True
        self.current_root = name
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)
            self.enabled = False

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON rows: name, start, end, parent."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = [
            [
                span.name,
                span.start,
                span.end,
                None if span.parent is None else index[id(span.parent)],
            ]
            for span in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": rows, "counts": dict(self.counts)}, handle)


# ----------------------------------------------------------------------
# Count hooks: read arguments and results, never change them
# ----------------------------------------------------------------------
def _count_rejects(recorder, _args, result, _state) -> None:
    if result is False:
        recorder.counts["timing.rejects"] += 1


def _pool_size(recorder, _args, result, _state) -> None:
    recorder.counts["candidates.pool"] += len(result)


_TRIAGE_KEYS = ("sim_kills", "sat_proofs", "sat_cex", "fallbacks")


def _triage_before(_recorder, args):
    return dict(args[0].counters)


def _triage_after(recorder, args, result, before) -> None:
    after = args[0].counters
    for key in _TRIAGE_KEYS:
        recorder.counts[f"permissible.{key}"] += after[key] - before[key]
    if result.status == "permissible":
        recorder.counts["permissible.accepts"] += 1


def _windowed_after(recorder, args, result, _state) -> None:
    recorder.counts["windowed.windows"] += result.rounds
    recorder.counts["windowed.conflicts"] += len(args[0].conflicts)


@dataclass(frozen=True)
class Layer:
    """One wrapped function: span name, ``module:qualname``, count hooks."""

    span: str
    target: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


_CONTEXT = "repro.pipeline.context:OptimizationContext."

#: Every wrapped boundary, by repository module.  ``*.build`` spans are
#: the lazy construction of a layer's state by the optimization context.
LAYERS: tuple[Layer, ...] = (
    # transform.candidates
    Layer("candidates.generate",
          "repro.transform.candidates:CandidateWorkspace.generate",
          after=_pool_size),
    Layer("candidates.pair_tables",
          "repro.transform.candidates:CandidateWorkspace.pair_tables"),
    Layer("candidates.pair_tables",
          "repro.transform.candidates:"
          "CandidateWorkspace._precompute_pair_tables"),
    Layer("candidates.build", _CONTEXT + "_build_workspace"),
    # transform.optimizer and transform.gain
    Layer("optimizer.run", "repro.transform.optimizer:PowerOptimizer.run"),
    Layer("select",
          "repro.transform.optimizer:PowerOptimizer.select_power_red_subst"),
    Layer("gain", "repro.transform.gain:full_gain"),
    # timing
    Layer("timing.check",
          "repro.transform.optimizer:PowerOptimizer.check_delay",
          after=_count_rejects),
    Layer("timing.what_if", "repro.timing.analysis:TimingAnalysis.what_if"),
    Layer("timing.update",
          "repro.timing.analysis:TimingAnalysis.update_after_edit"),
    Layer("timing.build", _CONTEXT + "_build_timing"),
    # transform.permissible, sat, atpg
    Layer("permissible", "repro.transform.permissible:TriageChecker.check",
          before=_triage_before, after=_triage_after),
    Layer("permissible.build", _CONTEXT + "_build_triage"),
    Layer("sat", "repro.sat.incremental:IncrementalSolver.solve"),
    Layer("atpg", "repro.transform.permissible:check_candidate"),
    # power, kernels, transform.substitution
    Layer("power.update",
          "repro.power.estimate:PowerEstimator.update_after_edit"),
    Layer("power.build", _CONTEXT + "_build_probability"),
    Layer("power.build", _CONTEXT + "_build_estimator"),
    Layer("kernels.simulate", "repro.kernels.packed:PackedCircuit.simulate"),
    Layer("kernels.overlay",
          "repro.kernels.packed:PackedCircuit.propagate_overlay"),
    Layer("apply", "repro.transform.substitution:apply_substitution"),
    # partition and transform.windowed
    Layer("partition", "repro.partition.window:partition_windows"),
    Layer("partition", "repro.partition.export:export_window"),
    Layer("windowed.run", "repro.transform.windowed:WindowedOptimizer.run",
          after=_windowed_after),
    Layer("windowed.pool",
          "repro.transform.windowed:WindowedOptimizer._dispatch"),
    Layer("windowed.replay",
          "repro.transform.windowed:WindowedOptimizer._replay"),
    Layer("windowed.fallback",
          "repro.transform.windowed:WindowedOptimizer._reoptimize_deferred"),
    # netlist, library, bench, pipeline
    Layer("io.parse", "repro.netlist.blif:parse_blif"),
    Layer("io.write", "repro.netlist.blif:write_blif"),
    Layer("setup.library", "repro.library.genlib:parse_genlib"),
    Layer("setup.build", "repro.bench.suite:build_benchmark"),
    Layer("pipeline", "repro.pipeline.manager:PassManager.run"),
    # serve
    Layer("serve.submit", "repro.serve.client:ServeClient.submit"),
    Layer("serve.attempt", "repro.serve.worker:run_attempt"),
)


def _wrap(recorder: Recorder, layer: Layer, function: Callable) -> Callable:
    name, before, after = layer.span, layer.before, layer.after

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        state = before(recorder, args) if before is not None else None
        span = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(recorder, args, result, state)
        return result

    return wrapper


@contextlib.contextmanager
def install(recorder: Recorder):
    """Wrap every layer for the duration of the block, then restore.

    A target that no longer exists raises ``AttributeError``: a renamed
    layer must fail the benchmark, not silently drop out of the trace.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for layer in LAYERS:
            module_name, qualname = layer.target.split(":")
            module = importlib.import_module(module_name)
            *owner_path, attribute = qualname.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            wrapper = _wrap(recorder, layer, original)
            if owner is module:
                holders = [
                    loaded for loaded_name, loaded in list(sys.modules.items())
                    if loaded_name.startswith("repro")
                    and getattr(loaded, attribute, None) is original
                ]
            else:
                holders = [owner]
            for holder in holders:
                undo.append((holder, attribute, original))
                setattr(holder, attribute, wrapper)
        yield recorder
    finally:
        for holder, attribute, original in reversed(undo):
            setattr(holder, attribute, original)


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------
def aggregate(spans) -> dict:
    """``{(root, name): [calls, self seconds]}`` over every span."""
    table: dict = defaultdict(lambda: [0, 0.0])
    for span in spans:
        entry = table[(span.root, span.name)]
        entry[0] += 1
        entry[1] += span.self_s
    return table


def layer_metrics(recorder: Recorder, units: int) -> dict:
    """Per-layer metrics from the spans: per traced unit of timed work.

    Spans under the ``unit`` roots are divided by ``units``; ``setup.*``
    metrics come from the one traced set-up under the ``setup`` root.
    Every ``*_s`` time but ``windowed.fallback_s`` is self time, so on the
    single-threaded workloads the layer times and ``trace.unattributed_s``
    add up to ``trace.unit_s``.
    """
    table = aggregate(recorder.spans)
    counts = recorder.counts

    def calls(*names):
        return sum(table[("unit", name)][0] for name in names) / units

    def self_s(*names):
        return sum(table[("unit", name)][1] for name in names) / units

    def count(name):
        return counts.get(name, 0) / units

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    unit_s = sum(
        span.duration for span in recorder.spans
        if span.name == "unit" and span.parent is None
    ) / units
    unattributed = sum(
        entry[1] for (root, name), entry in table.items()
        if root == "unit" and name in DRIVER_SPANS
    ) / units
    gain_evals = calls("gain")
    windows = count("windowed.windows")
    checks = calls("permissible")
    timing_checks = calls("timing.check")
    return {
        "candidates.calls": calls("candidates.generate"),
        "candidates.busy_s": self_s("candidates.generate", "candidates.build"),
        "candidates.pool_size": count("candidates.pool"),
        "candidates.pair_tables_s": self_s("candidates.pair_tables"),
        "select.calls": calls("select"),
        "select.busy_s": self_s("select"),
        "gain.evals": gain_evals,
        "gain.busy_s": self_s("gain"),
        "gain.useful_ratio": ratio(calls("apply"), gain_evals),
        "timing.checks": timing_checks,
        "timing.rejects": count("timing.rejects"),
        "timing.reject_ratio": ratio(count("timing.rejects"), timing_checks),
        "timing.busy_s": self_s(
            "timing.check", "timing.what_if", "timing.build"),
        "timing.update_s": self_s("timing.update"),
        "permissible.checks": checks,
        "permissible.busy_s": self_s("permissible", "permissible.build"),
        "permissible.accept_ratio": ratio(count("permissible.accepts"), checks),
        "permissible.sim_kills": count("permissible.sim_kills"),
        "permissible.sat_proofs": count("permissible.sat_proofs"),
        "permissible.sat_cex": count("permissible.sat_cex"),
        "permissible.fallbacks": count("permissible.fallbacks"),
        "sat.solves": calls("sat"),
        "sat.busy_s": self_s("sat"),
        "atpg.calls": calls("atpg"),
        "atpg.busy_s": self_s("atpg"),
        "power.updates": calls("power.update"),
        "power.busy_s": self_s("power.update"),
        "power.build_s": self_s("power.build"),
        "kernels.simulate_s": self_s("kernels.simulate"),
        "kernels.overlay_calls": calls("kernels.overlay"),
        "kernels.overlay_s": self_s("kernels.overlay"),
        "apply.calls": calls("apply"),
        "apply.busy_s": self_s("apply"),
        "partition.windows": windows,
        "partition.busy_s": self_s("partition"),
        "windowed.pool_s": self_s("windowed.pool"),
        "windowed.deferred": calls("windowed.fallback"),
        "windowed.conflict_ratio": ratio(count("windowed.conflicts"), windows),
        # Inclusive: the sequential fallback with the optimizer layers it
        # runs in this process (their self times are also counted above).
        "windowed.fallback_s": sum(
            span.duration for span in recorder.spans
            if span.root == "unit" and span.name == "windowed.fallback"
        ) / units,
        "windowed.replay_s": self_s("windowed.replay"),
        "io.parse_s": self_s("io.parse"),
        "io.write_s": self_s("io.write"),
        "setup.library_s": table[("setup", "setup.library")][1],
        "setup.build_s": table[("setup", "setup.build")][1],
        "setup.parse_s": table[("setup", "io.parse")][1],
        "pipeline.self_s": self_s("pipeline"),
        "optimizer.self_s": self_s("optimizer.run"),
        "serve.submits": calls("serve.submit"),
        "serve.submit_s": self_s("serve.submit"),
        "serve.attempts": calls("serve.attempt"),
        "serve.attempt_s": self_s("serve.attempt"),
        "trace.unit_s": unit_s,
        "trace.unattributed_s": unattributed,
        "trace.attributed_ratio": ratio(unit_s - unattributed, unit_s),
    }
