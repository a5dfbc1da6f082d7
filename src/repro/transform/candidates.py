"""Candidate-substitution generation (the paper's
``get_candidate_substitutions``).

Following refs [2, 5], candidates are found with simulation rather than
explicit don't-care computation: a substitution can only be permissible if
the substituting function agrees with the substituted signal on every
pattern where that signal is *observable* at some primary output.  With the
committed bit-parallel pattern set this is a handful of vector operations
per (target, source) pair:

    compatible(a <- f)  iff  (word(f) XOR word(a)) AND obs(a) == 0

Survivors are true candidates in the paper's sense — *potentially*
permissible; the exact ATPG check happens later, per selected move.

To keep rounds bounded the generator ranks sources per target by the
no-re-estimation gain ``PG_A + PG_B`` and keeps the best few; 3-signal
substitutions (OS3/IS3) additionally restrict the pair search to a short
list of low-activity sources and are only attempted where the dying region
is worth at least one new gate.  The quick gains of a target's OS2/IS2
singles and OS3/IS3 pairs are computed as arrays, and only the entries
that reach the target's ``max_per_target``-th best gain become
:class:`Candidate` objects.

:class:`CandidateWorkspace` holds the expensive per-netlist state — the
batched observability maps, the stem-value matrix, the stem-reachability
matrix, and a content-validated cache of OS3/IS3 pair-compatibility tables
— and keeps it alive across optimizer rounds.  After a committed edit the
caller reports the dirty gates via :meth:`CandidateWorkspace.invalidate`
and only the affected observability masks are recomputed; everything
derived from unchanged signals is reused.  Candidates themselves are
re-enumerated every round in a fixed order so the emitted list is
bit-identical to a from-scratch generation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable, Optional

import numpy as np

from repro.errors import TransformError
from repro.kernels.words import popcount, popcount_lastaxis
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.observability import ObservabilityMaps
from repro.netlist.simulate import evaluate_cell
from repro.netlist.traverse import topological_order
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.transform.gain import (
    GainBreakdown,
    dominated_region,
    quick_gain,
    region_power,
)
from repro.transform.substitution import IS2, IS3, OS2, OS3, Substitution


@dataclass(frozen=True)
class CandidateOptions:
    """Knobs for candidate generation."""

    enable_os2: bool = True
    enable_is2: bool = True
    enable_os3: bool = True
    enable_is3: bool = True
    allow_inversion: bool = True
    #: Best candidates kept per target signal/branch.
    max_per_target: int = 6
    #: Global cap on the returned candidate list.
    max_total: int = 4000
    #: Source-list length for the OS3/IS3 pair search.
    pair_source_limit: int = 14
    #: Cell names usable as the inserted OS3/IS3 gate (None = all 2-input).
    os3_cells: Optional[tuple[str, ...]] = None
    #: Drop candidates whose quick gain is below this (None keeps all).
    min_quick_gain: Optional[float] = None
    #: Also propose substitutions by library tie cells (redundancy removal)
    #: when a signal is constant on every observable pattern.  Off by
    #: default: the paper's move set is signal substitutions only.
    constant_substitution: bool = False

    def __post_init__(self):
        # The caps are slice bounds; a negative one would count from the
        # end of the list instead of capping it.
        for name in ("max_per_target", "max_total", "pair_source_limit"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )

    def to_dict(self) -> dict:
        """JSON-representable form; inverse of :meth:`from_dict`."""
        data = asdict(self)
        if self.os3_cells is not None:
            data["os3_cells"] = list(self.os3_cells)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateOptions":
        """Rebuild from :meth:`to_dict` output; unknown keys are errors."""
        known = {entry.name for entry in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown CandidateOptions field(s): {', '.join(unknown)}"
            )
        kwargs = dict(data)
        if kwargs.get("os3_cells") is not None:
            kwargs["os3_cells"] = tuple(kwargs["os3_cells"])
        return cls(**kwargs)


@dataclass
class Candidate:
    """A potentially permissible substitution with its quick gain."""

    substitution: Substitution
    gain: GainBreakdown
    #: Memoized ranking key (every candidate is sorted at least twice).
    _key: Optional[tuple[float, str]] = None

    @property
    def quick(self) -> float:
        return self.gain.quick


def _require_sim(estimator: PowerEstimator) -> SimulationProbability:
    engine = estimator.engine
    if not isinstance(engine, SimulationProbability):
        raise TransformError(
            "candidate generation needs a SimulationProbability engine"
        )
    return engine


class CandidateWorkspace:
    """Persistent candidate-generation state shared across rounds.

    Owns an :class:`ObservabilityMaps` over the estimator's committed
    simulation.  Construction pays one full reverse sweep; afterwards the
    optimizer calls :meth:`invalidate` with the dirty gates of each applied
    move and the masks update incrementally.  :meth:`generate` enumerates
    candidates against the current netlist in the same deterministic order
    as a fresh workspace would.
    """

    def __init__(self, estimator: PowerEstimator):
        self.estimator = estimator
        self.netlist: Netlist = estimator.netlist
        self.engine = _require_sim(estimator)
        self.sim = self.engine.sim
        self.maps = ObservabilityMaps(self.sim)
        #: (target name, branch) -> content-validated pair-compat table.
        self._pair_cache: dict[
            tuple[str, Optional[tuple[str, int]]], tuple
        ] = {}
        #: Keys whose cache entry was validated/rebuilt by this round's
        #: batch precompute, mapped to whether it counted as a reuse.
        self._fresh: dict[tuple[str, Optional[tuple[str, int]]], bool] = {}
        #: Lifetime tallies of pair-table reuse, read by the run tracer.
        self.pair_cache_hits = 0
        self.pair_cache_misses = 0
        #: Dirty gates accumulated since the last mask flush (by id: names
        #: can be freed by one edit and reused by a later one).
        self._pending: dict[int, Gate] = {}
        # Per-round state, rebuilt by _refresh_round().
        self.stems: list[Gate] = []
        self.index: dict[str, int] = {}
        self.matrix: Optional[np.ndarray] = None
        self.matrix_next: Optional[np.ndarray] = None
        self.reach: Optional[np.ndarray] = None
        self.activity: np.ndarray = np.zeros(0, dtype=np.float64)
        self.act_order: np.ndarray = np.zeros(0, dtype=np.intp)
        #: The round's deduplicated 2-input cell list (None outside a
        #: generate() round with pair substitutions enabled).
        self._round_cells: Optional[list] = None

    # ------------------------------------------------------------------
    def invalidate(self, dirty: list[Gate]) -> None:
        """Report committed-netlist edits (values, fanins, fanouts, POs).

        ``dirty`` must contain every live gate whose committed value,
        fanin list, fanout list, or PO binding changed since the last
        call — :meth:`AppliedSubstitution.dirty_gate_names` plus the
        resimulation-changed gates.  Dead gates are detected by absence.

        The masks are not recomputed here: edits accumulate and flush in
        one batch at the next :meth:`generate`, so a round of applied
        moves pays for one incremental sweep, not one per move.
        """
        for gate in dirty:
            self._pending[id(gate)] = gate

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        self.maps.update_after_edit(
            [g for g in self._pending.values() if g.name in self.netlist.gates]
        )
        self._pending.clear()
        live = self.netlist.gates
        for key in [k for k in self._pair_cache if k[0] not in live]:
            del self._pair_cache[key]

    # ------------------------------------------------------------------
    def _refresh_round(self) -> None:
        self._flush_pending()
        self.stems = list(topological_order(self.netlist))
        self.index = {g.name: i for i, g in enumerate(self.stems)}
        self.matrix = np.stack(
            [self.sim.value(g.name) for g in self.stems]
        )  # (num stems, nwords)
        sim_next = getattr(self.engine, "sim_next", None)
        self.matrix_next = (
            np.stack([sim_next.value(g.name) for g in self.stems])
            if sim_next is not None
            else None
        )
        self.reach = self._reachability()
        # Stable activity order over all stems: restricting it to any
        # source subset gives the same list as sorting that subset, so the
        # per-target OS3/IS3 rankings come from one sort per round.
        self.activity = np.array(
            [self.estimator.activity(g) for g in self.stems], dtype=np.float64
        )
        self.act_order = np.argsort(self.activity, kind="stable")

    def _reachability(self) -> np.ndarray:
        """Boolean matrix: ``reach[i, j]`` iff stem j is i or in TFO(i)."""
        n = len(self.stems)
        reach = np.zeros((n, n), dtype=bool)
        # Reverse topological order: every sink row is final when OR-ed in.
        for i in range(n - 1, -1, -1):
            row = reach[i]
            row[i] = True
            for sink, _pin in self.stems[i].fanouts:
                row |= reach[self.index[sink.name]]
        return reach

    def legal_sources(self, avoid: Gate, target: Gate) -> np.ndarray:
        """Stem mask of usable sources: outside TFO(avoid), not target."""
        mask = ~self.reach[self.index[avoid.name]]
        mask[self.index[target.name]] = False
        return mask

    def compatible_rows(
        self, target_word: np.ndarray, obs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(direct, inverted) boolean masks over stems: agree on obs."""
        diff = (self.matrix ^ target_word) & obs
        direct = ~diff.any(axis=1)
        inverted = ~((diff ^ obs).any(axis=1))
        return direct, inverted

    # ------------------------------------------------------------------
    def pair_tables(
        self,
        key: tuple[str, Optional[tuple[str, int]]],
        ranked: list[int],
        va: np.ndarray,
        obs: np.ndarray,
        cells: list,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(compat, activity) tables over ``ranked`` sources × cells.

        ``compat[ai, bi, ci]`` (ai < bi) is True when the cell over the
        ranked sources agrees with the target on every observable pattern;
        ``activity[ai, bi, ci]`` is the switching activity the inserted
        gate's output would have — the whole OS3/IS3 gain table in two
        broadcast passes instead of one ``evaluate_cell`` per tuple.
        Cached per target/branch; entries self-validate against the array
        content they were computed from, so no eager invalidation needed.
        """
        fresh = self._fresh.pop(key, None)
        if fresh is not None:
            # The round's batch precompute already validated (or rebuilt)
            # this entry against the exact same content.
            if fresh:
                self.pair_cache_hits += 1
            else:
                self.pair_cache_misses += 1
            cached = self._pair_cache[key]
            return cached[6], cached[7]
        names = tuple(self.stems[i].name for i in ranked)
        cell_sig = tuple(c.name for c in cells)
        rows, rows_next = self._ranked_rows(ranked)
        if self._cache_valid(key, names, cell_sig, va, obs, rows, rows_next):
            self.pair_cache_hits += 1
            cached = self._pair_cache[key]
            return cached[6], cached[7]
        self.pair_cache_misses += 1
        table, act = self._compute_pair_tables(rows, rows_next, va, obs, cells)
        self._pair_cache[key] = (
            names, cell_sig, va, obs, rows, rows_next, table, act,
        )
        return table, act

    def _ranked_rows(
        self, ranked: list[int]
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        rows = self.matrix[ranked] if ranked else np.zeros(
            (0, self.sim.nwords), dtype=np.uint64
        )
        rows_next = (
            self.matrix_next[ranked]
            if self.matrix_next is not None and ranked
            else (None if self.matrix_next is None else rows[:0])
        )
        return rows, rows_next

    def _cache_valid(
        self, key, names, cell_sig, va, obs, rows, rows_next
    ) -> bool:
        cached = self._pair_cache.get(key)
        if cached is None:
            return False
        (
            c_names, c_cells, c_va, c_obs, c_rows, c_rows_next,
            _c_table, _c_act,
        ) = cached
        next_match = (
            c_rows_next is None
            if rows_next is None
            else c_rows_next is not None
            and np.array_equal(c_rows_next, rows_next)
        )
        return (
            c_names == names
            and c_cells == cell_sig
            and next_match
            and np.array_equal(c_va, va)
            and np.array_equal(c_obs, obs)
            and np.array_equal(c_rows, rows)
        )

    def _ranked_sources(
        self, source_mask: np.ndarray, limit: int
    ) -> list[int]:
        """First ``limit`` legal sources in the round's activity order."""
        order = self.act_order
        return order[source_mask[order]][:limit].tolist()

    def _precompute_pair_tables(self, options: "CandidateOptions") -> None:
        """Batch-(re)build every pair table this round's enumeration needs.

        Computing the tables one target at a time spends more wall clock on
        numpy dispatch than on bit-math; stacking all stale targets of equal
        source-list length into one broadcast pass amortises it.  Results
        land in ``_pair_cache`` exactly as the per-target path would have
        left them, and reuse accounting is deferred to :meth:`pair_tables`.
        """
        cells = self._round_cells
        if cells is None:
            cells = _two_input_cells(self.netlist, options)
        if not cells:
            return
        limit = options.pair_source_limit
        jobs: list[tuple] = []
        if options.enable_os3:
            for target in self.stems:
                if target.is_input or not target.fanout_count():
                    continue
                jobs.append((
                    (target.name, None),
                    self._ranked_sources(
                        self.legal_sources(target, target), limit
                    ),
                    self.sim.value(target.name),
                    self.maps.stem[target.name],
                ))
        if options.enable_is3:
            for target in self.stems:
                if target.fanout_count() < 2:
                    continue
                for sink, pin in list(target.fanouts):
                    jobs.append((
                        (target.name, (sink.name, pin)),
                        self._ranked_sources(
                            self.legal_sources(sink, target), limit
                        ),
                        self.sim.value(target.name),
                        self.maps.branch(sink, pin),
                    ))
        cell_sig = tuple(c.name for c in cells)
        by_k: dict[int, list[tuple]] = {}
        for key, ranked, va, obs in jobs:
            names = tuple(self.stems[i].name for i in ranked)
            rows, rows_next = self._ranked_rows(ranked)
            if self._cache_valid(
                key, names, cell_sig, va, obs, rows, rows_next
            ):
                self._fresh[key] = True
                continue
            self._fresh[key] = False
            by_k.setdefault(len(ranked), []).append(
                (key, names, va, obs, rows, rows_next)
            )
        for k, group in by_k.items():
            if k < 2:
                for key, names, va, obs, rows, rows_next in group:
                    table = np.zeros((k, k, len(cells)), dtype=bool)
                    act = np.zeros((k, k, len(cells)), dtype=np.float64)
                    self._pair_cache[key] = (
                        names, cell_sig, va, obs, rows, rows_next, table, act,
                    )
                continue
            rows_b = np.stack([job[4] for job in group])
            rows_next_b = (
                np.stack([job[5] for job in group])
                if group[0][5] is not None
                else None
            )
            va_b = np.stack([job[2] for job in group])
            obs_b = np.stack([job[3] for job in group])
            tables, acts = self._compute_pair_tables_batch(
                rows_b, rows_next_b, va_b, obs_b, cells
            )
            for ji, (key, names, va, obs, rows, rows_next) in enumerate(
                group
            ):
                self._pair_cache[key] = (
                    names, cell_sig, va, obs, rows, rows_next,
                    tables[ji], acts[ji],
                )

    def _compute_pair_tables(
        self,
        rows: np.ndarray,
        rows_next: Optional[np.ndarray],
        va: np.ndarray,
        obs: np.ndarray,
        cells: list,
    ) -> tuple[np.ndarray, np.ndarray]:
        k = len(rows)
        total = self.sim.num_patterns
        table = np.zeros((k, k, len(cells)), dtype=bool)
        act = np.zeros((k, k, len(cells)), dtype=np.float64)
        if k < 2:
            return table, act
        wa = rows[:, None, :]  # (k, 1, w)
        wb = rows[None, :, :]  # (1, k, w)
        if rows_next is not None:
            na = rows_next[:, None, :]
            nb = rows_next[None, :, :]
        # Complement pairs (AND/NAND, OR/NOR, XOR/XNOR) share one kernel
        # evaluation: with d = (word ^ va) & obs the complement's masked
        # disagreement is d ^ obs, and its switching activity is identical
        # (~w ^ ~w' == w ^ w'; 2p(1-p) is symmetric in p <-> 1-p).
        done: dict[int, tuple[np.ndarray, int]] = {}
        full_words = total == 64 * self.sim.nwords
        for ci, cell in enumerate(cells):
            bits = cell.function.bits
            mate = done.get(~bits & 0b1111)
            if mate is not None:
                d_mate, mi = mate
                table[:, :, ci] = ~((d_mate ^ obs).any(axis=2))
                if rows_next is not None or full_words:
                    act[:, :, ci] = act[:, :, mi]
                else:
                    # Padding bits flip under complement, so the shortcut
                    # is only exact when every word bit is a pattern.
                    word = _two_input_word(bits, wa, wb)
                    p = popcount_lastaxis(word) / total
                    act[:, :, ci] = 2.0 * p * (1.0 - p)
                continue
            word = _two_input_word(bits, wa, wb)
            if word is not None:
                d = (word ^ va) & obs
                table[:, :, ci] = ~(d.any(axis=2))
                if rows_next is not None:
                    word_next = _two_input_word(bits, na, nb)
                    act[:, :, ci] = (
                        popcount_lastaxis(word ^ word_next) / total
                    )
                else:
                    p = popcount_lastaxis(word) / total
                    act[:, :, ci] = 2.0 * p * (1.0 - p)
                done[bits] = (d, ci)
                continue
            # Odd cell without a broadcast fast path: per-pair fallback.
            for ai in range(k):
                for bi in range(ai + 1, k):
                    w = evaluate_cell(
                        cell, [rows[ai], rows[bi]], self.sim.nwords
                    )
                    table[ai, bi, ci] = not ((w ^ va) & obs).any()
                    if rows_next is not None:
                        w_next = evaluate_cell(
                            cell,
                            [rows_next[ai], rows_next[bi]],
                            self.sim.nwords,
                        )
                        act[ai, bi, ci] = popcount(w ^ w_next) / total
                    else:
                        p = popcount(w) / total
                        act[ai, bi, ci] = 2.0 * p * (1.0 - p)
        return table, act

    def _compute_pair_tables_batch(
        self,
        rows: np.ndarray,
        rows_next: Optional[np.ndarray],
        va: np.ndarray,
        obs: np.ndarray,
        cells: list,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_compute_pair_tables` over a job axis.

        ``rows`` is ``(jobs, k, words)``; ``va``/``obs`` are ``(jobs,
        words)``.  Purely elementwise over the extra axis, so each slice
        is bit-identical to the per-target computation.
        """
        j, k, _w = rows.shape
        total = self.sim.num_patterns
        table = np.zeros((j, k, k, len(cells)), dtype=bool)
        act = np.zeros((j, k, k, len(cells)), dtype=np.float64)
        wa = rows[:, :, None, :]  # (j, k, 1, w)
        wb = rows[:, None, :, :]  # (j, 1, k, w)
        if rows_next is not None:
            na = rows_next[:, :, None, :]
            nb = rows_next[:, None, :, :]
        va_b = va[:, None, None, :]
        obs_b = obs[:, None, None, :]
        done: dict[int, tuple[np.ndarray, int]] = {}
        full_words = total == 64 * self.sim.nwords
        for ci, cell in enumerate(cells):
            bits = cell.function.bits
            mate = done.get(~bits & 0b1111)
            if mate is not None:
                d_mate, mi = mate
                table[:, :, :, ci] = ~((d_mate ^ obs_b).any(axis=3))
                if rows_next is not None or full_words:
                    act[:, :, :, ci] = act[:, :, :, mi]
                else:
                    word = _two_input_word(bits, wa, wb)
                    p = popcount_lastaxis(word) / total
                    act[:, :, :, ci] = 2.0 * p * (1.0 - p)
                continue
            word = _two_input_word(bits, wa, wb)
            if word is not None:
                d = (word ^ va_b) & obs_b
                table[:, :, :, ci] = ~(d.any(axis=3))
                if rows_next is not None:
                    word_next = _two_input_word(bits, na, nb)
                    act[:, :, :, ci] = (
                        popcount_lastaxis(word ^ word_next) / total
                    )
                else:
                    p = popcount_lastaxis(word) / total
                    act[:, :, :, ci] = 2.0 * p * (1.0 - p)
                done[bits] = (d, ci)
                continue
            # Odd cell without a broadcast fast path: per-pair fallback.
            for ji in range(j):
                for ai in range(k):
                    for bi in range(ai + 1, k):
                        w = evaluate_cell(
                            cell,
                            [rows[ji, ai], rows[ji, bi]],
                            self.sim.nwords,
                        )
                        table[ji, ai, bi, ci] = not (
                            (w ^ va[ji]) & obs[ji]
                        ).any()
                        if rows_next is not None:
                            w_next = evaluate_cell(
                                cell,
                                [rows_next[ji, ai], rows_next[ji, bi]],
                                self.sim.nwords,
                            )
                            act[ji, ai, bi, ci] = (
                                popcount(w ^ w_next) / total
                            )
                        else:
                            p = popcount(w) / total
                            act[ji, ai, bi, ci] = 2.0 * p * (1.0 - p)
        return table, act

    # ------------------------------------------------------------------
    def generate(
        self, options: CandidateOptions | None = None
    ) -> list[Candidate]:
        """All simulation-compatible substitutions, best quick gain first."""
        options = options or CandidateOptions()
        self._refresh_round()
        self._fresh.clear()
        if options.enable_os3 or options.enable_is3:
            self._round_cells = _two_input_cells(self.netlist, options)
            self._precompute_pair_tables(options)
        else:
            self._round_cells = None
        collected: list[Candidate] = []

        if options.enable_os2 or options.enable_os3:
            for target in self.stems:
                if target.is_input or not target.fanout_count():
                    continue
                collected.extend(_stem_candidates(self, target, options))

        if options.enable_is2 or options.enable_is3:
            for target in self.stems:
                if target.fanout_count() < 2:
                    continue  # single-branch stems are covered by OS2
                for sink, pin in list(target.fanouts):
                    collected.extend(
                        _branch_candidates(self, target, sink, pin, options)
                    )

        # Ties on quick gain are broken by the canonical candidate ID, so
        # the ranking (and with it the whole move sequence) is reproducible
        # across Python builds and immune to generation-order changes.
        collected.sort(key=_rank_key)
        return collected[: options.max_total]


def _two_input_cells(netlist: Netlist, options: CandidateOptions):
    """OS3/IS3 insertion gates: the library's capability query, or the
    explicit ``os3_cells`` override (deduped the same way)."""
    library = netlist.library
    if library is None:
        return []
    if options.os3_cells is None:
        return library.insertion_cells()
    cells = [library[name] for name in options.os3_cells]
    # One cell per distinct function (cheapest) keeps the pair search lean.
    by_function = {}
    for cell in sorted(cells, key=lambda c: c.area):
        by_function.setdefault(cell.function.bits, cell)
    return list(by_function.values())


def _rank_key(candidate: Candidate) -> tuple[float, str]:
    """Best quick gain first; equal gains in canonical candidate-ID order."""
    key = candidate._key
    if key is None:
        key = candidate._key = (
            -candidate.quick, candidate.substitution.candidate_id()
        )
    return key


#: Quick gains of a target's array-scored entries, with the builder of
#: the candidate behind entry ``j``.
_Scored = tuple[np.ndarray, Callable[[int], Candidate]]


def _keep_best(
    candidates: list[Candidate], limit: int
) -> list[Candidate]:
    candidates.sort(key=_rank_key)
    return candidates[:limit]


def _build_best(
    exact: list[Candidate], scored: list[_Scored], limit: int
) -> list[Candidate]:
    """A target's ``limit`` best candidates by ``(-quick, candidate_id)``.

    ``exact`` holds built candidates; ``scored`` entries are built only
    when their quick gain reaches the ``limit``-th best of all of them.
    Entries tied with that gain are built too, because the candidate ID
    decides among them, so the result is the one sorting every candidate
    would give.
    """
    if limit == 0:
        return []
    quicks = np.concatenate(
        [np.array([c.quick for c in exact], dtype=np.float64)]
        + [quick for quick, _build in scored]
    )
    floor = -np.inf
    if quicks.size > limit:
        floor = np.partition(quicks, quicks.size - limit)[quicks.size - limit]
    found = list(exact)
    for quick, build in scored:
        found.extend(build(j) for j in np.flatnonzero(quick >= floor))
    return _keep_best(found, limit)


def _min_quick_filter(
    quick: np.ndarray, min_quick: Optional[float]
) -> np.ndarray:
    """Entries ``_try_candidate`` would keep: not below ``min_quick``."""
    if min_quick is None:
        return np.ones(quick.shape, dtype=bool)
    return ~(quick < min_quick)


def _try_candidate(
    estimator: PowerEstimator,
    substitution: Substitution,
    collected: list[Candidate],
    min_quick: Optional[float],
) -> None:
    try:
        gain = quick_gain(estimator, substitution)
    except TransformError:
        return  # e.g. source inside the dying region
    if min_quick is not None and gain.quick < min_quick:
        return
    collected.append(Candidate(substitution, gain))


def _stem_candidates(
    workspace: CandidateWorkspace,
    target: Gate,
    options: CandidateOptions,
) -> list[Candidate]:
    """OS2/OS3 candidates for one stem."""
    estimator = workspace.estimator
    netlist = workspace.netlist
    obs = workspace.maps.stem[target.name]
    va = workspace.sim.value(target.name)
    source_mask = workspace.legal_sources(target, target)
    direct, inverted = workspace.compatible_rows(va, obs)

    # Output substitutions from sources outside the dying region all share
    # the region, its released power, and the moved load — computed once
    # per target and reused across OS2 singles and the OS3 pair table.
    region = dominated_region(netlist, target)
    pg_a = region_power(estimator, region)
    moved = netlist.load_of(target)
    area_base = -sum(g.cell.area for g in region if not g.is_input)
    in_region = np.zeros(len(workspace.stems), dtype=bool)
    in_region[[workspace.index[g.name] for g in region]] = True
    dying = [g.name for g in region]
    region_info = (pg_a, moved, area_base, in_region, dying)

    exact: list[Candidate] = []
    scored: list[_Scored] = []
    if options.constant_substitution:
        _constant_candidates(
            workspace, target, None, va, obs, options, exact
        )
    if options.enable_os2:
        _single_candidates(
            workspace, target, None, source_mask, direct, inverted,
            options, region_info, exact, scored,
        )
    if options.enable_os3:
        _pair_candidates(
            workspace, target, None, va, obs, source_mask, options,
            region_info, exact, scored,
        )
    return _build_best(exact, scored, options.max_per_target)


def _branch_candidates(
    workspace: CandidateWorkspace,
    target: Gate,
    sink: Gate,
    pin: int,
    options: CandidateOptions,
) -> list[Candidate]:
    """IS2/IS3 candidates for one branch of ``target``."""
    estimator = workspace.estimator
    obs = workspace.maps.branch(sink, pin)
    va = workspace.sim.value(target.name)
    source_mask = workspace.legal_sources(sink, target)
    direct, inverted = workspace.compatible_rows(va, obs)
    branch = (sink.name, pin)

    # The target keeps its other fanouts (the caller guarantees >= 2), so
    # the dying region is empty for every branch substitution: the gain
    # scalars are shared across IS2 singles and the IS3 pair table.
    moved = sink.cell.pins[pin].load
    pg_a = moved * estimator.activity(target)
    in_region = np.zeros(len(workspace.stems), dtype=bool)
    region_info = (pg_a, moved, 0, in_region, [])

    exact: list[Candidate] = []
    scored: list[_Scored] = []
    if options.constant_substitution:
        _constant_candidates(
            workspace, target, branch, va, obs, options, exact
        )
    if options.enable_is2:
        _single_candidates(
            workspace, target, branch, source_mask, direct, inverted,
            options, region_info, exact, scored,
        )
    if options.enable_is3:
        _pair_candidates(
            workspace, target, branch, va, obs, source_mask, options,
            region_info, exact, scored,
        )
    return _build_best(exact, scored, options.max_per_target)


#: Read-only ``k × k`` strict-upper-triangle masks, shared across targets
#: (every target with the same ranked-list length uses the same mask).
_UPPER_CACHE: dict[int, np.ndarray] = {}


def _upper_mask(k: int) -> np.ndarray:
    mask = _UPPER_CACHE.get(k)
    if mask is None:
        mask = np.zeros((k, k), dtype=bool)
        if k >= 2:
            mask[np.triu_indices(k, 1)] = True
        _UPPER_CACHE[k] = mask
    return mask


def _two_input_word(bits: int, wa: np.ndarray, wb: np.ndarray):
    """Fast path for the common 2-input functions (pin order symmetric)."""
    if bits == 0b1000:
        return wa & wb
    if bits == 0b1110:
        return wa | wb
    if bits == 0b0110:
        return wa ^ wb
    if bits == 0b0111:
        return ~(wa & wb)
    if bits == 0b0001:
        return ~(wa | wb)
    if bits == 0b1001:
        return ~(wa ^ wb)
    return None


def _constant_candidates(
    workspace: CandidateWorkspace,
    target: Gate,
    branch: Optional[tuple[str, int]],
    va: np.ndarray,
    obs: np.ndarray,
    options: CandidateOptions,
    found: list[Candidate],
) -> None:
    """Tie-cell substitutions where the signal is constant when observed."""
    library = workspace.netlist.library
    if library is None:
        return
    kind = OS2 if branch is None else IS2
    for value in (0, 1):
        if library.constant(bool(value)) is None:
            continue
        # Signal must equal `value` on every observable pattern.
        mismatch = (~va & obs) if value else (va & obs)
        if mismatch.any():
            continue
        _try_candidate(
            workspace.estimator,
            Substitution(kind, target.name, "", branch=branch, constant=value),
            found,
            options.min_quick_gain,
        )


def _single_candidates(
    workspace: CandidateWorkspace,
    target: Gate,
    branch: Optional[tuple[str, int]],
    source_mask: np.ndarray,
    direct: np.ndarray,
    inverted: np.ndarray,
    options: CandidateOptions,
    region_info: tuple,
    exact: list[Candidate],
    scored: list[_Scored],
) -> None:
    """OS2/IS2: move the target (or its branch) onto one stem.

    Compatible sources are sparse, so only the hits are enumerated.  The
    sources that share the target's gain scalars are scored as one array
    into ``scored``; the rest take the exact per-candidate path into
    ``exact``.
    """
    library = workspace.netlist.library
    inverter = library.inverter() if library is not None else None
    kind = OS2 if branch is None else IS2
    _pg_a, _moved, _area_base, in_region, _dying = region_info
    hits: list[tuple[np.ndarray, bool]] = [(source_mask & direct, False)]
    if options.allow_inversion:
        hits.append((source_mask & inverted & ~direct, True))
    for mask, invert in hits:
        # A source inside the dying region reshapes it, and an inverted
        # source has no scalar price without a library inverter.
        exact_only = invert and inverter is None
        slow = mask if exact_only else mask & in_region
        for i in np.flatnonzero(slow):
            _try_candidate(
                workspace.estimator,
                Substitution(
                    kind, target.name, workspace.stems[i].name,
                    invert1=invert, branch=branch,
                ),
                exact,
                options.min_quick_gain,
            )
        if not exact_only:
            scored.append(_scored_singles(
                workspace, kind, target, branch,
                np.flatnonzero(mask & ~slow), invert, inverter,
                options, region_info,
            ))


def _scored_singles(
    workspace: CandidateWorkspace,
    kind: str,
    target: Gate,
    branch: Optional[tuple[str, int]],
    indices: np.ndarray,
    invert: bool,
    inverter,
    options: CandidateOptions,
    region_info: tuple,
) -> _Scored:
    """Quick gains of the moves onto the stems at ``indices``."""
    pg_a, moved, area_base, _in_region, dying = region_info
    act_src = workspace.activity[indices]
    # The scalar expressions of quick_gain, elementwise: the floats are
    # bit-identical to building each candidate.
    if invert:
        pg_b = -(inverter.pins[0].load * act_src + moved * act_src)
        area_delta = area_base + inverter.area
    else:
        pg_b = -(moved * act_src)
        area_delta = area_base
    quick = pg_a + pg_b
    keep = _min_quick_filter(quick, options.min_quick_gain)
    indices, pg_b, quick = indices[keep], pg_b[keep], quick[keep]

    def build(j: int) -> Candidate:
        return Candidate(
            Substitution(
                kind, target.name, workspace.stems[indices[j]].name,
                invert1=invert, branch=branch,
            ),
            GainBreakdown(
                pg_a=pg_a,
                pg_b=float(pg_b[j]),
                area_delta=area_delta,
                dying=list(dying),
            ),
        )

    return quick, build


def _pair_candidates(
    workspace: CandidateWorkspace,
    target: Gate,
    branch: Optional[tuple[str, int]],
    va: np.ndarray,
    obs: np.ndarray,
    source_mask: np.ndarray,
    options: CandidateOptions,
    region_info: tuple,
    exact: list[Candidate],
    scored: list[_Scored],
) -> None:
    """OS3/IS3: insert a new 2-input gate over a short source list.

    ``region_info`` is the caller's per-target PG_A, moved load, area
    base, dying-region stem mask and dying names; the insertion cells are
    the round's, set by :meth:`CandidateWorkspace.generate`.  Tuples with
    a source inside the dying region go through the exact path into
    ``exact``; the rest are scored as one array into ``scored``.
    """
    estimator = workspace.estimator
    cells = workspace._round_cells
    if not cells:
        return
    # Rank sources by activity: low-activity signals make cheap drivers.
    # The round's stable activity order restricted to the legal sources is
    # exactly what sorting them per target would give.
    ranked = workspace._ranked_sources(source_mask, options.pair_source_limit)
    kind = OS3 if branch is None else IS3
    table, act = workspace.pair_tables(
        (target.name, branch), ranked, va, obs, cells
    )
    pg_a, moved, area_base, in_region, dying = region_info
    stems = workspace.stems

    def substitution(ai: int, bi: int, ci: int) -> Substitution:
        return Substitution(
            kind,
            target.name,
            stems[ranked[ai]].name,
            branch=branch,
            source2=stems[ranked[bi]].name,
            new_cell=cells[ci].name,
        )

    ranked_array = np.asarray(ranked, dtype=np.intp)
    ai, bi, ci = np.nonzero(table & _upper_mask(len(ranked))[:, :, None])
    # A source inside the unconstrained region would reshape it (the keep
    # set binds); those rare tuples take the exact per-candidate path.
    slow = in_region[ranked_array[ai]] | in_region[ranked_array[bi]]
    for j in np.flatnonzero(slow):
        _try_candidate(
            estimator, substitution(ai[j], bi[j], ci[j]), exact,
            options.min_quick_gain,
        )
    ai, bi, ci = ai[~slow], bi[~slow], ci[~slow]
    # Every other tuple shares the dying region, the PG_A sum and the
    # moved load, so PG_B is one expression over the whole table, grouped
    # as _pg_b groups it for one tuple.
    act_src = workspace.activity[ranked_array]
    load0 = np.array([cell.pins[0].load for cell in cells], dtype=np.float64)
    load1 = np.array([cell.pins[1].load for cell in cells], dtype=np.float64)
    pg_b = -(
        (load0[ci] * act_src[ai] + load1[ci] * act_src[bi])
        + moved * act[ai, bi, ci]
    )
    quick = pg_a + pg_b
    keep = _min_quick_filter(quick, options.min_quick_gain)
    ai, bi, ci = ai[keep], bi[keep], ci[keep]
    pg_b, quick = pg_b[keep], quick[keep]

    def build(j: int) -> Candidate:
        return Candidate(
            substitution(ai[j], bi[j], ci[j]),
            GainBreakdown(
                pg_a=pg_a,
                pg_b=float(pg_b[j]),
                area_delta=area_base + cells[ci[j]].area,
                dying=list(dying),
            ),
        )

    scored.append((quick, build))


def generate_candidates(
    estimator: PowerEstimator,
    options: CandidateOptions | None = None,
) -> list[Candidate]:
    """One-shot candidate generation (fresh workspace, then discarded)."""
    return CandidateWorkspace(estimator).generate(options)
