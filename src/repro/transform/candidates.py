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
is worth at least one new gate.

A round runs a few array passes over all its targets.  One table holds
every stem target, then every branch target, with its observability
words, the gate whose fanout cone no source may be in, and its dying
region.  Each fixed-size chunk of targets is tested against every stem at
once; the OS2/IS2 singles and the round's OS3/IS3 pair entries are scored
as flat arrays with ``quick_gain``'s float grouping.  One sort over
(target, quick gain) finds each target's ``max_per_target``-th best gain,
ties with it are broken by candidate-ID ranks in the arrays, and only
each target's ``max_per_target`` best become :class:`Candidate` objects.
A move whose gain needs the exact path gets it only when its fast-path
value, an upper bound, can still reach that floor.

:class:`CandidateWorkspace` builds a round's state from the committed
simulation at the start of every round — the batched observability maps,
the stem-value matrix, the stem-reachability matrix and the OS3/IS3 pair
entries — and the next round reads none of it, so an edit never needs
reporting.  A pair entry holds only the compatible tuples: every
``a < b`` source pair with every insertion cell, and an asymmetric cell
also with its pins swapped.  Candidates are enumerated in a fixed order,
so the emitted list depends only on the netlist and its simulation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from repro.errors import TransformError
from repro.kernels.bits import ints_to_matrix
from repro.kernels.words import popcount_lastaxis
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.observability import ObservabilityMaps
from repro.netlist.traverse import topological_order
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.transform.gain import (
    GainBreakdown,
    dominated_region,
    quick_gain,
    region_power,
)
from repro.transform.substitution import (
    IS2,
    IS3,
    OS2,
    OS3,
    Substitution,
    format_candidate_id,
)

#: Targets per array pass, and pair-table jobs per kernel batch.  Fixed
#: sizes bound a round's temporaries: a pass over a chunk holds
#: ``(chunk, stems)`` words and every compatible entry of its targets (at
#: 64 patterns nearly every stem is compatible with every target), a
#: kernel batch ``(jobs, pairs, pin orders)`` flags and activities, which
#: ``pair_source_limit`` bounds however large the netlist is.
_CHUNK = 16
_PAIR_BATCH = 64

#: Entry codes of a single: a source, inverted or not, or the tie cell of
#: value ``_TIE0 - code`` (0 or 1); a pair entry's code is its cell index.
_DIRECT, _INVERTED, _TIE0 = -1, -2, -3


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

    @property
    def quick(self) -> float:
        return self.gain.quick


@dataclass
class _Targets:
    """One round's targets: every stem's output (rows ``:split``), then
    every branch of a multi-fanout stem, with what their moves share."""

    #: Each row's target name and branch (None for a stem target).
    keys: list[tuple[str, Optional[tuple[str, int]]]]
    #: Stem index of the target, and of the gate that no source may be or
    #: reach: the target itself, or the branch's sink.
    tgt: np.ndarray
    avoid: np.ndarray
    #: ``(rows, words)`` observability words of the target or branch.
    obs: np.ndarray
    #: PG_A, moved load, area change and dying names of every move whose
    #: sources lie outside the dying region.
    pg_a: np.ndarray
    moved: np.ndarray
    area_base: list[float]
    dying: list[list[str]]
    #: ``(members, 2)`` dying-region members as (row, stem index), by row.
    region: np.ndarray
    split: int
    #: The pair search's ranked sources of every row, flat, each row's
    #: start in them, and each OS3/IS3 row's compatible ``(a, b, cell,
    #: activity)`` tuples, ``a`` and ``b`` indexing the row's ranked
    #: sources; set by the pair-table precompute.
    ranked: np.ndarray = field(default_factory=lambda: np.zeros(0, np.intp))
    rank_start: np.ndarray = field(
        default_factory=lambda: np.zeros(0, np.intp)
    )
    pairs: list = field(default_factory=list)

    def sections(self) -> tuple[tuple[int, int, bool], ...]:
        """``(start, stop, is_branch)`` of the stem and branch rows."""
        return ((0, self.split, False), (self.split, len(self.keys), True))

    def legal(self, reach: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """``(hi - lo, stems)`` mask of the rows' usable sources."""
        legal = ~reach[self.avoid[lo:hi]]
        legal[np.arange(hi - lo), self.tgt[lo:hi]] = False
        return legal


def _require_sim(estimator: PowerEstimator) -> SimulationProbability:
    engine = estimator.engine
    if not isinstance(engine, SimulationProbability):
        raise TransformError(
            "candidate generation needs a SimulationProbability engine"
        )
    return engine


class CandidateWorkspace:
    """Candidate generation over one estimator's committed simulation.

    Every :meth:`generate` rebuilds the round's state from the netlist
    and the simulation as they stand — the :class:`ObservabilityMaps`
    sweep, the word and reachability matrices, the pair entries — so the
    caller reports no edits, and a round's pool equals a fresh
    workspace's.
    """

    def __init__(self, estimator: PowerEstimator):
        self.estimator = estimator
        self.netlist: Netlist = estimator.netlist
        self.engine = _require_sim(estimator)
        self.sim = self.engine.sim
        # Per-round state, rebuilt by _refresh_round().
        self.stems: list[Gate] = []
        self.index: dict[str, int] = {}
        self.matrix: Optional[np.ndarray] = None
        self.matrix_next: Optional[np.ndarray] = None
        self.reach: Optional[np.ndarray] = None
        self.activity: np.ndarray = np.zeros(0, dtype=np.float64)
        self.act_order: np.ndarray = np.zeros(0, dtype=np.intp)
        # Stem names and then "" (a constant move's source), the round's
        # cell names and then "", and their tie-break ranks.
        self.names: list[str] = []
        self.cell_names: list[str] = []
        self.ranks: Optional[tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    def _refresh_round(self, cells: list) -> None:
        self.stems = list(topological_order(self.netlist))
        self.index = {g.name: i for i, g in enumerate(self.stems)}
        # The simulation's derived word matrix: its rows follow the packed
        # view, whose order is this same topological order.
        self.matrix = self.sim.matrix()  # (num stems, nwords)
        sim_next = getattr(self.engine, "sim_next", None)
        self.matrix_next = sim_next.matrix() if sim_next is not None else None
        self.reach = self._reachability()
        # Stable activity order over all stems: restricting it to any
        # source subset gives the same list as sorting that subset, so the
        # per-target OS3/IS3 rankings come from one sort per round.
        self.activity = np.array(
            [self.estimator.activity(g) for g in self.stems], dtype=np.float64
        )
        self.act_order = np.argsort(self.activity, kind="stable")
        # ``candidate_id`` joins its fields with "|": while no name holds
        # one, comparing IDs compares names field by field as ``name +
        # "|"``.  Otherwise there are no ranks, and the IDs are ranked.
        self.names = [g.name for g in self.stems] + [""]
        self.cell_names = [c.name for c in cells] + [""]
        self.ranks = None
        if not any("|" in name for name in self.names + self.cell_names):
            self.ranks = (
                _ranks([name + "|" for name in self.names]),
                _ranks([name + "|" for name in self.cell_names]),
            )

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

    def _target_table(self, options: "CandidateOptions") -> _Targets:
        """The round's targets, in the order every round enumerates them."""
        netlist, estimator, index = self.netlist, self.estimator, self.index
        maps = ObservabilityMaps(self.sim)
        rows: list[tuple] = []
        if options.enable_os2 or options.enable_os3:
            for target in self.stems:
                if target.is_input or not target.fanout_count():
                    continue
                # Output moves by sources outside the dying region all
                # share the region, its released power and the moved load.
                region = dominated_region(netlist, target)
                rows.append((
                    target.name, None, target, maps.stem[target.name],
                    region_power(estimator, region), netlist.load_of(target),
                    -sum(g.cell.area for g in region if not g.is_input),
                    region,
                ))
        split = len(rows)
        if options.enable_is2 or options.enable_is3:
            for target in self.stems:
                if target.fanout_count() < 2:
                    continue  # single-branch stems are covered by OS2
                for sink, pin in list(target.fanouts):
                    # The target keeps its other fanouts, so the dying
                    # region of every branch move is empty.
                    moved = sink.cell.pins[pin].load
                    rows.append((
                        target.name, (sink.name, pin), sink,
                        maps.branch(sink, pin),
                        moved * estimator.activity(target), moved, 0, [],
                    ))
        names, branches, avoid, obs, pg_a, moved, area, regions = (
            list(zip(*rows)) or [()] * 8
        )
        region = [
            (row, index[g.name])
            for row, members in enumerate(regions)
            for g in members
        ]
        return _Targets(
            keys=list(zip(names, branches)),
            tgt=np.array([index[n] for n in names], dtype=np.intp),
            avoid=np.array([index[g.name] for g in avoid], dtype=np.intp),
            obs=ints_to_matrix(obs, self.sim.nwords),
            pg_a=np.array(pg_a, dtype=np.float64),
            moved=np.array(moved, dtype=np.float64),
            area_base=list(area),
            dying=[[g.name for g in members] for members in regions],
            region=np.array(region, dtype=np.intp).reshape(-1, 2),
            split=split,
        )

    # ------------------------------------------------------------------
    def pair_tables(
        self, table: _Targets, lo: int, hi: int
    ) -> tuple[np.ndarray, ...]:
        """The OS3/IS3 entries of rows ``lo:hi`` as flat arrays.

        Returns ``(row, first, second, cell, activity)``: the row relative
        to ``lo``, the stems on pin 0 and pin 1, the cell's index in the
        round's list and the inserted gate's activity, from the entries
        :meth:`_precompute_pair_tables` computed this round.
        """
        entries = table.pairs[lo:hi]
        row = np.repeat(np.arange(hi - lo), [e[3].size for e in entries])
        a, b, cell, act = (np.concatenate(column) for column in zip(*entries))
        start = table.rank_start[lo:hi][row]
        return row, table.ranked[start + a], table.ranked[start + b], cell, act

    def _precompute_pair_tables(
        self, table: _Targets, cells: list, options: "CandidateOptions"
    ) -> None:
        """Rank every OS3/IS3 row's sources and compute its entry.

        A row's sources are its first ``pair_source_limit`` legal stems in
        the round's activity order (low-activity signals make cheap
        drivers).  :meth:`_pair_kernel` computes the entries of
        ``_PAIR_BATCH`` rows at a time, each row's sources padded to the
        batch's longest list.
        """
        limit = options.pair_source_limit
        ranked_parts: list[np.ndarray] = []
        rank_start = np.zeros(len(table.keys), dtype=np.intp)
        rank_count = np.zeros(len(table.keys), dtype=np.intp)
        row_parts: list[np.ndarray] = []
        offset = 0
        for lo, hi, branch in table.sections():
            if not (options.enable_is3 if branch else options.enable_os3):
                continue
            for start in range(lo, hi, _CHUNK):
                stop = min(start + _CHUNK, hi)
                ordered = table.legal(self.reach, start, stop)[
                    :, self.act_order
                ]
                rank_row, position = np.nonzero(
                    ordered & (np.cumsum(ordered, axis=1) <= limit)
                )
                ranked_parts.append(self.act_order[position])
                rank_start[start:stop] = offset + np.searchsorted(
                    rank_row, np.arange(stop - start)
                )
                rank_count[start:stop] = np.bincount(
                    rank_row, minlength=stop - start
                )
                row_parts.append(np.arange(start, stop))
                offset += position.size
        if ranked_parts:
            table.ranked = np.concatenate(ranked_parts)
        table.rank_start = rank_start
        table.pairs = [None] * len(table.keys)
        rows = (
            np.concatenate(row_parts) if row_parts
            else np.zeros(0, dtype=np.intp)
        )
        for start in range(0, rows.size, _PAIR_BATCH):
            batch = rows[start:start + _PAIR_BATCH]
            count = rank_count[batch]
            column = np.arange(count.max())
            # A row's sources past its own count are padding: the kernel
            # masks every pair that reaches them.
            sources = table.ranked[np.where(
                column < count[:, None], rank_start[batch, None] + column, 0
            )]
            entries = self._pair_kernel(
                self.matrix[sources],
                None if self.matrix_next is None
                else self.matrix_next[sources],
                self.matrix[table.tgt[batch]],
                table.obs[batch],
                count,
                cells,
            )
            for row, entry in zip(batch.tolist(), entries):
                table.pairs[row] = entry

    def _pair_kernel(
        self,
        rows: np.ndarray,
        rows_next: Optional[np.ndarray],
        va: np.ndarray,
        obs: np.ndarray,
        counts: np.ndarray,
        cells: list,
    ) -> list[tuple[np.ndarray, ...]]:
        """The compatible OS3/IS3 tuples of a batch of jobs.

        ``rows`` is ``(jobs, k, words)`` — the ranked sources' words, the
        ``k - counts[j]`` after job ``j``'s own sources being padding —
        with ``rows_next`` their cycle-t+1 words under a temporal engine,
        else ``None``; ``va``/``obs`` are ``(jobs, words)``.  Every source
        pair ``a < b`` is tested with every cell, and with an asymmetric
        cell's pins swapped as ``(b, a)``; activities are computed for the
        compatible tuples alone.  Returns each job's ``(a, b, cell,
        activity)``, elementwise over the job axis, so a one-job batch
        gives the same entry.
        """
        jobs, k, _words = rows.shape
        pa, pb = np.triu_indices(k, 1)
        orders = _pin_orders(cells)
        # Word 0 rules out most tuples; only its survivors are read whole,
        # and the words that pass give the activities too.
        wa, wb = rows[:, pa, 0], rows[:, pb, 0]  # (jobs, pairs)
        valid = pb < counts[:, None]
        survive = np.empty((jobs, pa.size, len(orders)), dtype=bool)
        for v, (_ci, bits, _swapped) in enumerate(orders):
            d = _two_input_word(bits, wa, wb)
            d ^= va[:, None, 0]
            d &= obs[:, None, 0]
            survive[:, :, v] = (d == 0) & valid
        compat = np.zeros(survive.shape, dtype=bool)
        activity = np.empty(survive.shape, dtype=np.float64)
        total = self.sim.num_patterns
        job, pair, order = np.nonzero(survive)
        for v, (_ci, bits, _swapped) in enumerate(orders):
            hit = np.flatnonzero(order == v)
            j, p = job[hit], pair[hit]
            word = _two_input_word(bits, rows[j, pa[p]], rows[j, pb[p]])
            ok = ~((word ^ va[j]) & obs[j]).any(axis=1)
            j, p, word = j[ok], p[ok], word[ok]
            compat[j, p, v] = True
            if rows_next is None:
                prob = popcount_lastaxis(word) / total
                activity[j, p, v] = 2.0 * prob * (1.0 - prob)
            else:
                word ^= _two_input_word(
                    bits, rows_next[j, pa[p]], rows_next[j, pb[p]]
                )
                activity[j, p, v] = popcount_lastaxis(word) / total
        job, pair, order = np.nonzero(compat)
        act = activity[job, pair, order]
        swapped = np.array([s for _c, _b, s in orders], dtype=bool)[order]
        index = np.min_scalar_type(max(k - 1, 0))
        a = np.where(swapped, pb[pair], pa[pair]).astype(index)
        b = np.where(swapped, pa[pair], pb[pair]).astype(index)
        cell = np.array([c for c, _b, _s in orders], dtype=np.intp)[
            order
        ].astype(np.min_scalar_type(len(cells)))
        bounds = np.searchsorted(job, np.arange(jobs + 1)).tolist()
        return [
            (a[s:e], b[s:e], cell[s:e], act[s:e])
            for s, e in zip(bounds, bounds[1:])
        ]

    # ------------------------------------------------------------------
    def _chunk_candidates(
        self,
        table: _Targets,
        lo: int,
        hi: int,
        branch: bool,
        cells: list,
        options: "CandidateOptions",
    ) -> list[Candidate]:
        """Each of rows ``lo:hi``'s ``max_per_target`` best candidates.

        Every compatible move of the rows is an entry of flat arrays.
        Moves whose sources lie outside the row's dying region share its
        PG_A and moved load, so their quick gains are flat arrays.  A
        source inside the region reshapes it, and a constant or an
        inverted source without a library inverter has no scalar price;
        those take the exact per-candidate path, unless their fast-path
        value, which bounds the exact gain from above, is already below
        the row's floor, its ``max_per_target``-th fast gain.  Only the
        entries a row keeps become :class:`Candidate` objects.
        """
        estimator, stems, names = self.estimator, self.stems, self.names
        library = self.netlist.library
        inverter = library.inverter() if library is not None else None
        min_quick = options.min_quick_gain
        kind2, kind3 = (IS2, IS3) if branch else (OS2, OS3)
        size = hi - lo
        absent = len(stems)  # the name slot of a missing source
        tgt = table.tgt[lo:hi]
        obs = table.obs[lo:hi]
        moved = table.moved[lo:hi]
        pg_a = table.pg_a[lo:hi]
        legal = table.legal(self.reach, lo, hi)
        in_region = np.zeros((size, absent + 1), dtype=bool)
        first, last = np.searchsorted(table.region[:, 0], [lo, hi])
        members = table.region[first:last]
        in_region[members[:, 0] - lo, members[:, 1]] = True

        # Entries: row, code (a cell index, _DIRECT, _INVERTED or a tie
        # code), pin-0 and pin-1 source slots, PG_B (+inf when it has no
        # scalar price: no bound).
        entries: list[tuple[np.ndarray, ...]] = []
        if options.constant_substitution:
            ties = [
                (r, _TIE0 - value)
                for r in range(size)
                for value in _constant_values(
                    self, stems[tgt[r]], table.keys[lo + r][1],
                    self.matrix[tgt[r]], obs[r],
                )
            ]
            r, c = np.array(ties, dtype=np.intp).reshape(-1, 2).T
            entries.append((
                r, c, np.full(r.size, absent), np.full(r.size, absent),
                np.full(r.size, np.inf),
            ))
        if options.enable_is2 if branch else options.enable_os2:
            # Word 0 rules out most sources; only its survivors are read
            # whole.  A source is compatible inverted where it disagrees
            # with the target on every observable pattern.
            va = self.matrix[tgt]
            d = self.matrix[None, :, 0] ^ va[:, None, 0]
            d &= obs[:, None, 0]
            survive = d == 0
            if options.allow_inversion:
                survive |= d == obs[:, None, 0]
            r, s = np.nonzero(legal & survive)
            d = self.matrix[s] ^ va[r]
            d &= obs[r]
            direct = ~d.any(axis=1)
            hits = [(direct, _DIRECT)]
            if options.allow_inversion:
                d ^= obs[r]
                hits.append((~direct & ~d.any(axis=1), _INVERTED))
            for hit, mode in hits:
                rr, ss = r[hit], s[hit]
                # quick_gain's scalar expressions, elementwise: the floats
                # are bit-identical to building each candidate.
                act_src = self.activity[ss]
                if mode == _DIRECT:
                    pg_b = -(moved[rr] * act_src)
                elif inverter is not None:
                    load = inverter.pins[0].load
                    pg_b = -(load * act_src + moved[rr] * act_src)
                else:
                    pg_b = np.full(rr.size, np.inf)
                entries.append((
                    rr, np.full(rr.size, mode), ss,
                    np.full(rr.size, absent), pg_b,
                ))
        if cells and (options.enable_is3 if branch else options.enable_os3):
            r, s1, s2, ci, act = self.pair_tables(table, lo, hi)
            load0 = np.array([c.pins[0].load for c in cells])
            load1 = np.array([c.pins[1].load for c in cells])
            # PG_B grouped as _pg_b groups it for one tuple.
            pg_b = -(
                (load0[ci] * self.activity[s1]
                 + load1[ci] * self.activity[s2])
                + moved[r] * act
            )
            entries.append((r, ci.astype(np.intp), s1, s2, pg_b))
        if not entries:
            return []
        row, code, src1, src2, pg_b = [
            np.concatenate(column) for column in zip(*entries)
        ]
        quick = pg_a[row] + pg_b

        def substitution(r, c, s1, s2):
            target, branch_key = table.keys[lo + r]
            if c >= 0:
                return Substitution(
                    kind3, target, names[s1], branch=branch_key,
                    source2=names[s2], new_cell=cells[c].name,
                )
            if c <= _TIE0:
                return Substitution(
                    kind2, target, "", branch=branch_key, constant=_TIE0 - c
                )
            return Substitution(
                kind2, target, names[s1], invert1=c == _INVERTED,
                branch=branch_key,
            )

        exact = in_region[row, src1] | in_region[row, src2] | (pg_b == np.inf)
        scored = ~exact
        if min_quick is not None:
            scored &= ~(quick < min_quick)
        limit = options.max_per_target
        floor = _floor(row[scored], quick[scored], limit, size)
        gains: dict[int, tuple[Substitution, GainBreakdown]] = {}
        slow = np.flatnonzero(exact)
        if slow.size:
            # Keeping a source s shrinks the dying region to Dom(t) minus
            # s and its transitive fanin, so the fast-path value bounds the
            # exact gain from above: an entry it puts below the floor by
            # more than float noise cannot be kept, and needs no exact gain.
            margin = 1e-9 * (np.abs(pg_a[row[slow]]) + np.abs(pg_b[slow]))
            slow = slow[~(quick[slow] < floor[row[slow]] - margin)]
            for i, r, c, s1, s2 in zip(slow.tolist(), *(
                column[slow].tolist() for column in (row, code, src1, src2)
            )):
                sub = substitution(r, c, s1, s2)
                gain = quick_gain(estimator, sub)
                if min_quick is None or not gain.quick < min_quick:
                    quick[i] = gain.quick
                    gains[i] = (sub, gain)
                    scored[i] = True
        # An entry below its row's floor trails at least ``limit`` others.
        # A row left with more than ``limit`` entries (ties at the floor,
        # or exact gains above it) keeps its best by candidate ID.
        reach = np.flatnonzero(scored & (quick >= floor[row]))
        crowded = (np.bincount(row[reach], minlength=size) > limit)[
            row[reach]
        ]
        keep, crowd = reach[~crowded], reach[crowded]
        if crowd.size:
            tie = self._tie_keys(
                table, lo, row[crowd], code[crowd], src1[crowd],
                src2[crowd], (kind2, kind3),
            )
            keep = np.concatenate([
                keep, crowd[_head(row[crowd], quick[crowd], tie, limit)]
            ])
        built = []
        row_pg_a = pg_a.tolist()
        for i, r, c, s1, s2, b in zip(keep.tolist(), *(
            column[keep].tolist()
            for column in (row, code, src1, src2, pg_b)
        )):
            found = gains.get(i)
            if found is None:
                area = table.area_base[lo + r]
                if c >= 0:
                    area = area + cells[c].area
                elif c == _INVERTED:
                    area = area + inverter.area
                found = (substitution(r, c, s1, s2), GainBreakdown(
                    pg_a=row_pg_a[r], pg_b=b, area_delta=area,
                    dying=list(table.dying[lo + r]),
                ))
            built.append(Candidate(*found))
        return built

    def _tie_keys(
        self,
        table: _Targets,
        lo: int,
        row: np.ndarray,
        code: np.ndarray,
        src1: np.ndarray,
        src2: np.ndarray,
        kinds: tuple[str, str],
    ) -> np.ndarray:
        """Integers that order each row's entries as their candidate IDs.

        A row fixes the target and the branch, so while no name holds a
        ``|``, the ID order is the order of the other fields: the kind,
        source 1, its inversion, source 2, the cell and the constant,
        each name ranked by ``name + "|"``.  Otherwise the IDs themselves
        are ranked.
        """
        if self.ranks is None:
            names = self.names
            ids = []
            for r, c, s1, s2 in zip(
                row.tolist(), code.tolist(), src1.tolist(), src2.tolist()
            ):
                target, branch = table.keys[lo + r]
                ids.append(format_candidate_id(
                    kinds[c >= 0], target, names[s1],
                    invert1=c == _INVERTED, branch=branch,
                    source2=names[s2] if c >= 0 else None,
                    new_cell=self.cell_names[c] if c >= 0 else None,
                    constant=_TIE0 - c if c <= _TIE0 else None,
                ))
            return _ranks(ids)
        pair = code >= 0
        name_rank, cell_rank = self.ranks
        key = pair * name_rank.size + name_rank[src1]
        key = key * 2 + (code == _INVERTED)
        key = key * name_rank.size + name_rank[src2]
        key = key * cell_rank.size + cell_rank[np.where(pair, code, -1)]
        return key * 3 + np.where(code <= _TIE0, _TIE0 + 1 - code, 0)

    def generate(
        self, options: CandidateOptions | None = None
    ) -> list[Candidate]:
        """All simulation-compatible substitutions, best quick gain first."""
        options = options or CandidateOptions()
        cells = (
            _two_input_cells(self.netlist, options)
            if options.enable_os3 or options.enable_is3
            else []
        )
        self._refresh_round(cells)
        table = self._target_table(options)
        if cells:
            self._precompute_pair_tables(table, cells, options)
        collected: list[Candidate] = []
        if options.max_per_target:
            for lo, hi, branch in table.sections():
                for start in range(lo, hi, _CHUNK):
                    collected.extend(self._chunk_candidates(
                        table, start, min(start + _CHUNK, hi), branch,
                        cells, options,
                    ))
        # Ties on quick gain are broken by the canonical candidate ID, so
        # the ranking (and with it the whole move sequence) is reproducible
        # across Python builds and immune to generation-order changes.
        collected.sort(
            key=lambda c: (-c.quick, c.substitution.candidate_id())
        )
        return collected[: options.max_total]


def _two_input_cells(netlist: Netlist, options: CandidateOptions):
    """OS3/IS3 insertion gates: the library's capability query, or the
    explicit ``os3_cells`` override (deduped the same way).

    An override naming a cell that is not 2-input raises
    :class:`TransformError`.
    """
    library = netlist.library
    if library is None:
        return []
    if options.os3_cells is None:
        return library.insertion_cells()
    cells = [library[name] for name in options.os3_cells]
    for cell in cells:
        if cell.num_inputs != 2:
            raise TransformError(
                f"candidates.os3_cells: {cell.name!r} is a "
                f"{cell.num_inputs}-input cell; an OS3/IS3 insertion gate "
                f"needs 2 input pins"
            )
    # One cell per distinct function (cheapest) keeps the pair search lean.
    by_function = {}
    for cell in sorted(cells, key=lambda c: c.area):
        by_function.setdefault(cell.function.bits, cell)
    return list(by_function.values())


def _ranks(keys: list[str]) -> np.ndarray:
    """Each key's position in the sorted list of ``keys``."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.arange(len(keys))
    return ranks


def _floor(
    row: np.ndarray, quick: np.ndarray, limit: int, size: int
) -> np.ndarray:
    """Each of ``size`` rows' ``limit``-th best quick gain (``-inf`` in a
    row with fewer entries); ``limit`` is positive."""
    order = np.lexsort((quick, row))
    counts = np.bincount(row, minlength=size)
    floor = np.full(size, -np.inf)
    full = counts >= limit
    floor[full] = quick[order[np.cumsum(counts)[full] - limit]]
    return floor


def _head(
    row: np.ndarray, quick: np.ndarray, tie: np.ndarray, limit: int
) -> np.ndarray:
    """Each row's first ``limit`` entries by ``(-quick, tie)``, by row."""
    order = np.lexsort((tie, -quick, row))
    ranked = row[order]
    place = np.arange(ranked.size) - np.searchsorted(ranked, ranked)
    return order[place < limit]


def _pin_orders(cells: list) -> list[tuple[int, int, bool]]:
    """``(cell index, truth table over (a, b), pins swapped)`` to test a
    source pair ``a < b`` with.

    Every cell in order, then every asymmetric 2-input cell with its pins
    swapped, unless a round cell already computes the swapped function
    (one cell per function, as :func:`_two_input_cells` keeps them).
    """
    functions = {cell.function.bits for cell in cells}
    orders = [(ci, cell.function.bits, False) for ci, cell in enumerate(cells)]
    for ci, cell in enumerate(cells):
        bits = cell.function.bits
        # Bit a + 2b of the truth table moves to bit b + 2a.
        swapped = (
            (bits & 0b1001) | ((bits & 0b0010) << 1) | ((bits & 0b0100) >> 1)
        )
        if cell.num_inputs == 2 and swapped not in functions:
            orders.append((ci, swapped, True))
    return orders


def _two_input_word(
    bits: int, wa: np.ndarray, wb: np.ndarray
) -> np.ndarray:
    """A 2-input cell's words over broadcast pin-a/pin-b words.

    ``bits`` is the cell's truth table (bit ``a + 2b`` is the output on
    pin values ``a``, ``b``).  The common symmetric functions take one
    word operation; any other, such as ``a·!b``, is the OR of its
    minterms.
    """
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
    word = np.zeros(np.broadcast_shapes(wa.shape, wb.shape), dtype=np.uint64)
    for minterm in range(4):
        if bits >> minterm & 1:
            word |= (wa if minterm & 1 else ~wa) & (wb if minterm & 2 else ~wb)
    return word


def _constant_values(
    workspace: CandidateWorkspace,
    target: Gate,
    branch: Optional[tuple[str, int]],
    va: np.ndarray,
    obs: np.ndarray,
) -> list[int]:
    """The tie-cell values that substitute the signal: those it takes on
    every observable pattern.

    A tie gate is not moved onto its own constant when it is the gate
    :func:`~repro.transform.substitution.apply_substitution` would reuse:
    that move changes nothing.
    """
    netlist = workspace.netlist
    library = netlist.library
    if library is None:
        return []
    kind = OS2 if branch is None else IS2
    values = []
    for value in (0, 1):
        cell = library.constant(bool(value))
        if cell is None:
            continue
        # Signal must equal `value` on every observable pattern.
        mismatch = (~va & obs) if value else (va & obs)
        if mismatch.any():
            continue
        if target.cell is cell and Substitution(
            kind, target.name, "", branch=branch, constant=value
        ).reused_tie(netlist) is target:
            continue
        values.append(value)
    return values


def generate_candidates(
    estimator: PowerEstimator,
    options: CandidateOptions | None = None,
) -> list[Candidate]:
    """One-shot candidate generation (fresh workspace, then discarded)."""
    return CandidateWorkspace(estimator).generate(options)
