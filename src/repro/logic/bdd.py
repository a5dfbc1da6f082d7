"""A compact reduced ordered BDD (ROBDD) package.

Used for *exact* signal-probability computation on small and medium circuits
(:mod:`repro.power.probability`).  The design is deliberately simple and
allocation-light:

- nodes live in parallel arrays (``var``, ``low``, ``high``) indexed by an
  integer id; ids 0 and 1 are the terminals,
- a unique table guarantees canonicity,
- binary operations go through a memoised :meth:`BddManager.apply`,
- probabilities are computed by one memoised bottom-up pass.

There is no garbage collection or dynamic reordering: managers are cheap,
callers build one per query batch and drop it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import LogicError

#: Terminal node ids.
ZERO = 0
ONE = 1

_OP_AND = "and"
_OP_OR = "or"
_OP_XOR = "xor"

#: Safety valve against runaway BDD growth on pathological circuits.
DEFAULT_NODE_LIMIT = 2_000_000


class BddSizeError(LogicError):
    """The BDD exceeded the manager's node limit."""


class BddManager:
    """ROBDD manager over a fixed variable order ``0 .. nvars-1``."""

    def __init__(self, nvars: int, node_limit: int = DEFAULT_NODE_LIMIT):
        if nvars < 0:
            raise LogicError("nvars must be non-negative")
        self.nvars = nvars
        self.node_limit = node_limit
        # Terminals occupy slots 0 and 1; ``var`` = nvars acts as +infinity
        # so terminals sort below every decision node.
        self._var: list[int] = [nvars, nvars]
        self._low: list[int] = [0, 1]
        self._high: list[int] = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple[str, int, int], int] = {}
        self._not_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def var_of(self, node: int) -> int:
        return self._var[node]

    def low_of(self, node: int) -> int:
        return self._low[node]

    def high_of(self, node: int) -> int:
        return self._high[node]

    def mk(self, var: int, low: int, high: int) -> int:
        """Get-or-create the canonical node (var, low, high)."""
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        if len(self._var) >= self.node_limit:
            raise BddSizeError(
                f"BDD node limit of {self.node_limit} exceeded"
            )
        node = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    def variable(self, var: int) -> int:
        """BDD of the projection function ``x_var``."""
        if not 0 <= var < self.nvars:
            raise LogicError(f"variable {var} out of range")
        return self.mk(var, ZERO, ONE)

    def constant(self, value: bool) -> int:
        return ONE if value else ZERO

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------
    def apply_and(self, f: int, g: int) -> int:
        return self._apply(_OP_AND, f, g)

    def apply_or(self, f: int, g: int) -> int:
        return self._apply(_OP_OR, f, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self._apply(_OP_XOR, f, g)

    def apply_not(self, f: int) -> int:
        cached = self._not_cache.get(f)
        if cached is not None:
            return cached
        if f == ZERO:
            result = ONE
        elif f == ONE:
            result = ZERO
        else:
            result = self.mk(
                self._var[f],
                self.apply_not(self._low[f]),
                self.apply_not(self._high[f]),
            )
        self._not_cache[f] = result
        return result

    def _terminal_case(self, op: str, f: int, g: int) -> int | None:
        if op == _OP_AND:
            if f == ZERO or g == ZERO:
                return ZERO
            if f == ONE:
                return g
            if g == ONE:
                return f
            if f == g:
                return f
        elif op == _OP_OR:
            if f == ONE or g == ONE:
                return ONE
            if f == ZERO:
                return g
            if g == ZERO:
                return f
            if f == g:
                return f
        else:  # XOR
            if f == ZERO:
                return g
            if g == ZERO:
                return f
            if f == g:
                return ZERO
            if f == ONE:
                return self.apply_not(g)
            if g == ONE:
                return self.apply_not(f)
        return None

    def _apply(self, op: str, f: int, g: int) -> int:
        terminal = self._terminal_case(op, f, g)
        if terminal is not None:
            return terminal
        if op != _OP_AND and op != _OP_OR and op != _OP_XOR:
            raise LogicError(f"unknown BDD operation {op!r}")
        # Commutative ops: normalise the cache key.
        key = (op, f, g) if f <= g else (op, g, f)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        var_f, var_g = self._var[f], self._var[g]
        top = min(var_f, var_g)
        f0, f1 = (self._low[f], self._high[f]) if var_f == top else (f, f)
        g0, g1 = (self._low[g], self._high[g]) if var_g == top else (g, g)
        result = self.mk(
            top, self._apply(op, f0, g0), self._apply(op, f1, g1)
        )
        self._apply_cache[key] = result
        return result

    def apply_ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f·g + !f·h`` built from the binary ops."""
        return self.apply_or(
            self.apply_and(f, g), self.apply_and(self.apply_not(f), h)
        )

    # ------------------------------------------------------------------
    # Evaluation and analysis
    # ------------------------------------------------------------------
    def evaluate(self, node: int, inputs: Sequence[int]) -> int:
        while node > ONE:
            var = self._var[node]
            node = self._high[node] if inputs[var] else self._low[node]
        return node

    def probability(
        self, node: int, input_probs: Sequence[float]
    ) -> float:
        """Exact probability that the function is 1.

        ``input_probs[v]`` is P(x_v = 1); inputs are assumed independent.
        One memoised bottom-up pass, linear in BDD size.
        """
        if len(input_probs) != self.nvars:
            raise LogicError("one probability per variable required")
        memo: dict[int, float] = {ZERO: 0.0, ONE: 1.0}
        stack = [node]
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            low, high = self._low[n], self._high[n]
            missing = [c for c in (low, high) if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            p = input_probs[self._var[n]]
            memo[n] = (1.0 - p) * memo[low] + p * memo[high]
            stack.pop()
        return memo[node]

    def count_minterms(self, node: int) -> int:
        """Number of satisfying assignments over the full variable set."""
        memo: dict[int, int] = {}

        def solve(n: int) -> int:
            # Counts assignments of variables var(n) .. nvars-1 (terminals
            # have var = nvars, so they count a single empty assignment).
            if n == ZERO:
                return 0
            if n == ONE:
                return 1
            cached = memo.get(n)
            if cached is not None:
                return cached
            var = self._var[n]
            low, high = self._low[n], self._high[n]
            count = (solve(low) << (self._var[low] - var - 1)) + (
                solve(high) << (self._var[high] - var - 1)
            )
            memo[n] = count
            return count

        # Variables above the root are free.
        return solve(node) << self._var[node]

    def support(self, node: int) -> tuple[int, ...]:
        """Variables the function depends on."""
        seen: set[int] = set()
        visited: set[int] = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n <= ONE or n in visited:
                continue
            visited.add(n)
            seen.add(self._var[n])
            stack.append(self._low[n])
            stack.append(self._high[n])
        return tuple(sorted(seen))

    def reachable(self, roots: Sequence[int]) -> set[int]:
        """Decision nodes reachable from ``roots`` (terminals excluded)."""
        visited: set[int] = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n <= ONE or n in visited:
                continue
            visited.add(n)
            stack.append(self._low[n])
            stack.append(self._high[n])
        return visited

    def transfer(
        self,
        roots: Sequence[int],
        target: "BddManager",
        var_map: Sequence[int] | None = None,
    ) -> list[int]:
        """Copy the functions rooted at ``roots`` into another manager.

        ``var_map[old] = new`` renames variable ``old`` of this manager to
        variable ``new`` of ``target`` (identity when omitted).  The copy
        goes through ``target``'s own ``ite``, so the result is a proper
        ROBDD under *target's* variable order even when the map shuffles
        levels — this is the rebuild primitive behind
        :func:`sift_weighted`.
        """
        if var_map is None:
            var_map = list(range(self.nvars))
        memo: dict[int, int] = {ZERO: ZERO, ONE: ONE}
        order = sorted(
            self.reachable(roots), key=lambda n: self._var[n], reverse=True
        )
        for n in order:
            x = target.variable(var_map[self._var[n]])
            memo[n] = target.apply_ite(
                x, memo[self._high[n]], memo[self._low[n]]
            )
        return [memo[r] for r in roots]


# ----------------------------------------------------------------------
# Probability-weighted variable reordering (rebuild-based sifting)
# ----------------------------------------------------------------------
#
# Following the low-power BDD synthesis line of work, a decision node on
# variable v is charged the switching activity of its control signal,
# w_v = 2 * p_v * (1 - p_v): a MUX decomposition of the BDD spends one
# multiplexer per node, and that multiplexer's select input toggles with
# exactly that activity.  Classic sifting minimises node count; weighting
# the count by w_v instead steers high-activity variables toward levels
# where they label few nodes.  With all probabilities at 0.5 every weight
# is 0.5 and this degenerates to plain size-driven sifting.
#
# Reordering is implemented by *rebuild*, not in-place level swaps: each
# candidate position of the sifted variable is one :meth:`BddManager.transfer`
# into a fresh manager under the candidate order.  That is asymptotically
# slower than adjacent swaps but cannot break canonicity, and the
# ``max_vars``/``growth_limit`` bounds keep it tractable at the sizes the
# resynthesis pass feeds it.

#: Small tie-break so equal weighted cost prefers the smaller BDD.
_SIZE_EPSILON = 1e-6


def activity_weights(input_probs: Sequence[float]) -> list[float]:
    """Per-variable switching activity ``2 * p * (1 - p)``."""
    return [2.0 * p * (1.0 - p) for p in input_probs]


def weighted_node_cost(
    manager: BddManager, roots: Sequence[int], weights: Sequence[float]
) -> float:
    """Activity-weighted node count of the shared BDD under ``roots``.

    ``weights[v]`` is indexed by the *manager's* variable ids.  Includes
    an ``_SIZE_EPSILON`` per-node term so orders with identical weighted
    cost (e.g. every input quiet) still rank by plain size.
    """
    total = 0.0
    for n in manager.reachable(roots):
        total += weights[manager.var_of(n)] + _SIZE_EPSILON
    return total


@dataclass
class ReorderResult:
    """Outcome of :func:`sift_weighted`.

    ``order[level] = original_var``: the variable of the input manager
    that now sits at ``level`` in ``manager``.  ``roots`` are the copies
    of the input roots inside the reordered manager.
    """

    manager: BddManager
    roots: list[int]
    order: tuple[int, ...]
    initial_cost: float
    final_cost: float


def _rebuild(
    manager: BddManager,
    roots: Sequence[int],
    order: Sequence[int],
    node_limit: int,
) -> tuple[BddManager, list[int]]:
    """Copy ``roots`` into a fresh manager whose level *l* holds
    ``order[l]``; raises :class:`BddSizeError` past ``node_limit``."""
    target = BddManager(manager.nvars, node_limit=node_limit)
    var_map = [0] * manager.nvars
    for level, original in enumerate(order):
        var_map[original] = level
    return target, manager.transfer(roots, target, var_map)


def sift_weighted(
    manager: BddManager,
    roots: Sequence[int],
    input_probs: Sequence[float] | None = None,
    max_vars: int | None = 8,
    growth_limit: float = 8.0,
) -> ReorderResult:
    """Sift variables to minimise the activity-weighted node count.

    Each of the ``max_vars`` most expensive variables (by current
    weighted contribution; ``None`` sifts all) is tried at every level;
    the best position is kept before moving to the next variable.  Every
    candidate order is evaluated by rebuilding the shared BDD from
    scratch, with a per-rebuild node budget of ``growth_limit`` times
    the current size — candidates that blow past it are discarded, so a
    pathological order cannot stall the pass.  Fully deterministic:
    ties keep the earlier position / lower variable id.
    """
    nvars = manager.nvars
    if input_probs is None:
        input_probs = [0.5] * nvars
    if len(input_probs) != nvars:
        raise LogicError("one probability per variable required")
    weights = activity_weights(input_probs)

    order = list(range(nvars))
    initial_cost = weighted_node_cost(manager, roots, weights)
    cost = initial_cost
    live_size = len(manager.reachable(roots))
    # Every candidate order is rebuilt from the *input* manager, whose
    # variable ids are the original ones each ``order`` speaks in —
    # transferring out of an already-reordered manager would misread its
    # level-indexed variables as original ids.
    best_build: tuple[BddManager, list[int]] | None = None

    # Rank original variables by what they currently cost us.
    contribution = [0.0] * nvars
    for n in manager.reachable(roots):
        contribution[manager.var_of(n)] += (
            weights[manager.var_of(n)] + _SIZE_EPSILON
        )
    candidates = sorted(
        range(nvars), key=lambda v: (-contribution[v], v)
    )
    candidates = [v for v in candidates if contribution[v] > 0.0]
    if max_vars is not None:
        candidates = candidates[:max_vars]

    for var in candidates:
        home = order.index(var)
        best_pos, best_cost = home, cost
        var_build: tuple[BddManager, list[int]] | None = None
        # The rebuild budget covers live nodes plus the garbage the
        # target's own ite calls leave behind, hence the slack factor.
        budget = int(max(live_size, 64) * growth_limit * 4) + 2
        for pos in range(nvars):
            if pos == home:
                continue
            trial = order.copy()
            trial.remove(var)
            trial.insert(pos, var)
            try:
                built, built_roots = _rebuild(manager, roots, trial, budget)
            except BddSizeError:
                continue
            # Weights are indexed by ORIGINAL variable: remap per level.
            level_weights = [weights[v] for v in trial]
            trial_cost = weighted_node_cost(
                built, built_roots, level_weights
            )
            if trial_cost < best_cost:
                best_pos, best_cost = pos, trial_cost
                var_build = (built, built_roots)
        if var_build is not None and best_pos != home:
            order.remove(var)
            order.insert(best_pos, var)
            cost = best_cost
            best_build = var_build
            live_size = len(var_build[0].reachable(var_build[1]))

    if best_build is None:
        # No move helped: still hand back a copy so callers can drop the
        # input manager uniformly.
        best_build = _rebuild(manager, roots, order, manager.node_limit)
    return ReorderResult(
        manager=best_build[0],
        roots=best_build[1],
        order=tuple(order),
        initial_cost=initial_cost,
        final_cost=cost,
    )
