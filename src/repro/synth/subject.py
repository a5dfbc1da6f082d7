"""The technology-independent subject graph (AND2 / INV with hashing).

Multi-level synthesis decomposes factored expressions into this graph; the
technology mapper then covers it with library cells.  Construction applies
structural hashing and the usual local simplifications (constant folding,
double-inverter removal, idempotence), so common subexpressions across
outputs are shared automatically.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Optional

import numpy as np

from repro.errors import NetlistError
from repro.logic.expr import AND, CONST, NOT, OR, VAR, XOR, Expr

PI = "pi"
AND2 = "and"
INV = "inv"
CONST0 = "const0"


class SubjectGraph:
    """A DAG of PI / AND2 / INV / CONST0 nodes with structural hashing."""

    def __init__(self, name: str = "subject"):
        self.name = name
        self.kind: list[str] = []
        self.fanin: list[tuple[int, ...]] = []
        self.pi_names: list[str] = []
        self.pi_index: dict[str, int] = {}
        self._pi_name_of: dict[int, str] = {}
        self.outputs: dict[str, int] = {}
        self._hash: dict[tuple, int] = {}
        self._const0: Optional[int] = None

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _new_node(self, kind: str, fanin: tuple[int, ...]) -> int:
        node = len(self.kind)
        self.kind.append(kind)
        self.fanin.append(fanin)
        return node

    def add_pi(self, name: str) -> int:
        if name in self.pi_index:
            raise NetlistError(f"duplicate primary input {name!r}")
        node = self._new_node(PI, ())
        self.pi_names.append(name)
        self.pi_index[name] = node
        self._pi_name_of[node] = name
        return node

    def const0(self) -> int:
        if self._const0 is None:
            self._const0 = self._new_node(CONST0, ())
        return self._const0

    def const1(self) -> int:
        return self.mk_inv(self.const0())

    def mk_inv(self, a: int) -> int:
        if self.kind[a] == INV:
            return self.fanin[a][0]  # !!x = x
        key = (INV, a)
        node = self._hash.get(key)
        if node is None:
            node = self._new_node(INV, (a,))
            self._hash[key] = node
        return node

    def mk_and(self, a: int, b: int) -> int:
        if a == b:
            return a
        zero = self._const0
        if zero is not None:
            if a == zero or b == zero:
                return self.const0()
            one = self._hash.get((INV, zero))
            if one is not None:
                if a == one:
                    return b
                if b == one:
                    return a
        # x & !x = 0
        if (self.kind[a] == INV and self.fanin[a][0] == b) or (
            self.kind[b] == INV and self.fanin[b][0] == a
        ):
            return self.const0()
        lo, hi = (a, b) if a < b else (b, a)
        key = (AND2, lo, hi)
        node = self._hash.get(key)
        if node is None:
            node = self._new_node(AND2, (lo, hi))
            self._hash[key] = node
        return node

    def mk_or(self, a: int, b: int) -> int:
        return self.mk_inv(self.mk_and(self.mk_inv(a), self.mk_inv(b)))

    def mk_xor(self, a: int, b: int) -> int:
        return self.mk_or(
            self.mk_and(a, self.mk_inv(b)), self.mk_and(self.mk_inv(a), b)
        )

    def mk_tree(self, op, operands: Sequence[int]) -> int:
        """Balanced reduction of an operand list with a binary op."""
        if not operands:
            raise NetlistError("empty operand list")
        level = list(operands)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(op(level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def set_output(self, name: str, node: int) -> None:
        self.outputs[name] = node

    # ------------------------------------------------------------------
    # From expressions
    # ------------------------------------------------------------------
    def add_expr(self, expr: Expr, env: Optional[dict] = None) -> int:
        """Decompose an expression; unseen variables become new PIs.

        ``env`` maps variable names to existing graph nodes — used when the
        expression is defined over internal signals (multi-level input).
        A sub-expression object shared within ``expr`` is decomposed once.
        """
        return self._add_expr(expr, env, {})

    def _add_expr(self, expr: Expr, env: Optional[dict], memo: dict) -> int:
        if expr.kind == CONST:
            return self.const1() if expr.value else self.const0()
        if expr.kind == VAR:
            if env is not None and expr.name in env:
                return env[expr.name]
            node = self.pi_index.get(expr.name)
            if node is None:
                node = self.add_pi(expr.name)
            return node
        # Keyed by identity: Expr hashes structurally, which re-walks the
        # very sharing the memo is for.  The caller holds ``expr``, so no
        # id is reused during the walk.
        node = memo.get(id(expr))
        if node is not None:
            return node
        children = [self._add_expr(c, env, memo) for c in expr.children]
        if expr.kind == NOT:
            node = self.mk_inv(children[0])
        elif expr.kind == AND:
            node = self.mk_tree(self.mk_and, children)
        elif expr.kind == OR:
            node = self.mk_tree(self.mk_or, children)
        elif expr.kind == XOR:
            node = self.mk_tree(self.mk_xor, children)
        else:
            raise NetlistError(f"unknown expression kind {expr.kind!r}")
        memo[id(expr)] = node
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kind)

    def num_ands(self) -> int:
        return sum(1 for k in self.kind if k == AND2)

    def reachable_from_outputs(self) -> list[int]:
        """Nodes in some output cone, ascending (= topological) order."""
        seen: set[int] = set()
        stack = list(self.outputs.values())
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.fanin[node])
        return sorted(seen)

    def depth(self) -> int:
        levels: dict[int, int] = {}
        for node in range(len(self.kind)):
            fanins = self.fanin[node]
            levels[node] = (
                0 if not fanins else 1 + max(levels[f] for f in fanins)
            )
        if not self.outputs:
            return 0
        return max(levels[n] for n in self.outputs.values())

    # ------------------------------------------------------------------
    # Simulation (power-aware mapping costs)
    # ------------------------------------------------------------------
    def simulate(
        self, patterns: Mapping[str, np.ndarray]
    ) -> list[np.ndarray]:
        """Bit-parallel values per node (node ids index the result)."""
        nwords = None
        for name in self.pi_names:
            nwords = len(patterns[name])
            break
        if nwords is None:
            nwords = 1
        ones = np.full(nwords, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        values: list[np.ndarray] = [None] * len(self.kind)  # type: ignore
        for node in range(len(self.kind)):
            kind = self.kind[node]
            if kind == PI:
                name = self._pi_name_of[node]
                values[node] = np.asarray(patterns[name], dtype=np.uint64)
            elif kind == CONST0:
                values[node] = np.zeros(nwords, dtype=np.uint64)
            elif kind == INV:
                values[node] = values[self.fanin[node][0]] ^ ones
            else:
                a, b = self.fanin[node]
                values[node] = values[a] & values[b]
        return values
