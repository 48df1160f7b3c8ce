"""The SWEEP procedure (Algorithm 4) and its bookkeeping state.

Given a source vertex ``u``, *sweeping* a vertex ``v`` records the proven
fact ``u ≡k v`` (k-local connectivity) so that phase 1 of GLOBAL-CUT*
never runs a max-flow test for ``(u, v)``.  Sweeping cascades:

* **neighbor sweep** - each swept vertex deposits one unit on every
  unswept neighbor (Definition 11); a neighbor reaching k deposits is
  swept by NS rule 2 (Theorem 9), and *all* neighbors of a swept strong
  side-vertex are swept by NS rule 1 (Lemma 11);
* **group sweep** - each swept vertex deposits one unit on its side-group
  (Definition 13); a group reaching k deposits is wholly swept by GS
  rule 2 (Theorem 11), and a swept strong side-vertex sweeps its whole
  group by GS rule 1.

The cascades trigger each other, exactly as the paper notes ("a group
sweep operation can further trigger a neighbor sweep operation and vice
versa"); the explicit stack here makes the mutual recursion of
Algorithm 4 iteration-safe for large graphs.

Each swept vertex remembers *which rule claimed it* so Table 2's
per-rule pruning proportions can be tallied when phase 1 later skips it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.stats import PRUNE_GS, PRUNE_NS1, PRUNE_NS2, PRUNE_SOURCE
from repro.graph.graph import Graph, Vertex


class SweepState:
    """Per-GLOBAL-CUT* sweep bookkeeping (Algorithm 3, lines 8-9).

    Parameters
    ----------
    adjacency:
        The graph whose neighborhoods drive deposits - the sparse
        certificate in the optimized algorithm.  Anything with a
        ``neighbors(v)`` iterable works: GLOBAL-CUT passes a CSR
        :class:`~repro.graph.csr.SubgraphView` or the
        :class:`~repro.graph.csr.IntAdjacency` certificate.  Certificate
        edges are a subset of the graph's, so every deposit is still
        sound (Lemma 17 only needs *some* k swept neighbors).
    k:
        Connectivity threshold.
    strong:
        The strong side-vertices (Theorem 8) of the working graph.
    groups:
        Side-groups (components of ``F_k`` larger than k); disjoint.
    neighbor_sweep / group_sweep:
        Strategy switches; with both off the state degenerates to a plain
        "already processed" set and SWEEP only marks the vertex itself.
    """

    __slots__ = (
        "adjacency",
        "k",
        "strong",
        "neighbor_sweep",
        "group_sweep",
        "swept",
        "reason",
        "deposit",
        "groups",
        "group_of",
        "g_deposit",
        "group_done",
    )

    def __init__(
        self,
        adjacency: Graph,
        k: int,
        strong: Set[Vertex],
        groups: Optional[List[Set[Vertex]]] = None,
        neighbor_sweep: bool = True,
        group_sweep: bool = True,
    ) -> None:
        self.adjacency = adjacency
        self.k = k
        self.strong = strong
        self.neighbor_sweep = neighbor_sweep
        self.group_sweep = group_sweep
        self.swept: Set[Vertex] = set()
        self.reason: Dict[Vertex, str] = {}
        self.deposit: Dict[Vertex, int] = {}
        self.groups: List[Set[Vertex]] = groups or []
        self.group_of: Dict[Vertex, int] = {}
        if group_sweep:
            for gid, members in enumerate(self.groups):
                for v in members:
                    self.group_of[v] = gid
        self.g_deposit: List[int] = [0] * len(self.groups)
        self.group_done: List[bool] = [False] * len(self.groups)

    # ------------------------------------------------------------------
    def is_swept(self, v: Vertex) -> bool:
        """True if ``u ≡k v`` has already been established (``pru`` flag)."""
        return v in self.swept

    def sweep(self, v: Vertex, reason: str = PRUNE_SOURCE) -> None:
        """Algorithm 4, iteratively: sweep ``v`` and run all cascades.

        ``reason`` labels why *this* vertex needed no flow test; vertices
        swept transitively get their own labels (NS1 / NS2 / GS).
        """
        if v in self.swept:
            return
        self.swept.add(v)
        self.reason[v] = reason
        stack: List[Vertex] = [v]
        while stack:
            x = stack.pop()
            x_strong = x in self.strong
            if self.neighbor_sweep:
                self._neighbor_cascade(x, x_strong, stack)
            if self.group_sweep:
                self._group_cascade(x, x_strong, stack)

    # ------------------------------------------------------------------
    def _neighbor_cascade(
        self, x: Vertex, x_strong: bool, stack: List[Vertex]
    ) -> None:
        """Lines 2-5 of Algorithm 4: deposit on neighbors, sweep if due."""
        deposit = self.deposit
        for w in self.adjacency.neighbors(x):
            if w in self.swept:
                continue
            d = deposit.get(w, 0) + 1
            deposit[w] = d
            if x_strong:
                self._mark(w, PRUNE_NS1, stack)
            elif d >= self.k:
                self._mark(w, PRUNE_NS2, stack)

    def _group_cascade(
        self, x: Vertex, x_strong: bool, stack: List[Vertex]
    ) -> None:
        """Lines 6-11 of Algorithm 4: group deposit, sweep group if due."""
        gid = self.group_of.get(x)
        if gid is None or self.group_done[gid]:
            return
        self.g_deposit[gid] += 1
        if x_strong or self.g_deposit[gid] >= self.k:
            self.group_done[gid] = True
            for w in self.groups[gid]:
                if w not in self.swept:
                    self._mark(w, PRUNE_GS, stack)

    def _mark(self, w: Vertex, reason: str, stack: List[Vertex]) -> None:
        """Record ``w`` as swept and queue its own cascade."""
        self.swept.add(w)
        self.reason[w] = reason
        stack.append(w)

    # ------------------------------------------------------------------
    def same_group(self, a: Vertex, b: Vertex) -> bool:
        """GS rule 3: True if ``a`` and ``b`` share a side-group."""
        ga = self.group_of.get(a)
        return ga is not None and ga == self.group_of.get(b)
