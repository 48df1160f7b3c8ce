"""Exact global minimum edge cut on a CSR base (Nagamochi-Ibaraki).

The k-ECC forest of :mod:`repro.index.cohesion` needs, for each
component it finds, the component's exact edge connectivity: the
component is its own k-ECC at every level up to that value, and one
level above it the component splits along the cut that realizes it.

:func:`min_edge_cut` computes that cut with the contraction algorithm
of Nagamochi and Ibaraki.  Each round runs one maximum-adjacency (MA)
ordering over the current contracted multigraph:

* vertices are visited in order of their scan value ``r(v)``, the
  weight of their edges into the visited set;
* every prefix of the ordering is a cut, of weight
  ``alpha = alpha + wdeg(v) - 2 r(v)`` after visiting ``v``, and the
  lightest one seen is the running bound ``best``;
* an edge ``(x, y)`` scanned while ``y`` is unvisited raises ``r(y)``
  to its value ``q``; MA orderings guarantee that ``x`` and ``y`` are
  ``q``-edge-connected, so an edge with ``q >= best`` joins two
  vertices no cut lighter than ``best`` separates, and it is
  contracted.

Why it is exact: while ``best`` exceeds the minimum cut, no contracted
pair lies on opposite sides of a minimum cut, so the minimum survives
every round; the graph cannot shrink to one vertex before ``best``
reaches it, and ``best`` is always the weight of a real cut.  Why it
terminates: ``best`` starts each round at most the minimum weighted
degree, and the last vertex ``t`` of an ordering has ``r(t) =
wdeg(t) >= best``, so the edge that completed ``r(t)`` is contracted
and every round merges at least two vertices.  In practice one round
contracts most of a well-connected component, so a component costs a
few O(m log n) orderings where Stoer-Wagner pays ``n - 1`` of them.

The independent oracle is
:func:`repro.baselines.stoer_wagner.global_min_edge_cut`, which this
module does not import.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Sequence, Tuple


def min_edge_cut(rows, members: Sequence[int]) -> Tuple[int, List[int]]:
    """The global minimum edge cut of the subgraph induced on ``members``.

    ``rows`` are neighbor lists indexed by vertex id (a
    :class:`~repro.graph.csr.CSRGraph`'s ``rows``); ``members`` are
    ascending ids inducing a connected subgraph of at least two
    vertices.  Returns ``(weight, side)``: the cut weight and one side
    of a cut of that weight, as ascending ids (a proper, non-empty
    subset of ``members``).

    Examples
    --------
    Two triangles joined by the edge 2-3:

    >>> rows = [[1, 2], [0, 2], [0, 1, 3], [2, 4, 5], [3, 5], [3, 4]]
    >>> min_edge_cut(rows, range(6))
    (1, [0, 1, 2])
    """
    members = list(members)
    n = len(members)
    if n < 2:
        raise ValueError("edge cut needs at least two vertices")
    local = {v: i for i, v in enumerate(members)}
    nbrs: List[List[int]] = []
    for v in members:
        nbrs.append([local[w] for w in rows[v] if w in local])
    wts: List[List[int]] = [[1] * len(row) for row in nbrs]
    wdeg = [len(row) for row in nbrs]
    # The supernode of every member in the current round's graph.
    owner = list(range(n))
    best = n * n  # heavier than any cut of a simple graph
    while len(nbrs) > 1:
        # Each vertex alone is a cut, and a round contracts an edge
        # only if best does not exceed the lightest one.
        lightest = min(wdeg)
        if lightest < best:
            best = lightest
            best_side = ([wdeg.index(lightest)], owner)
        best, prefix, parent = _ma_round(nbrs, wts, wdeg, best)
        if prefix is not None:
            best_side = (prefix, owner)
        nbrs, wts, wdeg, relabel = _contract(nbrs, wts, parent)
        owner = [relabel[o] for o in owner]
    nodes, owned = best_side
    chosen = bytearray(max(owned) + 1)
    for node in nodes:
        chosen[node] = 1
    side = [v for v, o in zip(members, owned) if chosen[o]]
    return best, side


def _ma_round(nbrs, wts, wdeg, best):
    """One MA ordering; returns ``(best, prefix, parent)``.

    ``prefix`` lists the visited supernodes of the lightest prefix cut
    when it beat the incoming ``best`` (else ``None``), and ``parent``
    is a union-find forest over the supernodes joining every scanned
    edge whose scan value reached ``best`` at the time.
    """
    n = len(nbrs)
    parent = list(range(n))
    r = [0] * n
    visited = bytearray(n)
    order: List[int] = []
    prefix = None
    alpha = 0
    heap = [(0, 0)]
    while heap:
        _, x = heappop(heap)
        if visited[x]:
            # r only grows, so the first entry popped for a vertex
            # carries its current value; later ones are stale.
            continue
        visited[x] = 1
        order.append(x)
        alpha += wdeg[x] - 2 * r[x]
        if alpha < best and len(order) < n:
            best = alpha
            prefix = list(order)
        for y, c in zip(nbrs[x], wts[x]):
            if not visited[y]:
                q = r[y] + c
                r[y] = q
                heappush(heap, (-q, y))
                if q >= best:
                    _union(parent, x, y)
    return best, prefix, parent


def _union(parent: List[int], a: int, b: int) -> None:
    """Join the union-find trees of ``a`` and ``b`` (path halving)."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    while parent[b] != b:
        parent[b] = parent[parent[b]]
        b = parent[b]
    if a != b:
        parent[b] = a


def _contract(nbrs, wts, parent):
    """The multigraph with every union-find tree merged into one vertex.

    Parallel edges merge by summing weights, and edges inside a tree
    vanish.  Returns the new ``(nbrs, wts, wdeg)`` and ``relabel``, the
    new id of every old supernode.
    """
    n = len(nbrs)
    relabel = [0] * n
    count = 0
    for x in range(n):
        if parent[x] == x:
            relabel[x] = count
            count += 1
    for x in range(n):
        root = x
        while parent[root] != root:
            root = parent[root]
        relabel[x] = relabel[root]
    merged = [{} for _ in range(count)]
    for x in range(n):
        lx = relabel[x]
        acc = merged[lx]
        for y, c in zip(nbrs[x], wts[x]):
            ly = relabel[y]
            if ly != lx:
                acc[ly] = acc.get(ly, 0) + c
    new_nbrs = [list(acc) for acc in merged]
    new_wts = [list(acc.values()) for acc in merged]
    return new_nbrs, new_wts, [sum(row) for row in new_wts], relabel
