"""Traversal utilities: BFS, connected components, distances.

These are the plumbing for almost everything else:

* ``KVCC-ENUM`` identifies connected components after k-core peeling
  (Algorithm 1, line 3) and inside OVERLAP-PARTITION (line 16).
* ``GLOBAL-CUT*`` processes phase-1 vertices in non-ascending BFS distance
  from the source (Algorithm 3, line 11), so it needs single-source
  distances.
* The cut sanity check verifies that a candidate vertex cut really
  disconnects the graph.

All traversals are iterative (no recursion) so graph size is bounded by
memory, not the CPython recursion limit.

Every function accepts either a labeled :class:`Graph` (the brute-force
oracle and the baselines run on those) or a CSR
:class:`~repro.graph.csr.SubgraphView`; the view paths run tight loops
straight over the base's ``indptr`` / ``indices`` arrays and the byte
mask, avoiding per-vertex set allocations entirely.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Set

import repro.kernels as kernels
from repro.graph.csr import SubgraphView
from repro.graph.graph import Graph, Vertex


def bfs_order(graph: Graph, source: Vertex) -> List[Vertex]:
    """Vertices reachable from ``source`` in BFS visiting order."""
    visited: Set[Vertex] = {source}
    order: List[Vertex] = [source]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in visited:
                visited.add(v)
                order.append(v)
                queue.append(v)
    return order


def bfs_distances(graph: Graph, source: Vertex) -> Dict[Vertex, int]:
    """Single-source shortest-path distances (hop counts) from ``source``.

    Only reachable vertices appear in the returned mapping.
    """
    if isinstance(graph, SubgraphView):
        return _bfs_distances_view(graph, source)
    dist: Dict[Vertex, int] = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def connected_components(graph: Graph) -> List[Set[Vertex]]:
    """All connected components as vertex sets.

    Deterministic: components are discovered in the graph's vertex
    iteration order, and BFS explores in adjacency order.  On a CSR view
    this is a kernel call, and each component is a set filled in BFS
    order.
    """
    if isinstance(graph, SubgraphView):
        return kernels.select().components(graph, None)
    components: List[Set[Vertex]] = []
    seen: Set[Vertex] = set()
    for start in graph.vertices():
        if start in seen:
            continue
        comp: Set[Vertex] = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in comp:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        components.append(comp)
    return components


def is_connected(graph: Graph) -> bool:
    """True if the graph is connected (the empty graph counts as connected)."""
    n = graph.num_vertices
    if n <= 1:
        return True
    start = next(iter(graph.vertices()))
    return len(bfs_order(graph, start)) == n


def components_after_removal(
    graph: Graph, removed: Iterable[Vertex]
) -> List[Set[Vertex]]:
    """Connected components of ``G - removed`` without materializing a copy.

    This is the hot path of OVERLAP-PARTITION and of the cut sanity check:
    it runs BFS over the original adjacency while treating ``removed`` as
    absent, avoiding an induced-subgraph copy of what may be almost the
    whole graph.
    """
    if isinstance(graph, SubgraphView):
        return kernels.select().components(graph, set(removed))
    removed_set: Set[Vertex] = set(removed)
    components: List[Set[Vertex]] = []
    seen: Set[Vertex] = set()
    for start in graph.vertices():
        if start in seen or start in removed_set:
            continue
        comp: Set[Vertex] = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in comp and v not in removed_set:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        components.append(comp)
    return components


def is_vertex_cut(graph: Graph, cut: Iterable[Vertex]) -> bool:
    """True iff removing ``cut`` disconnects the graph (Definition 4).

    A set that removes *all* vertices, or leaves fewer than two vertices,
    is not a cut in the paper's sense (the remainder must be disconnected,
    which requires at least two components).
    """
    cut_set = set(cut)
    remaining = graph.num_vertices - len(cut_set & graph.vertex_set())
    if remaining < 2:
        return False
    return len(components_after_removal(graph, cut_set)) >= 2


# ----------------------------------------------------------------------
# CSR view fast paths: flat loops over indptr/indices with a byte mask.
# ----------------------------------------------------------------------
def _bfs_distances_view(view: SubgraphView, source: int) -> Dict[int, int]:
    """Hop distances over a view; returns the same dict shape as the
    generic path, which farthest-first ordering consumes."""
    rows, mask = view.base.rows, view.mask
    dist: Dict[int, int] = {source: 0}
    queue = [source]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        du = dist[u]
        for w in rows[u]:
            if mask[w] and w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist
