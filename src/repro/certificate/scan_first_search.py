"""Scan-first search (Section 4.2).

A scan-first search of a graph starts from a root, marks all its
neighbors, and then repeatedly *scans* an arbitrary marked-but-unscanned
vertex, marking all of that vertex's unvisited neighbors.  The edges
through which vertices get marked form the *scan-first forest*.  Breadth
first search is the special case where the marked-but-unscanned vertex is
chosen FIFO - which is exactly what this implementation does, keeping the
traversal deterministic.

The forest edges matter (not just the tree structure): the sparse
certificate is the union of the edge sets of k successive forests, each
computed on the graph minus the previous forests' edges.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Set, Tuple

from repro.graph.csr import SubgraphView
from repro.graph.graph import Vertex

ForestEdge = Tuple[Vertex, Vertex]


def compact_view_adjacency(view: SubgraphView):
    """Mask-filtered adjacency of a view, laid out for forest extraction.

    Returns ``(verts, arows, aptr, total)``: the active vertex ids, a
    per-base-id list of *active-only* sorted neighbor rows, each row's
    offset into a contiguous slot space, and the total slot count.  The
    k successive scan-first searches of the certificate construction
    each touch every remaining edge; filtering the mask once here means
    the passes themselves do no mask checks and skip inactive neighbors
    entirely.
    """
    rows, mask = view.base.rows, view.mask
    active = mask.__getitem__
    verts: List[int] = view.active_list()
    arows: List[List[int]] = [()] * len(mask)  # type: ignore[list-item]
    aptr: List[int] = [0] * len(mask)
    total = 0
    for v in verts:
        row = list(filter(active, rows[v]))
        arows[v] = row
        aptr[v] = total
        total += len(row)
    return verts, arows, aptr, total


def scan_first_forest_csr(
    verts: List[int],
    arows: List[List[int]],
    aptr: List[int],
    used: bytearray,
    n: int,
) -> List[ForestEdge]:
    """One scan-first forest over a compacted CSR view adjacency.

    Roots follow the view's ascending id order, so the output is
    deterministic.  Theorem 5's "minus previous forests" sequence is a
    byte array, ``used``, over the compacted slot space of
    :func:`compact_view_adjacency` (each undirected edge owns two
    slots, one per endpoint row), so no graph is ever copied.  Newly
    extracted forest edges are marked into ``used`` in place - both
    directions, the reverse slot found by binary search in the sorted
    neighbor row - so the caller can run the next extraction directly.
    """
    forest: List[ForestEdge] = []
    marked = bytearray(n)
    for root in verts:
        if marked[root]:
            continue
        marked[root] = 1
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]  # scan u: mark all unvisited neighbors
            head += 1
            start = aptr[u]
            # Cheapest rejection first: most neighbors are already
            # marked, so their slot lookups never happen.
            for j, w in enumerate(arows[u]):
                if marked[w] or used[start + j]:
                    continue
                marked[w] = 1
                forest.append((u, w))
                used[start + j] = 1
                # Reverse slot: u's position in w's sorted row.
                used[aptr[w] + bisect_left(arows[w], u)] = 1
                queue.append(w)
    return forest


def forest_components(
    vertices: Iterable[Vertex], forest: List[ForestEdge]
) -> List[Set[Vertex]]:
    """Connected components of a forest given as an edge list.

    Union-find over the forest edges; isolated vertices become singleton
    components.  Used to derive side-groups from ``F_k`` (Theorem 10).
    """
    parent: Dict[Vertex, Vertex] = {v: v for v in vertices}

    def find(x: Vertex) -> Vertex:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for u, v in forest:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    groups: Dict[Vertex, Set[Vertex]] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())
