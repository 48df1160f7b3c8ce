"""k-core computation (Batagelj-Zaversnik peeling).

``KVCC-ENUM`` (Algorithm 1, line 2) begins by deleting every vertex of
degree < k, because Whitney's theorem (Theorem 3) guarantees that each
k-VCC is contained in a k-core.  This module provides:

* :func:`k_core` - the subgraph remaining after iterative peeling, which
  is exactly what Algorithm 1 needs;
* :func:`core_number` - the full core decomposition (the largest k such
  that the vertex belongs to the k-core), by min-degree peeling with a
  lazy heap in O(m log n), used by the experiment drivers to choose
  sensible k ranges per dataset (the paper sweeps k = 20..40 on graphs
  whose degeneracy supports it; our stand-ins are smaller, so we scale
  k to each stand-in's degeneracy);
* :func:`degeneracy` - ``max(core_number)``, the largest k for which the
  k-core is non-empty.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Set

from repro.graph.graph import Graph, Vertex


def k_core(graph: Graph, k: int) -> Graph:
    """The k-core of ``graph``: iteratively remove vertices of degree < k.

    Returns a new graph; the input is not modified.  The result may be
    empty and may be disconnected (Algorithm 1 splits it into connected
    components afterwards).

    The peeling runs in O(n + m): each vertex enters the deletion queue at
    most once, and each edge is touched at most twice.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return graph.copy()

    degrees: Dict[Vertex, int] = {v: graph.degree(v) for v in graph.vertices()}
    queue: deque = deque(v for v, d in degrees.items() if d < k)
    removed: Set[Vertex] = set(queue)
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v in removed:
                continue
            degrees[v] -= 1
            if degrees[v] < k:
                removed.add(v)
                queue.append(v)
    if not removed:
        return graph.copy()
    keep = (v for v in graph.vertices() if v not in removed)
    return graph.induced_subgraph(keep)


def core_number(graph: Graph) -> Dict[Vertex, int]:
    """Core number of every vertex (min-degree peeling).

    The core number of ``v`` is the largest ``k`` such that ``v`` belongs
    to the k-core of the graph.  Peeling always removes a vertex of
    minimum *current* degree; the core number is the running maximum of
    the degree at removal time.  A lazy heap keeps the implementation at
    O(m log n), which is indistinguishable from the O(m) bucket variant at
    the scales this library targets and is far harder to get subtly wrong.
    """
    import heapq

    n = graph.num_vertices
    if n == 0:
        return {}

    degrees: Dict[Vertex, int] = {v: graph.degree(v) for v in graph.vertices()}
    # Heap entries are (degree, insertion_id, vertex); the id keeps the
    # comparison away from vertex objects, which may not be orderable.
    counter = 0
    heap = []
    for v, d in degrees.items():
        heap.append((d, counter, v))
        counter += 1
    heapq.heapify(heap)

    core: Dict[Vertex, int] = {}
    processed: Set[Vertex] = set()
    current = 0
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in processed or d != degrees[v]:
            continue  # stale entry superseded by a later, smaller one
        current = max(current, d)
        core[v] = current
        processed.add(v)
        for w in graph.neighbors(v):
            if w not in processed:
                degrees[w] -= 1
                counter += 1
                heapq.heappush(heap, (degrees[w], counter, w))
    return core


def degeneracy(graph: Graph) -> int:
    """The degeneracy of the graph: the largest k with a non-empty k-core."""
    if graph.num_vertices == 0:
        return 0
    return max(core_number(graph).values())


def k_core_vertices(graph: Graph, k: int) -> Set[Vertex]:
    """Vertex set of the k-core without materializing the subgraph."""
    core = core_number(graph)
    return {v for v, c in core.items() if c >= k}


def peel_in_place(graph: Graph, k: int) -> Set[Vertex]:
    """Remove vertices of degree < k *in place*; return the removed set.

    ``KVCC-ENUM`` uses this on the worklist views it owns, and the
    brute-force oracle on its working ``Graph`` copies, avoiding a
    second full-graph allocation per recursion level.  Accepts either a
    :class:`Graph` or a :class:`~repro.graph.csr.SubgraphView`; for
    views the peeling is pure integer/byte-mask arithmetic on the shared
    CSR base.
    """
    from repro.graph.csr import SubgraphView

    if isinstance(graph, SubgraphView):
        return graph.peel(k)
    queue: deque = deque(v for v in graph.vertices() if graph.degree(v) < k)
    removed: Set[Vertex] = set(queue)
    while queue:
        u = queue.popleft()
        neighbors = [v for v in graph.neighbors(u) if v not in removed]
        graph.remove_vertex(u)
        for v in neighbors:
            if graph.degree(v) < k and v not in removed:
                removed.add(v)
                queue.append(v)
    return removed
