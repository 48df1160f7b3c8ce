"""Whole-graph vertex connectivity helpers built on GLOBAL-CUT.

These are not part of the paper's algorithm set but fall out of it for
free, and the tests lean on them heavily:

* :func:`is_k_connected` - Definition 2 (``|V| > k`` and no < k cut);
* :func:`vertex_connectivity` - ``kappa(G)`` (Definition 1) by binary
  search over :func:`is_k_connected`;
* :func:`local_connectivity` - ``kappa(u, v)`` (Definition 6), infinite
  for adjacent vertices.

Each helper takes a labeled :class:`~repro.graph.graph.Graph`, which is
interned to CSR once per call, or an already-built CSR
:class:`~repro.graph.csr.SubgraphView`, which is used as is.  Vertices
in and out speak the input's vocabulary: labels for a ``Graph``, base
ids for a view.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Set, Union

from repro.core.global_cut import global_cut
from repro.core.options import KVCCOptions
from repro.flow.dinic import max_flow_min_k
from repro.flow.flow_network import build_flow_network
from repro.graph.connectivity import is_connected
from repro.graph.csr import SubgraphView
from repro.graph.graph import Graph, Vertex

#: Options tuned for one-shot connectivity queries: sweeps only cost time
#: when the answer is computed once, so keep the machinery minimal.
_QUERY_OPTIONS = KVCCOptions(
    neighbor_sweep=False,
    group_sweep=False,
    farthest_first=False,
    source_strong_side_vertex=False,
    maintain_side_vertices=False,
)

#: A query input: a labeled graph, or a CSR view speaking base ids.
GraphLike = Union[Graph, SubgraphView]


def _query_options(options: Optional[KVCCOptions]) -> KVCCOptions:
    """The tuned single-query preset, adopting only the caller's ``seed``.

    Callers pass options here to standardize on one configured object
    across enumeration and query calls.  A query is a single GLOBAL-CUT
    call that never runs the engine, and silently re-enabling the sweep
    machinery the preset deliberately turns off (it only costs time
    when each answer is computed once) would be an unrequested
    slowdown - only the source tie-break seed is taken over.
    """
    if options is None:
        return _QUERY_OPTIONS
    return dataclasses.replace(_QUERY_OPTIONS, seed=options.seed)


def _as_view(graph: GraphLike) -> SubgraphView:
    """The CSR view a query runs on (a ``Graph`` is interned here)."""
    if isinstance(graph, SubgraphView):
        return graph
    return graph.to_csr().full_view()


def is_k_connected(
    graph: GraphLike, k: int, options: Optional[KVCCOptions] = None
) -> bool:
    """Definition 2: ``|V| > k`` and no removal of ``k - 1`` vertices
    disconnects the graph.

    ``k = 0`` is satisfied by any non-empty graph.  ``options`` lets
    callers standardize on one configured object across enumeration and
    query calls - see :func:`_query_options` for exactly which fields a
    query adopts (only ``seed``); the strategy switches always stay at
    the minimal single-query configuration.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n = graph.num_vertices
    if k == 0:
        return n > 0
    if n <= k:
        return False
    if not is_connected(graph):
        return False
    return global_cut(_as_view(graph), k, _query_options(options)) is None


def vertex_connectivity(
    graph: GraphLike, options: Optional[KVCCOptions] = None
) -> int:
    """``kappa(G)`` (Definition 1): size of a minimum vertex cut.

    A complete graph ``K_n`` has connectivity ``n - 1`` (only a trivial
    graph remains after removals); a disconnected or single-vertex graph
    has connectivity 0.  Runs ``O(log n)`` GLOBAL-CUT probes.
    """
    n = graph.num_vertices
    if n == 0:
        raise ValueError("vertex connectivity of an empty graph is undefined")
    if n == 1 or not is_connected(graph):
        return 0
    view = _as_view(graph)
    # kappa is in [1, n-1]; is_k_connected is monotone decreasing in k.
    lo, hi = 1, n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if is_k_connected(view, mid, options):
            lo = mid
        else:
            hi = mid - 1
    return lo


def minimum_vertex_cut(
    graph: GraphLike, options: Optional[KVCCOptions] = None
) -> Set[Vertex]:
    """A minimum vertex cut of a connected, non-complete graph.

    Computes ``kappa(G)`` by binary search and then extracts a cut of
    exactly that size by running GLOBAL-CUT at ``k = kappa + 1`` (any
    cut it returns has fewer than ``kappa + 1`` vertices, and none can
    have fewer than ``kappa``).

    Raises
    ------
    ValueError
        If the graph has fewer than 2 vertices, is disconnected (every
        vertex set including the empty one "disconnects" it - there is
        no meaningful minimum), or is complete (no cut exists).
    """
    n = graph.num_vertices
    if n < 2:
        raise ValueError("minimum vertex cut needs at least two vertices")
    if not is_connected(graph):
        raise ValueError("minimum vertex cut of a disconnected graph")
    view = _as_view(graph)
    kappa = vertex_connectivity(view, options)
    if kappa >= n - 1:
        raise ValueError("complete graph has no vertex cut")
    cut = global_cut(view, kappa + 1, _query_options(options))
    assert cut is not None and len(cut) == kappa
    if view is graph:
        return cut
    return {view.base.label_of(v) for v in cut}


def local_connectivity(
    graph: GraphLike,
    u: Vertex,
    v: Vertex,
    cap: Optional[int] = None,
) -> Union[int, float]:
    """``kappa(u, v)`` (Definition 6): size of a minimum u-v vertex cut.

    Returns ``math.inf`` for adjacent vertices (no u-v cut exists,
    matching the paper's convention) and for ``cap``-limited queries the
    value is clamped to ``cap``.
    """
    if u == v:
        raise ValueError("local connectivity of a vertex with itself")
    if graph.has_edge(u, v):
        return math.inf
    limit = cap if cap is not None else max(1, graph.num_vertices - 1)
    view = _as_view(graph)
    if view is not graph:
        interner = view.base.interner
        u, v = interner[u], interner[v]
    net = build_flow_network(view, limit)
    return max_flow_min_k(net, net.node_out(u), net.node_in(v), limit)
