"""Cohesion metrics used by the effectiveness study (Section 6.1).

The paper compares k-core components, k-ECCs, and k-VCCs on three quality
measures:

* **diameter** (Eq. 1) - the longest shortest path; smaller is better for
  a community (Figure 7);
* **edge density** (Eq. 4) - ``2m / (n (n-1))`` (Figure 8);
* **clustering coefficient** (Eq. 5-6) - the average over vertices of the
  ratio of closed triangles to triples (Figure 9).

Exact diameter needs all-pairs BFS, O(nm).  The subgraphs the study
measures (individual k-VCCs / k-ECCs at large k) are small, so the exact
computation is affordable; :func:`diameter` also accepts a ``sample``
parameter for the rare large component, which computes BFS eccentricities
from a seeded sample of sources and therefore reports a lower bound.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from repro.graph.connectivity import bfs_distances
from repro.graph.graph import Graph, Vertex


def diameter(graph: Graph, sample: Optional[int] = None, seed: int = 0) -> int:
    """Diameter of a connected graph (Eq. 1).

    Parameters
    ----------
    graph:
        Must be connected and non-empty; a single vertex has diameter 0.
    sample:
        If given and smaller than ``n``, run BFS from only this many
        seeded random sources and return the largest eccentricity seen
        (a lower bound on the true diameter).

    Raises
    ------
    ValueError
        If the graph is empty or disconnected.
    """
    n = graph.num_vertices
    if n == 0:
        raise ValueError("diameter of an empty graph is undefined")
    sources: Iterable[Vertex]
    if sample is not None and sample < n:
        rng = random.Random(seed)
        sources = rng.sample(sorted(graph.vertices(), key=repr), sample)
    else:
        sources = graph.vertices()

    best = 0
    for s in sources:
        dist = bfs_distances(graph, s)
        if len(dist) != n:
            raise ValueError("diameter is undefined for a disconnected graph")
        ecc = max(dist.values())
        if ecc > best:
            best = ecc
    return best


def edge_density(graph: Graph) -> float:
    """Edge density ``rho_e`` (Eq. 4): fraction of possible edges present.

    By convention a single-vertex graph has density 1.0 (it is complete).
    """
    n = graph.num_vertices
    if n == 0:
        raise ValueError("edge density of an empty graph is undefined")
    if n == 1:
        return 1.0
    return 2.0 * graph.num_edges / (n * (n - 1))


def clustering_coefficient(graph: Graph, v: Vertex) -> float:
    """Local clustering coefficient ``c(v)`` (Eq. 5).

    The ratio of edges among N(v) to the ``d(v) choose 2`` possible ones.
    Vertices of degree < 2 have coefficient 0 by convention.
    """
    nbrs = graph.neighbors(v)
    d = len(nbrs)
    if d < 2:
        return 0.0
    links = 0
    for u in nbrs:
        # Count each triangle edge once by intersecting with the (smaller)
        # remaining neighborhood.
        links += len(graph.neighbors(u) & nbrs)
    links //= 2
    return links / (d * (d - 1) / 2)


def average_clustering_coefficient(graph: Graph) -> float:
    """Graph clustering coefficient ``C(G)`` (Eq. 6): mean of ``c(v)``."""
    n = graph.num_vertices
    if n == 0:
        raise ValueError("clustering coefficient of an empty graph is undefined")
    return sum(clustering_coefficient(graph, v) for v in graph.vertices()) / n


def graph_summary(graph: Graph) -> Dict[str, float]:
    """The Table 1 statistics row: n, m, density (m/n), max degree."""
    n = graph.num_vertices
    m = graph.num_edges
    return {
        "num_vertices": n,
        "num_edges": m,
        # Table 1's "Density" column is the average degree ratio m/n.
        "density": (m / n) if n else 0.0,
        "max_degree": graph.max_degree() if n else 0,
    }


def average_metric_over_subgraphs(
    graph: Graph,
    vertex_sets: List[Iterable[Vertex]],
    metric: str,
    diameter_sample: Optional[int] = None,
) -> float:
    """Average a quality metric over a family of induced subgraphs.

    This is the exact aggregation Figures 7-9 plot: for each k, the mean
    ``metric`` over all k-VCCs (or k-ECCs, or k-core components).

    Parameters
    ----------
    metric:
        One of ``"diameter"``, ``"edge_density"``,
        ``"clustering_coefficient"``.

    Returns
    -------
    float
        The mean value; ``float("nan")`` if ``vertex_sets`` is empty,
        mirroring an empty data point in the paper's plots.
    """
    if not vertex_sets:
        return float("nan")
    total = 0.0
    for vs in vertex_sets:
        sub = graph.induced_subgraph(vs)
        if metric == "diameter":
            total += diameter(sub, sample=diameter_sample)
        elif metric == "edge_density":
            total += edge_density(sub)
        elif metric == "clustering_coefficient":
            total += average_clustering_coefficient(sub)
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return total / len(vertex_sets)
