"""OVERLAP-PARTITION (Algorithm 1, lines 13-18).

Given a vertex cut ``S`` of a connected graph ``G'``, remove ``S``, take
the connected components ``G'_1 .. G'_t`` of what remains, and return the
induced subgraphs ``G'[V(G'_i) ∪ S]``.  The cut vertices (and the edges
among them) are duplicated into every part - that duplication is what
lets k-VCCs overlap (Figure 2), and Lemma 8 bounds it: each part gains at
most ``k - 1`` vertices and ``(k-1)(k-2)/2`` edges.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.graph.connectivity import components_after_removal
from repro.graph.csr import SubgraphView
from repro.graph.graph import Graph, Vertex


def overlap_partition(
    graph: Graph, cut: Iterable[Vertex]
) -> List[Graph]:
    """Partition ``graph`` into overlapped subgraphs along ``cut``.

    Parameters
    ----------
    graph:
        A connected graph.
    cut:
        A vertex cut of ``graph`` (removal disconnects it).  An empty
        ``cut`` is accepted for an already-disconnected graph, in which
        case the plain connected components come back.

    Returns
    -------
    list of Graph or SubgraphView
        One part per connected component of ``G - cut``, each including
        all of ``cut``.  A dict :class:`Graph` input yields independent
        induced subgraphs; a CSR :class:`SubgraphView` input yields new
        views sharing the same base (mask restriction, no adjacency
        copy) - the zero-copy path KVCC-ENUM recurses on.

    Raises
    ------
    ValueError
        If removing ``cut`` leaves the graph connected (i.e. ``cut`` is
        not actually a vertex cut) - a loud failure here protects
        ``KVCC-ENUM`` from infinite recursion on a bad cut.
    """
    cut_set: Set[Vertex] = {v for v in cut if v in graph}
    components = components_after_removal(graph, cut_set)
    if len(components) < 2:
        raise ValueError(
            f"not a vertex cut: removing {len(cut_set)} vertices left "
            f"{len(components)} component(s)"
        )
    if isinstance(graph, SubgraphView):
        return [graph.restrict(comp | cut_set) for comp in components]
    return [graph.induced_subgraph(comp | cut_set) for comp in components]
