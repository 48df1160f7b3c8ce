"""The k-VCC overlap structure (meta-graph over components).

k-VCCs overlap in up to ``k - 1`` vertices (Property 1) - the paper's
case study visualizes exactly this: research groups as blobs, shared
authors as the glue.  This module materializes that structure:

* nodes: the k-VCCs (by index);
* edges: pairs of k-VCCs sharing at least one vertex, weighted by the
  shared vertex set;
* per-vertex membership lists (community-overlap queries).

Downstream uses: overlapping-community output formats, hub detection
("which authors bridge the most groups"), and the case-study rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.graph.graph import Graph, Vertex


@dataclass
class OverlapGraph:
    """Meta-graph of component overlaps.

    Attributes
    ----------
    components:
        The k-VCC vertex sets, in input order.
    edges:
        ``(i, j) -> shared vertex set`` for every overlapping pair
        (``i < j``).
    membership:
        ``vertex -> sorted list of component indices``.
    """

    k: int
    components: List[Set[Vertex]] = field(default_factory=list)
    edges: Dict[Tuple[int, int], Set[Vertex]] = field(default_factory=dict)
    membership: Dict[Vertex, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def hub_vertices(self, min_components: int = 2) -> List[Vertex]:
        """Vertices in at least ``min_components`` components, most first."""
        hubs = [
            (len(comps), v)
            for v, comps in self.membership.items()
            if len(comps) >= min_components
        ]
        return [v for _, v in sorted(hubs, key=lambda t: (-t[0], str(t[1])))]


def build_overlap_graph(
    components: Iterable[Iterable[Vertex]], k: int
) -> OverlapGraph:
    """Construct the overlap structure of a k-VCC family.

    Accepts Graphs or vertex collections.  Raises ``ValueError`` if two
    components overlap in ``k`` or more vertices - that would mean the
    input is not a valid k-VCC family (Property 1).
    """
    sets: List[Set[Vertex]] = []
    for comp in components:
        if isinstance(comp, Graph):
            sets.append(comp.vertex_set())
        else:
            sets.append(set(comp))

    out = OverlapGraph(k=k, components=sets)
    for idx, comp in enumerate(sets):
        for v in comp:
            out.membership.setdefault(v, []).append(idx)
    for v, owners in out.membership.items():
        owners.sort()

    # Pairwise overlaps via the membership index: only vertices in 2+
    # components generate candidate pairs, so this is near-linear for
    # decompositions with bounded overlap.
    for v, owners in out.membership.items():
        for a_pos, i in enumerate(owners):
            for j in owners[a_pos + 1 :]:
                out.edges.setdefault((i, j), set()).add(v)
    for (i, j), shared in out.edges.items():
        if len(shared) >= k:
            raise ValueError(
                f"components {i} and {j} share {len(shared)} >= k vertices; "
                "not a valid k-VCC family (Property 1)"
            )
    return out
