"""The k-VCC hierarchy: decomposition across all k at once.

The paper enumerates k-VCCs for one k; a natural extension (its "future
work" flavor, analogous to core decomposition vs a single k-core) is the
*hierarchy*: since every (k+1)-VCC is k-vertex-connected, every
(k+1)-VCC is contained in exactly one k-VCC (containment in two would
violate Property 1's < k overlap bound, as a (k+1)-VCC has > k+1
vertices... and at least k+1 of them would be shared).  The k-VCCs
across increasing k therefore form a forest.

This module computes that forest bottom-up: level k+1 is obtained by
enumerating (k+1)-VCCs *inside each k-VCC independently*, which is
correct because a (k+1)-VCC, being (k+1)-connected, can never straddle a
< (k+1) cut of a k-VCC, and is much faster than running KVCC-ENUM on the
whole graph per k.

The graph is interned **once** into an immutable
:class:`~repro.graph.csr.CSRGraph`; every level-k component becomes a
zero-copy mask view over that shared base for the level-(k+1) search
(:func:`build_hierarchy_csr`), and all parent components of a level are
drained by **one** engine invocation
(:meth:`~repro.core.engine.SerialEngine.run_many`).  A component whose
proven connectivity floor (:func:`~repro.core.engine.connectivity_floor`)
reaches a level is its own child there and skips the engine.

Derived queries:

* :func:`vcc_number` - for every vertex, the largest k such that the
  vertex belongs to some k-VCC (the vertex-connectivity analog of the
  core number);
* :meth:`KVCCHierarchy.components_at` - all k-VCCs at a level;
* :meth:`KVCCHierarchy.levels_of` - the levels a vertex survives to.

For repeated queries, persist the forest with :mod:`repro.index` and
answer from the loaded index in O(1) instead of recomputing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.engine import SerialEngine
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph, Vertex


@dataclass
class HierarchyNode:
    """One k-VCC in the hierarchy forest."""

    k: int
    vertices: Set[Vertex]
    parent: Optional[int] = None  # index into KVCCHierarchy.nodes
    children: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of vertices in this component."""
        return len(self.vertices)


@dataclass
class KVCCHierarchy:
    """The forest of k-VCCs for k = 1 .. max_k.

    ``nodes[i]`` is a :class:`HierarchyNode`; roots are the 1-VCCs (the
    non-trivial connected components).  ``max_k`` is the largest level
    with at least one component.  Nodes are stored level by level, so
    every parent index is smaller than all of its children's indices.
    """

    nodes: List[HierarchyNode] = field(default_factory=list)
    max_k: int = 0

    def components_at(self, k: int) -> List[Set[Vertex]]:
        """All k-VCC vertex sets at level ``k``."""
        return [n.vertices for n in self.nodes if n.k == k]

    def roots(self) -> List[int]:
        """Indices of the level-1 components."""
        return [i for i, n in enumerate(self.nodes) if n.parent is None]

    def levels_of(self, v: Vertex) -> List[int]:
        """Sorted levels k at which ``v`` belongs to some k-VCC."""
        return sorted({n.k for n in self.nodes if v in n.vertices})

    def vcc_number_map(self) -> Dict[Vertex, int]:
        """For each vertex, the largest k with the vertex in a k-VCC."""
        out: Dict[Vertex, int] = {}
        for node in self.nodes:
            for v in node.vertices:
                if out.get(v, 0) < node.k:
                    out[v] = node.k
        return out

    def __len__(self) -> int:
        return len(self.nodes)


def _label_set(base: CSRGraph, members: Iterable[int]) -> Set[Vertex]:
    """Translate base ids back to the caller's vertex labels."""
    interner = base.interner
    if interner is None:
        return set(members)
    labels = interner.labels
    return {labels[i] for i in members}


def build_hierarchy_csr(
    base: CSRGraph,
    max_k: Optional[int] = None,
    options: Optional[KVCCOptions] = None,
    stats: Optional[RunStats] = None,
) -> KVCCHierarchy:
    """Compute the k-VCC forest directly on a shared CSR base.

    This is the engine-backed construction path behind
    :func:`build_hierarchy`: each level-k component is kept as a sorted
    member-id list, and each level goes through one
    :meth:`~repro.core.engine.SerialEngine.run_level` call.  A
    component whose proven connectivity floor reaches the next level is
    its own child there with no engine call; the others re-enter the
    enumeration through zero-copy mask views
    (:meth:`~repro.graph.csr.CSRGraph.view_from_members`), all drained
    by one :meth:`~repro.core.engine.SerialEngine.run_many` call.

    Parameters
    ----------
    base:
        The immutable CSR adjacency (typically ``graph.to_csr()``).
        Node vertex sets are reported in the base's original labels.
    max_k:
        Stop after this level (at least 1); ``None`` keeps going until
        a level has no components.
    options:
        Strategy switches.
    stats:
        Optional counter sink accumulated across every level.

    Returns
    -------
    KVCCHierarchy
        The nesting forest, levels stored in ascending order.
    """
    if max_k is not None and max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    options = options or KVCCOptions()
    engine = SerialEngine()
    stats = stats if stats is not None else RunStats(k=1)
    hierarchy = KVCCHierarchy()

    #: (parent node index, member ids, proven floor) per component the
    #: level descends into; level 1 descends into the whole base.
    parents: List[Tuple[Optional[int], Sequence[int], int]] = [
        (None, range(base.n), 0)
    ]
    k = 1
    while parents:
        next_k = k + 1 if max_k is None or k < max_k else None
        groups = engine.run_level(
            base, [(m, f) for _, m, f in parents], k, options, stats,
            next_k=next_k, max_k=max_k,
        )
        frontier = []
        for (parent_idx, _, _), children in zip(parents, groups):
            for members, floor in children:
                hierarchy.nodes.append(
                    HierarchyNode(
                        k=k,
                        vertices=_label_set(base, members),
                        parent=parent_idx,
                    )
                )
                child_idx = len(hierarchy.nodes) - 1
                if parent_idx is not None:
                    hierarchy.nodes[parent_idx].children.append(child_idx)
                frontier.append((child_idx, members, floor))
        if frontier:
            hierarchy.max_k = k
        if next_k is None:
            break
        k = next_k
        # A k-VCC needs more than k vertices (Definition 4), so smaller
        # parents cannot host one and are not worth a view.
        parents = [p for p in frontier if len(p[1]) > k]
    return hierarchy


def build_hierarchy(
    graph: Graph,
    max_k: Optional[int] = None,
    options: Optional[KVCCOptions] = None,
) -> KVCCHierarchy:
    """Compute the k-VCC forest of ``graph`` for k = 1 .. ``max_k``.

    Parameters
    ----------
    graph:
        Any undirected :class:`~repro.graph.graph.Graph`; it is not
        modified.
    max_k:
        Largest level to compute; ``None`` keeps going until a level
        has no components (which happens at the latest just above the
        graph's degeneracy).
    options:
        :class:`~repro.core.options.KVCCOptions`.

    Returns
    -------
    KVCCHierarchy
        The nesting forest, node vertex sets in ``graph``'s labels.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> h = build_hierarchy(complete_graph(4))
    >>> h.max_k
    3
    >>> [sorted(c) for c in h.components_at(3)]
    [[0, 1, 2, 3]]
    """
    return build_hierarchy_csr(graph.to_csr(), max_k, options)


def vcc_number(
    graph: Graph,
    max_k: Optional[int] = None,
    options: Optional[KVCCOptions] = None,
) -> Dict[Vertex, int]:
    """The vertex-connectivity analog of the core number.

    ``vcc_number(G)[v]`` is the largest ``k`` such that ``v`` lies in
    some k-VCC of ``G`` (0 for vertices in none, e.g. isolated ones).
    Always at most the core number of ``v`` (Theorem 3).
    """
    hierarchy = build_hierarchy(graph, max_k=max_k, options=options)
    out = {v: 0 for v in graph.vertices()}
    out.update(hierarchy.vcc_number_map())
    return out
