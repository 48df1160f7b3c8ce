"""KVCC-ENUM (Algorithm 1): enumerate all k-vertex connected components.

The driver is a worklist version of the paper's recursion:

1. peel the k-core (every k-VCC lives inside one, Theorem 3);
2. for each connected component with more than k vertices, ask
   GLOBAL-CUT for a vertex cut smaller than k;
3. no cut -> the component is a k-VCC; otherwise OVERLAP-PARTITION it
   along the cut (duplicating the cut vertices) and recurse on the parts.

Lemma 10 bounds the number of partitions by ``(n - k - 1) / 2`` and
Theorem 6 the number of k-VCCs by ``n / 2``, so the loop terminates after
at most ``n`` GLOBAL-CUT calls (Theorem 7).

Across partitions the driver maintains the strong side-vertex sets
(Lemmas 15-16): a child inherits the parent's verdict for every vertex
whose 1- and 2-hop neighborhoods survived both the partition and the
child's k-core peel intact, and rechecks only the rest.

``Graph`` is the boundary type: the input graph is interned once into
an immutable :class:`~repro.graph.csr.CSRGraph`, and every worklist
item is a zero-copy :class:`~repro.graph.csr.SubgraphView` (byte mask +
degree array over the shared base) speaking base ids.  Partitioning
restricts masks instead of copying adjacency, and only the *final*
k-VCCs are materialized back into labeled :class:`Graph` objects.

The worklist itself is drained by
:class:`~repro.core.engine.SerialEngine`.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core.engine import SerialEngine
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.graph.connectivity import connected_components
from repro.graph.core_decomposition import peel_in_place
from repro.graph.graph import Graph, Vertex


def enumerate_kvccs(
    graph: Graph,
    k: int,
    options: Optional[KVCCOptions] = None,
    stats: Optional[RunStats] = None,
) -> List[Graph]:
    """All k-VCCs of ``graph`` (Algorithm 1).

    Parameters
    ----------
    graph:
        Any undirected graph; it is not modified.  Disconnected input is
        fine - each component is processed independently.
    k:
        Connectivity threshold, ``k >= 1``.  For ``k = 1`` the result is
        the connected components with at least two vertices.
    options:
        Strategy switches; the default is the fully optimized VCCE*.
    stats:
        Optional counter sink (see :class:`~repro.core.stats.RunStats`);
        wall-clock time is accumulated into ``stats.elapsed_seconds``.

    Returns
    -------
    list of Graph
        The k-VCCs as independent induced subgraphs.  Distinct k-VCCs may
        share up to ``k - 1`` vertices (Property 1); the returned graphs
        own their adjacency, so mutating one does not affect another.

    Raises
    ------
    ValueError
        If ``k < 1``.

    Examples
    --------
    >>> from repro import Graph
    >>> g = Graph([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3), (3, 4)])
    >>> [sorted(c.vertices()) for c in enumerate_kvccs(g, 3)]
    [[0, 1, 2, 3]]
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    options = options or KVCCOptions()
    stats = stats if stats is not None else RunStats(k=k)
    work = graph.to_csr().full_view()
    return SerialEngine().run(work, k, options, stats)


def enumerate_kvccs_csr(
    base,
    k: int,
    options: Optional[KVCCOptions] = None,
    stats: Optional[RunStats] = None,
    materialize: bool = True,
) -> list:
    """All k-VCCs of an already-built :class:`~repro.graph.csr.CSRGraph`.

    The entry point for graphs that never passed through a dict
    :class:`Graph` - mmap-loaded ``KVCCG`` files, cached datasets, and
    anything else :mod:`repro.data` hands out.  Runs the same engine as
    :func:`enumerate_kvccs` on ``base.full_view()``.

    ``materialize=False`` returns each k-VCC as its sorted member-id
    list instead of a labeled :class:`Graph`, so the whole call builds
    **no** dict adjacency at all (translate ids with
    ``base.label_of``); this is what the CLI uses for cached datasets.

    Examples
    --------
    >>> from repro.graph.csr import CSRGraph
    >>> base, _ = CSRGraph.from_edges(
    ...     [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3), (3, 4)])
    >>> enumerate_kvccs_csr(base, 3, materialize=False)
    [[0, 1, 2, 3]]
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    options = options or KVCCOptions()
    stats = stats if stats is not None else RunStats(k=k)
    return SerialEngine().run_many(
        [base.full_view()], k, options, stats, materialize=materialize
    )[0]


def kvcc_vertex_sets(
    graph: Graph,
    k: int,
    options: Optional[KVCCOptions] = None,
    stats: Optional[RunStats] = None,
) -> List[Set[Vertex]]:
    """The k-VCCs as vertex sets (cheaper to compare and store)."""
    return [
        set(sub.vertices())
        for sub in enumerate_kvccs(graph, k, options, stats)
    ]


def vccs_containing(
    graph: Graph,
    k: int,
    vertex: Vertex,
    options: Optional[KVCCOptions] = None,
) -> List[Graph]:
    """All k-VCCs that contain ``vertex`` (the Section 6.4 case-study query).

    Restricts work to the connected component of the k-core containing
    the query vertex before enumerating; a vertex outside the k-core is
    in no k-VCC and yields an empty list.
    """
    work = graph.copy()
    peel_in_place(work, k)
    if vertex not in work:
        return []
    for comp in connected_components(work):
        if vertex in comp:
            component = work.induced_subgraph(comp)
            break
    else:  # pragma: no cover - unreachable, vertex is in work
        return []
    return [
        sub
        for sub in enumerate_kvccs(component, k, options)
        if vertex in sub
    ]
