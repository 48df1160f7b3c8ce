"""Undirected, unweighted graph stored as adjacency sets.

The paper (Section 2.1) works with a simple undirected, unweighted graph
``G(V, E)``.  :class:`Graph` is the in-memory representation used by every
algorithm in this library.  Design goals, in order:

1. *Correctness*: no silent self-loops or parallel edges; mutation keeps
   the structure consistent in both directions.
2. *Speed of the operations the k-VCC algorithms actually perform*:
   neighbor iteration, degree queries, induced subgraphs, vertex removal
   (k-core peeling and OVERLAP-PARTITION both remove vertices in bulk).
3. *Simplicity*: vertices are arbitrary hashable objects; the adjacency is
   a plain ``dict`` mapping each vertex to a ``set`` of neighbors.

The class deliberately does not try to be a general-purpose graph library
(no attributes, no directed mode); directed graphs appear only inside the
flow package, which uses its own compact array representation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Set, Tuple

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class Graph:
    """A simple undirected graph backed by adjacency sets.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self loops are rejected,
        duplicate edges are merged silently (the graph is simple).
    vertices:
        Optional iterable of vertices to add up front; useful for graphs
        with isolated vertices, which an edge list cannot express.

    Examples
    --------
    >>> g = Graph([(1, 2), (2, 3), (3, 1)])
    >>> g.num_vertices, g.num_edges
    (3, 3)
    >>> sorted(g.neighbors(2))
    [1, 3]
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        vertices: Iterable[Vertex] = (),
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges = 0
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices, ``n = |V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges, ``m = |E|`` (each undirected edge counted once)."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def vertex_set(self) -> Set[Vertex]:
        """A new set containing all vertices."""
        return set(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once."""
        seen: Set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """The neighbor set ``N(v)``.

        The returned set is the live internal set; callers must not mutate
        it.  (Returning the live set avoids copying in the hot loops of
        the sweep machinery; every internal caller treats it as
        read-only.)
        """
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        """Degree ``d(v) = |N(v)|``."""
        return len(self._adj[v])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """True if the undirected edge ``(u, v)`` is present."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def min_degree_vertex(self) -> Vertex:
        """A vertex of minimum degree (GLOBAL-CUT's default source pick).

        Ties are broken deterministically by iteration order, which for a
        freshly built graph follows insertion order.
        """
        if not self._adj:
            raise ValueError("graph has no vertices")
        return min(self._adj, key=lambda v: len(self._adj[v]))

    def min_degree(self) -> int:
        """The minimum degree ``delta(G)``; 0 for an empty neighborhood."""
        if not self._adj:
            raise ValueError("graph has no vertices")
        return min(len(nbrs) for nbrs in self._adj.values())

    def max_degree(self) -> int:
        """The maximum degree ``Delta(G)``."""
        if not self._adj:
            raise ValueError("graph has no vertices")
        return max(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = set()

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``, creating endpoints as needed.

        Raises
        ------
        ValueError
            If ``u == v`` (the paper's graphs are simple; self loops would
            corrupt degree-based reasoning such as k-core peeling).
        """
        if u == v:
            raise ValueError(f"self loop rejected: {u!r}")
        adj = self._adj
        if u not in adj:
            adj[u] = set()
        if v not in adj:
            adj[v] = set()
        if v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            self._num_edges += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``.

        Raises ``KeyError`` if the edge is absent, mirroring ``set.remove``.
        """
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._num_edges -= 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges."""
        nbrs = self._adj.pop(v)
        for u in nbrs:
            self._adj[u].remove(v)
        self._num_edges -= len(nbrs)

    def remove_vertices(self, vs: Iterable[Vertex]) -> None:
        """Remove a batch of vertices (skipping ones already absent)."""
        for v in vs:
            if v in self._adj:
                self.remove_vertex(v)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """A deep copy (independent adjacency sets)."""
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def induced_subgraph(self, vs: Iterable[Vertex]) -> "Graph":
        """The induced subgraph ``G[vs]`` (Section 2.1 of the paper).

        Vertices in ``vs`` that are not in the graph are ignored, so the
        call is safe on over-approximated vertex sets.
        """
        keep = {v for v in vs if v in self._adj}
        g = Graph()
        adj = self._adj
        new_adj = {v: adj[v] & keep for v in keep}
        g._adj = new_adj
        g._num_edges = sum(len(nbrs) for nbrs in new_adj.values()) // 2
        return g

    def union(self, other: "Graph") -> "Graph":
        """Graph union ``g ∪ g'`` (vertex union, edge union)."""
        g = self.copy()
        for v in other.vertices():
            g.add_vertex(v)
        for u, v in other.edges():
            g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    # Comparisons / hashing helpers
    # ------------------------------------------------------------------
    def edge_set(self) -> Set[FrozenSet[Vertex]]:
        """All edges as frozensets, for order-insensitive comparison."""
        return {frozenset((u, v)) for u, v in self.edges()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]  # mutable container

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(cls, pairs: Iterable[Edge]) -> "Graph":
        """Build a graph from an iterable of vertex pairs."""
        return cls(edges=pairs)

    def to_csr(self):
        """Convert to the immutable CSR backend (interning vertex labels).

        Returns a :class:`~repro.graph.csr.CSRGraph` whose dense ids
        follow this graph's vertex iteration order; the attached
        interner maps ids back to the original labels.
        """
        from repro.graph.csr import CSRGraph

        return CSRGraph.from_graph(self)

    @classmethod
    def from_csr(cls, csr) -> "Graph":
        """Rebuild a mutable labeled graph from a CSR graph or view."""
        from repro.graph.csr import CSRGraph, SubgraphView

        if isinstance(csr, SubgraphView):
            return csr.materialize()
        if isinstance(csr, CSRGraph):
            return csr.to_graph()
        raise TypeError(f"expected CSRGraph or SubgraphView, got {type(csr)!r}")

    def to_edge_list(self) -> List[Edge]:
        """All edges as a list (arbitrary but deterministic order)."""
        return list(self.edges())

    def to_networkx(self):  # pragma: no cover - convenience for notebooks
        """Convert to a ``networkx.Graph`` (requires networkx)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices())
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Build from a ``networkx.Graph`` (self loops dropped)."""
        g = cls()
        for v in nxg.nodes():
            g.add_vertex(v)
        for u, v in nxg.edges():
            if u != v:
                g.add_edge(u, v)
        return g
