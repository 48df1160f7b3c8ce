"""Online query layer over a loaded :class:`HierarchyIndex`.

This is the serving half of decomposition-then-serve: all four queries
run against precomputed arrays, never against the graph.

* ``vcc_number(v)`` - one array read, O(1);
* ``components_of(v, k)`` - O(depth) scan of the vertex's (short,
  hierarchy-height-bounded) component list plus output size;
* ``same_kvcc(u, v, k)`` / ``max_shared_level(u, v)`` - set
  intersection of the two component lists, O(depth) - no flow test,
  no BFS, independent of graph size.

The one O(total membership) cost - inverting component membership into
per-vertex component lists - is paid lazily on the first query that
needs it, never at construction: wrapping an mmap-loaded index stays
O(1), so a cold serving process is ready before its first request.

For high-traffic callers the batch entry points (``vcc_numbers``,
``same_kvcc_many``, ``max_shared_levels``) answer many queries per
Python call, hoisting the attribute lookups and method dispatch out of
the loop - the scalar methods spend most of their time on call
overhead, not on the array reads.

Examples
--------
>>> from repro.graph.generators import overlapping_cliques_graph
>>> from repro.index.store import build_index
>>> g = overlapping_cliques_graph(clique_size=5, num_cliques=2, overlap=2)
>>> service = HierarchyQueryService(build_index(g))
>>> service.vcc_number(0)
4
>>> service.max_shared_level(0, 7)  # distinct cliques, shared 3-VCC hull
2
>>> service.same_kvcc(0, 7, 2), service.same_kvcc(0, 7, 4)
(True, False)
>>> service.vcc_numbers([0, 7, "missing"])
[4, 4, 0]
>>> service.same_kvcc_many([(0, 7), (0, 1)], 3)
[False, True]
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.index.store import HierarchyIndex


class HierarchyQueryService:
    """Answer k-VCC membership queries from a persisted index.

    Parameters
    ----------
    index:
        A :class:`~repro.index.store.HierarchyIndex`, typically from
        :func:`~repro.index.store.load_index` (file) or
        :func:`~repro.index.store.build_index` (in-process).
    """

    __slots__ = ("_index", "_vertex_nodes")

    def __init__(self, index: HierarchyIndex) -> None:
        self._index = index
        self._vertex_nodes: Optional[List[List[int]]] = None

    @classmethod
    def from_file(cls, path) -> "HierarchyQueryService":
        """Load a saved index and wrap it in a query service."""
        return cls(HierarchyIndex.load(path))

    @property
    def index(self) -> HierarchyIndex:
        """The wrapped index (for shape introspection)."""
        return self._index

    @property
    def measures(self) -> Tuple[str, ...]:
        """Cohesion measures this service can answer for.

        A plain hierarchy index always answers for exactly one measure,
        ``kvcc``; the multi-measure
        :class:`~repro.index.cohesion.CohesionQueryService` overrides
        this with its persisted measure set.  Handlers route per-measure
        requests through this shared protocol, so the two service types
        are interchangeable behind the registry.
        """
        return ("kvcc",)

    def measure_service(self, measure: str) -> "HierarchyQueryService":
        """The per-measure query service; only ``kvcc`` exists here.

        Raises ``KeyError`` for any other measure - the handler layer
        maps that to a 404 with a stable ``unknown_measure`` code.
        """
        if measure != "kvcc":
            raise KeyError(measure)
        return self

    def _vertex_node_lists(self) -> List[List[int]]:
        """Per vertex id, the indices of every component containing it,
        ascending - and therefore ascending in level k, because nodes
        are stored level by level.  Built once, on first need: only the
        pair/level queries require it, so a service that just answers
        ``vcc_number`` never pays the O(total membership) inversion.
        """
        vertex_nodes = self._vertex_nodes
        if vertex_nodes is None:
            index = self._index
            vertex_nodes = [[] for _ in range(index.num_vertices)]
            for node in range(index.num_nodes):
                for vid in index.members(node):
                    vertex_nodes[vid].append(node)
            self._vertex_nodes = vertex_nodes
        return vertex_nodes

    # ------------------------------------------------------------------
    # Scalar queries
    # ------------------------------------------------------------------
    def vcc_number(self, v: Hashable) -> int:
        """Largest k with ``v`` in some k-VCC; 0 if in none or unknown.

        O(1): one interner lookup plus one array read.
        """
        return self._index.vcc_number_of(v)

    def components_of(self, v: Hashable, k: int) -> List[Set[Hashable]]:
        """All level-``k`` components containing ``v``, as label sets.

        A vertex can lie in several k-VCCs of the same level (they may
        overlap in up to k-1 vertices), hence a list.  Empty when ``v``
        is unknown or reaches no level-``k`` component; ``k < 1`` is an
        error (as in :meth:`same_kvcc`), not an empty answer.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        vid = self._index.id_of(v)
        if vid is None:
            return []
        index = self._index
        node_k = index.node_k
        return [
            set(index.member_labels(node))
            for node in self._vertex_node_lists()[vid]
            if node_k[node] == k
        ]

    def max_shared_level(self, u: Hashable, v: Hashable) -> int:
        """Largest k such that ``u`` and ``v`` lie in the *same* k-VCC.

        0 when either vertex is unknown or they never share a
        component; ``vcc_number(u)`` when ``u == v``.  Because every
        component's members also share all of its ancestors, this is
        exactly the deepest common component of the two vertices.
        """
        iu = self._index.id_of(u)
        iv = self._index.id_of(v)
        if iu is None or iv is None:
            return 0
        if iu == iv:
            return self._index.vcc_numbers[iu]
        vertex_nodes = self._vertex_node_lists()
        shared: Set[int] = set(vertex_nodes[iu])
        node_k = self._index.node_k
        # Lists ascend in k; the first common node from the back is the
        # deepest shared component.
        for node in reversed(vertex_nodes[iv]):
            if node in shared:
                return node_k[node]
        return 0

    def same_kvcc(self, u: Hashable, v: Hashable, k: int) -> bool:
        """True iff ``u`` and ``v`` lie in one common k-VCC at level ``k``.

        Equivalent to ``max_shared_level(u, v) >= k``: sharing a deeper
        component implies sharing its level-``k`` ancestor, and sharing
        nothing at level ``k`` rules out every deeper level too.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        return self.max_shared_level(u, v) >= k

    # ------------------------------------------------------------------
    # Derived queries (the v2 cohesion products)
    # ------------------------------------------------------------------
    def top_communities(
        self, v: Hashable, r: int
    ) -> List[Tuple[int, List[Hashable]]]:
        """The ``r`` strongest communities containing ``v``.

        Every component containing ``v``, ranked strongest (deepest
        level) first, truncated to ``r`` entries; each entry is
        ``(k, sorted member labels)``.  Ties at one level order by the
        member list so the answer is a pure function of the component
        *set* (an incrementally-maintained index and a fresh rebuild
        agree byte for byte).  Empty when ``v`` is unknown; ``r < 1``
        is an error.
        """
        if r < 1:
            raise ValueError(f"r must be at least 1, got {r}")
        vid = self._index.id_of(v)
        if vid is None:
            return []
        index = self._index
        node_k = index.node_k
        ranked = sorted(
            (
                (
                    node_k[node],
                    sorted(index.member_labels(node), key=str),
                )
                for node in self._vertex_node_lists()[vid]
            ),
            key=lambda entry: (-entry[0], [str(x) for x in entry[1]]),
        )
        return ranked[:r]

    def critical_vertices(self, v: Hashable, k: int) -> List[Hashable]:
        """Vertices of ``v``'s level-``k`` component(s) whose level-(k+1)
        assignment is not unique.

        For each level-``k`` component containing ``v``, a member is
        *critical* when it lies in zero of that component's level-(k+1)
        children (it is peeled away when the cohesion threshold rises -
        the boundary between the two levels) or in two or more of them
        (an overlap/cut vertex gluing the stronger sub-communities
        together; only the k-VCC measure can produce these, since k-ECC
        and k-core components are disjoint).  Answers are sorted labels,
        deduplicated across components; empty when ``v`` is unknown or
        reaches no level-``k`` component.  ``k < 1`` is an error.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        vid = self._index.id_of(v)
        if vid is None:
            return []
        index = self._index
        node_k = index.node_k
        parents = index.node_parent
        nodes = [
            node
            for node in self._vertex_node_lists()[vid]
            if node_k[node] == k
        ]
        critical: Set[Hashable] = set()
        for node in nodes:
            counts = {member: 0 for member in index.members(node)}
            for child in index.nodes_at(k + 1):
                if parents[child] == node:
                    for member in index.members(child):
                        counts[member] += 1
            labels = index.labels
            critical.update(
                labels[member]
                for member, children in counts.items()
                if children != 1
            )
        return sorted(critical, key=str)

    # ------------------------------------------------------------------
    # Batch queries
    # ------------------------------------------------------------------
    def vcc_numbers(self, vertices: Iterable[Hashable]) -> List[int]:
        """Batch :meth:`vcc_number`: one answer per input vertex.

        Answers are identical to the scalar loop, but the interner dict
        and the number array are bound once for the whole batch; the
        all-known fast path is a single list comprehension per call.
        Unknown vertices answer 0, exactly as the scalar method does.
        """
        if not isinstance(vertices, (list, tuple)):
            # The fast path may abort partway and restart; materialize
            # one-shot iterators so the retry sees the full input.
            vertices = list(vertices)
        get = self._index._id_map().get
        numbers = self._index.vcc_numbers
        try:
            return [numbers[i] for i in map(get, vertices)]
        except TypeError:
            # Some vertex missed the exact-label map (``get`` returned
            # None); redo the batch on the guarded path, which also
            # applies ``id_of``'s int/str spelling fallback.  Reads are
            # side-effect free, so restarting is safe.
            resolve = self._index.id_of
            return [
                0 if (i := resolve(v)) is None else numbers[i]
                for v in vertices
            ]

    def max_shared_levels(
        self, pairs: Sequence[Tuple[Hashable, Hashable]]
    ) -> List[int]:
        """Batch :meth:`max_shared_level`: one answer per ``(u, v)``.

        Semantics match the scalar method pair for pair; the interner
        dict, level array and inverted membership are bound once for
        the whole batch, and each intersection probes the shorter of
        the two component lists.
        """
        get = self._index._id_map().get
        resolve = self._index.id_of
        numbers = self._index.vcc_numbers
        node_k = self._index.node_k
        vertex_nodes = self._vertex_node_lists()
        out: List[int] = []
        append = out.append
        for u, v in pairs:
            iu = get(u)
            iv = get(v)
            # Exact-label misses retry with the int/str spelling
            # fallback (same rule as the scalar methods via ``id_of``).
            if iu is None:
                iu = resolve(u)
            if iv is None:
                iv = resolve(v)
            if iu is None or iv is None:
                append(0)
                continue
            if iu == iv:
                append(numbers[iu])
                continue
            nodes_u = vertex_nodes[iu]
            nodes_v = vertex_nodes[iv]
            if len(nodes_u) > len(nodes_v):
                nodes_u, nodes_v = nodes_v, nodes_u
            shared = set(nodes_u)
            level = 0
            for node in reversed(nodes_v):
                if node in shared:
                    level = node_k[node]
                    break
            append(level)
        return out

    def same_kvcc_many(
        self, pairs: Sequence[Tuple[Hashable, Hashable]], k: int
    ) -> List[bool]:
        """Batch :meth:`same_kvcc` at one level ``k``: one bool per pair.

        ``k < 1`` raises exactly as the scalar method does.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        return [level >= k for level in self.max_shared_levels(pairs)]
