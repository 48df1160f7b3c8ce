"""CSR adjacency backend: dense-integer graphs and zero-copy subgraph views.

The KVCC-ENUM pipeline (k-core peel -> sparse certificate -> flow-based
LOC-CUT -> overlap partition -> recurse) is dominated by neighbor
iteration and subgraph construction.  The dict-of-sets
:class:`~repro.graph.graph.Graph` pays hashing and per-subgraph
allocation costs on every one of those operations; this module provides
the compact alternative every interior layer runs on:

* :class:`VertexInterner` maps arbitrary hashable vertex labels to dense
  integer ids at the system boundary (IO, CLI, datasets), so everything
  inside the enumeration speaks integers;
* :class:`CSRGraph` is an immutable compressed-sparse-row adjacency
  (``indptr`` / ``indices`` over :class:`array.array`), with neighbor
  lists sorted so edge queries are a binary search;
* :class:`SubgraphView` is a vertex *mask* plus a degree array over a
  shared :class:`CSRGraph` base.  Taking an induced subgraph is a mask
  restriction (no adjacency is copied), k-core peeling mutates the mask
  and degrees in place, and :meth:`SubgraphView.materialize` converts the
  final survivors - and only those - back into labeled ``Graph`` objects;
* :class:`IntAdjacency` is a small mutable adjacency-list graph on a
  subset of the base's id space, used for derived sparse structures
  (the sparse certificate) that the CSR base cannot represent
  immutably.  It holds rows for its members only.

Cost rule: a view or certificate creates Python objects in proportion
to its *active* vertices and edges, never to the base.  Only C-level
fills (``bytearray(n)``, ``[0] * n``, ``[-1] * n``) scale with
``base.n``: they cost microseconds and create no per-element objects.
The recursion pushes many small views over one large base, so a
per-base-vertex object in any step would dominate it.

``Graph`` remains the mutable construction/API type;
``Graph.to_csr()`` / ``Graph.from_csr()`` convert at the boundary.

All three graph-shaped classes implement the informal protocol the
algorithm layers rely on: ``vertices()``, ``neighbors(v)``, ``degree(v)``,
``has_edge(u, v)``, ``num_vertices``, ``num_edges`` and containment.
"""

from __future__ import annotations

import mmap as mmap_module
from array import array
from bisect import bisect_left
from operator import le
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import repro.kernels as kernels
from repro.graph.graph import Graph, Vertex


class VertexInterner:
    """Bijection between arbitrary hashable vertex labels and dense ids.

    Ids are assigned in first-seen order starting at 0, so interning the
    vertices of a :class:`Graph` preserves its (deterministic, insertion
    ordered) vertex iteration order.

    Examples
    --------
    >>> interner = VertexInterner(["a", "b"])
    >>> interner.intern("c")
    2
    >>> interner["a"], interner.label(2)
    (0, 'c')
    """

    __slots__ = ("_ids", "_labels")

    def __init__(self, labels: Iterable[Hashable] = ()) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._labels: List[Hashable] = []
        for label in labels:
            self.intern(label)

    def intern(self, label: Hashable) -> int:
        """The id of ``label``, assigning the next free id if unseen."""
        vid = self._ids.get(label)
        if vid is None:
            vid = len(self._labels)
            self._ids[label] = vid
            self._labels.append(label)
        return vid

    def __getitem__(self, label: Hashable) -> int:
        """The id of an already-interned label (``KeyError`` if absent)."""
        return self._ids[label]

    def label(self, vid: int) -> Hashable:
        """The label interned as ``vid``."""
        return self._labels[vid]

    @property
    def labels(self) -> List[Hashable]:
        """All labels in id order (the live list; treat as read-only)."""
        return self._labels

    def __contains__(self, label: Hashable) -> bool:
        return label in self._ids

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VertexInterner(n={len(self._labels)})"


def _int_buffer(values: Sequence[int]):
    """``values`` if it is an ``array`` or ``memoryview``, else an
    ``array('l')`` copy."""
    if isinstance(values, (array, memoryview)):
        return values
    return array("l", values)


class CSRGraph:
    """Immutable undirected graph in compressed-sparse-row form.

    ``indices[indptr[v]:indptr[v + 1]]`` lists the neighbors of vertex
    ``v`` in ascending id order (each undirected edge appears in both
    endpoint rows).  The structure is never mutated after construction;
    all dynamic state (peeling, partitioning) lives in
    :class:`SubgraphView` masks layered on top.

    Examples
    --------
    >>> csr, interner = CSRGraph.from_edges([("a", "b"), ("b", "c")])
    >>> csr.num_vertices, csr.num_edges
    (3, 2)
    >>> csr.neighbors(interner["b"])
    [0, 2]
    """

    __slots__ = (
        "n", "indptr", "indices", "_rows", "_rows_partial", "_ids",
        "interner", "_mm",
    )

    def __init__(
        self,
        n: int,
        indptr: Sequence[int],
        indices: Sequence[int],
        interner: Optional[VertexInterner] = None,
    ) -> None:
        self.n = n
        #: ``indptr``/``indices`` are ``array('l')`` for graphs built in
        #: process (other sequences are converted), or zero-copy
        #: ``memoryview.cast("i")`` sections over a file mapping for
        #: graphs opened with :meth:`load`: int buffers the c kernel
        #: reads in place.
        self.indptr = _int_buffer(indptr)
        self.indices = _int_buffer(indices)
        self._rows: Optional[List[List[int]]] = None
        #: True when ``_rows`` holds only the vertices a
        #: :meth:`prepare_rows` call asked for (out-of-core mode);
        #: un-prepared entries are ``None`` and must not be touched.
        self._rows_partial = False
        #: ``list(range(n))``, made by the first :meth:`full_view`: every
        #: root view, and every member list the enumeration derives from
        #: one, shares these int objects instead of boxing its own.
        self._ids: Optional[List[int]] = None
        #: Optional labels for the ids; ``None`` means ids are the labels.
        self.interner = interner
        #: ``(mmap, indices_byte_offset)`` when backed by a file mapping
        #: (set by the KVCCG loader); lets :meth:`release_rows` hand
        #: consumed adjacency pages back to the kernel via madvise.
        self._mm = None

    @property
    def rows(self) -> List[List[int]]:
        """Per-vertex neighbor lists, materialized once on first use.

        Iterating a list is a C-level walk over already-boxed ints, which
        the hot loops (BFS, peel, Theorem-8 scans) prefer over repeatedly
        indexing the ``array`` (one int box per access).  Building them
        lazily keeps :meth:`load` at O(header): a process that only
        serves a few queries never pays the O(n + m) boxing pass.  The
        first build checks every row (:meth:`_check_rows`), because a
        slice would silently clamp a corrupt one.

        In out-of-core mode (:meth:`prepare_rows`), the returned list is
        *partial*: only prepared entries are lists, the rest ``None``.
        Every kernel walk indexes ``rows`` for active-mask vertices
        only, so partial mode is invisible as long as callers prepare a
        superset of the vertices they activate.
        """
        rows = self._rows
        if rows is None:
            self._check_rows()
            indptr, indices = self.indptr, self.indices
            rows = [
                list(indices[indptr[i] : indptr[i + 1]])
                for i in range(self.n)
            ]
            self._rows = rows
        return rows

    def prepare_rows(self, vertices: Iterable[int]) -> None:
        """Materialize neighbor lists for ``vertices`` only.

        The out-of-core driver's entry hook: boxes just one component's
        rows (faulting in just those CSR pages when mmap-backed) instead
        of the whole graph.  A no-op for vertices already prepared and
        for graphs whose full row cache exists.  The call that starts
        the partial cache checks every row, as :attr:`rows` does.
        """
        rows = self._rows
        if rows is None:
            self._check_rows()
            rows = [None] * self.n
            self._rows = rows
            self._rows_partial = True
        elif not self._rows_partial:
            return
        indptr, indices = self.indptr, self.indices
        for v in vertices:
            if rows[v] is None:
                rows[v] = list(indices[indptr[v] : indptr[v + 1]])

    def _check_rows(self) -> None:
        """Raise ``ValueError`` unless every row lies in
        ``0 <= start <= end <= len(indices)``.

        A mapped file's load checks only the ``indptr`` endpoints, and
        slicing a row out of range would clamp it instead of failing.
        One pass over ``indptr`` at C speed; the offending row is
        looked up only to word the error.
        """
        indptr, n, nnz = self.indptr, self.n, len(self.indices)
        if not n or (
            indptr[0] >= 0
            and indptr[n] <= nnz
            and all(map(le, indptr[:n], indptr[1 : n + 1]))
        ):
            return
        for v in range(n):
            start, end = indptr[v], indptr[v + 1]
            if not 0 <= start <= end <= nnz:
                break
        raise ValueError(
            f"corrupt CSR base: row {v} spans [{start}, {end}), outside "
            f"the base's {nnz} indices"
        )

    def release_rows(self, vertices: Optional[Iterable[int]] = None) -> None:
        """Drop boxed rows (all, or just ``vertices``) and advise the OS.

        Only acts on a *partial* cache - a fully materialized cache is a
        deliberate residency decision this must not corrupt.  For
        mmap-backed graphs the released vertices' adjacency byte ranges
        are coalesced and handed back via ``madvise(MADV_DONTNEED)`` so
        peak RSS actually drops between components, not just Python heap.
        """
        rows = self._rows
        if rows is None or not self._rows_partial:
            self._advise_dontneed(vertices)
            return
        if vertices is None:
            self._rows = None
            self._rows_partial = False
        else:
            for v in vertices:
                rows[v] = None
        self._advise_dontneed(vertices)

    def _advise_dontneed(self, vertices: Optional[Iterable[int]]) -> None:
        """madvise released adjacency ranges out of the resident set."""
        info = self._mm
        if info is None:
            return
        mapped, base = info
        if not hasattr(mapped, "madvise") or not hasattr(
            mmap_module, "MADV_DONTNEED"
        ):  # pragma: no cover - platform-dependent
            return
        page = mmap_module.PAGESIZE
        indptr = self.indptr
        if vertices is None:
            spans = [(indptr[0], indptr[self.n])] if self.n else []
        else:
            # Coalesce consecutive index ranges so one madvise covers a
            # whole component's contiguous stripe.
            spans = []
            for v in sorted(vertices):
                start, end = indptr[v], indptr[v + 1]
                if start == end:
                    continue
                if spans and start <= spans[-1][1]:
                    spans[-1] = (spans[-1][0], max(spans[-1][1], end))
                else:
                    spans.append((start, end))
        limit = len(mapped)
        for start, end in spans:
            # Page-align inward: never discard a page shared with a
            # neighboring, still-needed row.
            lo = base + 4 * start
            hi = base + 4 * end
            lo = ((lo + page - 1) // page) * page
            hi = (hi // page) * page
            if hi <= lo or lo >= limit:
                continue
            try:
                mapped.madvise(mmap_module.MADV_DONTNEED, lo, min(hi, limit) - lo)
            except (ValueError, OSError):  # pragma: no cover - best effort
                return

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Convert a labeled :class:`Graph`, interning its labels.

        Rows are translated to ids in one flat pass; the per-row
        ascending sort runs through the kernel seam.
        """
        interner = VertexInterner(graph.vertices())
        n = graph.num_vertices
        indptr = array("l", [0]) * (n + 1)
        ids = interner._ids
        flat: List[int] = []
        for i, v in enumerate(interner.labels):
            nbrs = graph.neighbors(v)
            indptr[i + 1] = indptr[i] + len(nbrs)
            flat.extend(ids[w] for w in nbrs)
        indices = kernels.select().sort_segments(indptr, flat)
        return cls(n, indptr, indices, interner)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable]],
        vertices: Iterable[Hashable] = (),
    ) -> Tuple["CSRGraph", VertexInterner]:
        """Build directly from an edge iterable, skipping the dict Graph.

        This is the boundary constructor for IO/datasets: labels are
        interned on first sight, self loops are rejected and duplicate
        edges merged, mirroring :class:`Graph` semantics.
        """
        interner = VertexInterner(vertices)
        adj: List[Set[int]] = [set() for _ in range(len(interner))]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self loop rejected: {u!r}")
            iu = interner.intern(u)
            while len(adj) <= iu:
                adj.append(set())
            iv = interner.intern(v)
            while len(adj) <= iv:
                adj.append(set())
            adj[iu].add(iv)
            adj[iv].add(iu)
        n = len(adj)
        indptr = array("l", [0]) * (n + 1)
        for i in range(n):
            indptr[i + 1] = indptr[i] + len(adj[i])
        indices = array("l", [0]) * indptr[n] if n else array("l")
        for i in range(n):
            indices[indptr[i] : indptr[i + 1]] = array("l", sorted(adj[i]))
        return cls(n, indptr, indices, interner), interner

    def to_graph(self) -> Graph:
        """Materialize the whole structure as a labeled dict ``Graph``."""
        return self.full_view().materialize()

    # ------------------------------------------------------------------
    # Queries (over the full vertex set)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.n

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def vertices(self) -> Iterator[int]:
        """All ids, ``0..n-1`` in order."""
        return iter(range(self.n))

    def degree(self, v: int) -> int:
        """Degree of ``v`` in the full graph (an indptr difference)."""
        return self.indptr[v + 1] - self.indptr[v]

    def max_degree(self) -> int:
        """Largest degree in the graph (0 when empty)."""
        indptr = self.indptr
        return max(
            (indptr[i + 1] - indptr[i] for i in range(self.n)), default=0
        )

    def neighbors(self, v: int) -> List[int]:
        """Neighbor ids of ``v`` as a fresh ascending list."""
        return list(self.rows[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Edge query by binary search in ``u``'s sorted row."""
        row = self.rows[u]
        pos = bisect_left(row, v)
        return pos < len(row) and row[pos] == v

    def label_of(self, vid: int) -> Hashable:
        """Original label of ``vid`` (the id itself when unlabeled)."""
        return self.interner.label(vid) if self.interner is not None else vid

    def full_view(self) -> "SubgraphView":
        """A view with every vertex active (the enumeration's root)."""
        mask = bytearray(b"\x01") * self.n
        indptr = self.indptr
        deg = [indptr[i + 1] - indptr[i] for i in range(self.n)]
        if self._ids is None:
            self._ids = list(range(self.n))
        return SubgraphView(self, mask, deg, self.n, list(self._ids))

    def view_from_members(self, members: Iterable[int]) -> "SubgraphView":
        """A view whose active set is exactly ``members`` (base ids).

        The level-by-level drivers (hierarchy, k-sweep) re-enter the
        enumeration inside an already-found component through this
        constructor: only a fresh mask and degree array are allocated,
        the adjacency stays shared, so descending a level costs O(n)
        bookkeeping instead of an induced-subgraph copy.
        """
        members = sorted(set(members))
        if members and not 0 <= members[0] <= members[-1] < self.n:
            raise ValueError(
                f"member ids must lie in [0, {self.n}), got range "
                f"[{members[0]}, {members[-1]}]"
            )
        mask = bytearray(self.n)
        for v in members:
            mask[v] = 1
        deg = kernels.select().active_degrees(self, mask, members)
        return SubgraphView(self, mask, deg, len(members), members)

    def materialize_members(self, members: Iterable[int]) -> Graph:
        """A labeled :class:`Graph` induced on ``members``, built
        directly from the CSR rows.

        :meth:`SubgraphView.materialize` delegates here with its active
        list; a bare member-id list works too (no O(n) mask or degree
        array needed).
        """
        member_set = set(members)
        rows = self.rows
        interner = self.interner
        labels = interner.labels if interner is not None else None
        # Byte-mask membership: C-level ``filter`` over the row beats a
        # per-entry set test on the fat rows this walks.
        mb = bytearray(self.n)
        for v in member_set:
            mb[v] = 1
        active = mb.__getitem__
        adj: Dict[Vertex, Set[Vertex]] = {}
        num_edges = 0
        for v in sorted(member_set):
            row = list(filter(active, rows[v]))
            if labels is None:
                adj[v] = set(row)
            else:
                adj[labels[v]] = {labels[w] for w in row}
            num_edges += len(row)
        graph = Graph()
        graph._adj = adj
        graph._num_edges = num_edges // 2
        return graph

    # ------------------------------------------------------------------
    # Persistence (the KVCCG binary graph format, repro.data.format)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the graph as a versioned ``KVCCG`` binary file.

        See :mod:`repro.data.format` for the layout; labels (when an
        interner is attached) must be JSON scalars.
        """
        from repro.data.format import save_csr

        save_csr(self, path)

    @classmethod
    def load(cls, path) -> "CSRGraph":
        """Map a graph written by :meth:`save`.

        The int32 sections become zero-copy views of the mapping, so a
        cold process is mine-ready in O(header).  Wrong magic, wrong
        format version, truncation and bad ``indptr`` endpoints raise
        ``ValueError``.
        """
        from repro.data.format import load_csr

        return load_csr(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, m={self.num_edges})"


class SubgraphView:
    """A zero-copy induced subgraph of a :class:`CSRGraph`.

    State is a byte ``mask`` (1 = active) plus the active-degree array,
    both indexed by base vertex id.  The adjacency itself is never
    copied: neighbor queries filter the base's CSR row through the mask.

    Views support the two mutations KVCC-ENUM performs:

    * :meth:`peel` - in-place k-core peeling (clears mask bits and
      decrements degrees);
    * :meth:`restrict` - a *new* view on an active subset (what
      OVERLAP-PARTITION pushes onto the worklist instead of copying an
      induced subgraph).

    Only final k-VCCs are ever :meth:`materialize`-d back into labeled
    :class:`Graph` objects.
    """

    __slots__ = ("base", "mask", "deg", "_n_active", "_verts")

    def __init__(
        self,
        base: CSRGraph,
        mask: bytearray,
        deg: List[int],
        n_active: int,
        verts: Optional[List[int]] = None,
    ) -> None:
        self.base = base
        self.mask = mask
        #: Active degree per base id (stale for inactive ids).
        self.deg = deg
        self._n_active = n_active
        #: Cached ascending list of active ids (``None`` until needed).
        #: Keeps per-view operations O(active) instead of O(base.n) -
        #: the recursion pushes many small views over one large base.
        self._verts = verts

    # ------------------------------------------------------------------
    # Protocol queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n_active

    @property
    def num_edges(self) -> int:
        """Edges among active vertices (O(active) recount per call)."""
        deg = self.deg
        return sum(deg[v] for v in self.active_list()) // 2

    def __len__(self) -> int:
        return self._n_active

    def __contains__(self, v: object) -> bool:
        return (
            isinstance(v, int) and 0 <= v < self.base.n and bool(self.mask[v])
        )

    def __iter__(self) -> Iterator[int]:
        return self.vertices()

    def vertices(self) -> Iterator[int]:
        """Active vertex ids in ascending order."""
        return iter(self.active_list())

    def active_list(self) -> List[int]:
        """The active ids as an ascending list (cached; do not mutate)."""
        verts = self._verts
        if verts is None:
            verts = [v for v, m in enumerate(self.mask) if m]
            self._verts = verts
        return verts

    def vertex_set(self) -> Set[int]:
        """A new set of the active vertex ids."""
        return set(self.active_list())

    def degree(self, v: int) -> int:
        """Active degree of ``v`` (O(1) array read)."""
        return self.deg[v]

    def neighbors(self, v: int) -> List[int]:
        """Active neighbors of ``v`` (fresh ascending list).

        ``filter`` with the mask's C-level ``__getitem__`` keeps the hot
        loop out of Python bytecode.
        """
        return list(filter(self.mask.__getitem__, self.base.rows[v]))

    def has_edge(self, u: int, v: int) -> bool:
        """True if both endpoints are active and the base has the edge
        (binary search in the sorted CSR row)."""
        mask = self.mask
        return bool(mask[u]) and bool(mask[v]) and self.base.has_edge(u, v)

    def min_degree_vertex(self) -> int:
        """An active vertex of minimum degree (ties: smallest id, which
        is the first-interned label, just as :meth:`Graph.min_degree_vertex`
        picks the first vertex in iteration order)."""
        deg = self.deg
        best = -1
        best_deg = -1
        for v in self.active_list():
            if best < 0 or deg[v] < best_deg:
                best = v
                best_deg = deg[v]
        if best < 0:
            raise ValueError("view has no active vertices")
        return best

    def min_degree(self) -> int:
        """Minimum active degree ``delta`` of the view."""
        deg = self.deg
        degs = [deg[v] for v in self.active_list()]
        if not degs:
            raise ValueError("view has no active vertices")
        return min(degs)

    def max_degree(self) -> int:
        """Maximum active degree ``Delta`` of the view."""
        deg = self.deg
        degs = [deg[v] for v in self.active_list()]
        if not degs:
            raise ValueError("view has no active vertices")
        return max(degs)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each active undirected edge once, as ``(u, v)`` with ``u < v``."""
        rows, mask = self.base.rows, self.mask
        for u in self.active_list():
            for w in rows[u]:
                if w > u and mask[w]:
                    yield (u, w)

    # ------------------------------------------------------------------
    # Mutation / derivation
    # ------------------------------------------------------------------
    def peel(self, k: int) -> Set[int]:
        """Remove active vertices of degree < ``k`` in place (k-core).

        Returns the set of removed ids.  Both kernels run the python
        reference, which dequeues one vertex at a time (O(active +
        touched edges)); the degrees it leaves on *removed* ids are
        stale by contract.
        """
        return kernels.select().peel(self, k)

    def restrict(self, members: Iterable[int]) -> "SubgraphView":
        """A new view induced on ``members`` (must be active in ``self``).

        The base adjacency is shared; only a fresh mask and degree array
        are allocated, so this is the zero-copy replacement for
        ``Graph.induced_subgraph`` on the KVCC-ENUM recursion path.
        """
        return self.base.view_from_members(members)

    def copy(self) -> "SubgraphView":
        """An independent view with the same active set."""
        verts = self._verts
        return SubgraphView(
            self.base,
            bytearray(self.mask),
            list(self.deg),
            self._n_active,
            list(verts) if verts is not None else None,
        )

    def materialize(self) -> Graph:
        """An independent labeled :class:`Graph` of the active subgraph.

        This is the only point where the CSR pipeline allocates
        dict-of-sets adjacency; KVCC-ENUM calls it once per *returned*
        k-VCC, never per worklist item.
        """
        return self.base.materialize_members(self.active_list())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubgraphView(active={self._n_active}, base_n={self.base.n})"
        )


class IntAdjacency:
    """Mutable adjacency-list graph over a subset of a CSR base's ids.

    Backs derived sparse structures - the sparse certificate in the CSR
    pipeline - whose edge sets differ from the base's.  Rows exist for
    the member ids ``verts`` only (``adj`` is a dict keyed by member id,
    in member order), so building one costs O(members) however large
    the base is; ``n`` records the base size for callers that index
    base-length arrays (the flow-network builder).  Non-members answer
    like isolated vertices: degree 0, no neighbors, no edges, not
    contained.
    """

    __slots__ = ("n", "adj", "verts", "_m", "_kern_rows")

    def __init__(
        self,
        n: int,
        verts: List[int],
        adj: Optional[Dict[int, List[int]]] = None,
        m: int = 0,
    ) -> None:
        """Empty rows for ``verts``, or the given rows (``adj`` maps each
        member to its row, in member order) holding ``m`` edges."""
        self.n = n
        self.adj = {v: [] for v in verts} if adj is None else adj
        self.verts = verts
        self._m = m
        #: The rows as int32 arrays ``(member ids, row offsets, entries
        #: as member positions)`` when the c kernel's certificate built
        #: them; its arc builder and farthest-first order read them in
        #: place.  Adding edges drops them.
        self._kern_rows = None

    @property
    def num_vertices(self) -> int:
        return len(self.verts)

    @property
    def num_edges(self) -> int:
        return self._m

    def add_edge(self, u: int, v: int) -> None:
        """Append one undirected edge (see :meth:`add_edges`)."""
        self.add_edges(((u, v),))

    def add_edges(self, edges: Sequence[Tuple[int, int]]) -> None:
        """Append undirected edges between members, in order, to both
        endpoint rows (no duplicate check; callers add forest edges,
        which are unique by construction)."""
        adj = self.adj
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self._m += len(edges)
        self._kern_rows = None

    def vertices(self) -> Iterator[int]:
        """The member ids, in construction order."""
        return iter(self.verts)

    def degree(self, v: int) -> int:
        """Degree of ``v`` (row length; 0 for non-members)."""
        return len(self.adj.get(v, ()))

    def neighbors(self, v: int) -> List[int]:
        """The live row list (callers must not mutate it); a fresh
        empty list for non-members."""
        row = self.adj.get(v)
        return [] if row is None else row

    def has_edge(self, u: int, v: int) -> bool:
        """Edge query by linear row scan (rows are forest-sparse)."""
        return v in self.adj.get(u, ())

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and v in self.adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntAdjacency(n={len(self.verts)}, m={self._m})"
