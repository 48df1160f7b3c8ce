"""Array-backed persistent form of the k-VCC hierarchy.

A :class:`~repro.core.hierarchy.KVCCHierarchy` holds one Python set per
component - fine for construction, wasteful to keep resident or ship to
disk.  :class:`HierarchyIndex` flattens the forest into a handful of
integer arrays:

* ``labels`` - the vertex interner, id order (the only non-integer data);
* ``node_k`` / ``node_parent`` - per component: its level and the index
  of the level-(k-1) component containing it (-1 for roots).  Nodes are
  stored level by level, so ``node_k`` is non-decreasing and level
  lookups are a binary search;
* ``run_offsets`` / ``runs`` - per-component membership as *sorted id
  runs*: maximal consecutive id ranges ``(start, length)``.  Dense
  communities over an interner that assigned ids in discovery order
  compress to a few runs each;
* ``vcc_numbers`` - per vertex id, the largest level reached (the
  precomputed answer to the most common query).

The on-disk format is the same data, little-endian, behind a magic +
version header (:data:`MAGIC`, :data:`FORMAT_VERSION`); labels travel as
a JSON array, everything else as packed 32-bit integers.  ``load``
rejects wrong magic and wrong versions loudly instead of misreading.

``load`` maps the file and exposes the integer sections as zero-copy
``memoryview`` casts over the mapping; the JSON label blob is decoded
lazily on first label access.  A cold process pays O(header) before its
first query, and resident cost is page-cache pages shared across
processes serving the same file.  The mapping is released when the
last view of it dies, so dropping every reference to an index is all
it takes to let it go.
"""

from __future__ import annotations

import json
import struct
from typing import Hashable, List, Optional, Sequence

from repro.core.hierarchy import KVCCHierarchy, build_hierarchy_csr
from repro.core.options import KVCCOptions
from repro.data.format import map_file
from repro.graph.csr import VertexInterner
from repro.graph.graph import Graph

#: File signature of a persisted hierarchy index.
MAGIC = b"KVCCIDX"
#: Current on-disk format version (one unsigned byte after the magic).
FORMAT_VERSION = 1

_HEADER = struct.Struct("<IIIiI")  # n_vertices, n_nodes, n_run_pairs,
#                                    max_k, labels_blob_length


def _encode_runs(sorted_ids: List[int], out: List[int]) -> int:
    """Append ``(start, length)`` runs of ``sorted_ids`` to ``out``.

    Returns the number of runs appended.  ``sorted_ids`` must be
    strictly increasing (component membership always is).
    """
    pairs = 0
    i, n = 0, len(sorted_ids)
    while i < n:
        start = sorted_ids[i]
        j = i + 1
        while j < n and sorted_ids[j] == sorted_ids[j - 1] + 1:
            j += 1
        out.append(start)
        out.append(j - i)
        pairs += 1
        i = j
    return pairs


def _pack_ints(values: List[int]) -> bytes:
    """Little-endian 32-bit packing of an int list."""
    return struct.pack(f"<{len(values)}i", *values)


def _as_list(values: Sequence[int]) -> List[int]:
    """Normalize an int section (list or memoryview) for comparison."""
    return values if isinstance(values, list) else list(values)


class HierarchyIndex:
    """The k-VCC forest as flat arrays, ready to persist and query.

    Construct via :meth:`from_hierarchy`, :func:`build_index` or
    :meth:`load`; read with the accessors here or wrap in a
    :class:`~repro.index.query.HierarchyQueryService` for the online
    query API.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> index = build_index(complete_graph(4))
    >>> index.num_nodes, index.max_k
    (3, 3)
    >>> index.members(index.nodes_at(2)[0])
    [0, 1, 2, 3]
    """

    __slots__ = (
        "_labels",
        "_labels_blob",
        "_n_vertices",
        "node_k",
        "node_parent",
        "run_offsets",
        "runs",
        "vcc_numbers",
        "max_k",
        "_ids",
    )

    def __init__(
        self,
        labels: List[Hashable],
        node_k: Sequence[int],
        node_parent: Sequence[int],
        run_offsets: Sequence[int],
        runs: Sequence[int],
        vcc_numbers: Sequence[int],
        max_k: int,
    ) -> None:
        self._labels: Optional[List[Hashable]] = labels
        self._labels_blob = None
        self._n_vertices = len(labels)
        self.node_k = node_k
        self.node_parent = node_parent
        #: ``runs[2*run_offsets[i] : 2*run_offsets[i+1]]`` are node i's
        #: ``(start, length)`` pairs, flattened.
        self.run_offsets = run_offsets
        self.runs = runs
        self.vcc_numbers = vcc_numbers
        self.max_k = max_k
        self._ids: Optional[dict] = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def labels(self) -> List[Hashable]:
        """Vertex labels in id order.

        A built index holds the list from the start; a loaded one keeps
        the raw JSON blob mapped and decodes it here, once, on the first
        label-facing access (``id_of``, ``member_labels``, ...).
        """
        if self._labels is None:
            self._labels = json.loads(bytes(self._labels_blob).decode("utf-8"))
            self._labels_blob = None
        return self._labels

    @property
    def num_vertices(self) -> int:
        """Vertices covered by the interner (including vcc-number-0 ones).

        Comes from the header, so it never forces a lazy label decode.
        """
        return self._n_vertices

    @property
    def is_mmap(self) -> bool:
        """True when the array sections view a loaded file's mapping
        (false for an index built or overlaid in memory)."""
        return isinstance(self.runs, memoryview)

    @property
    def num_nodes(self) -> int:
        """Components across all levels of the forest."""
        return len(self.node_k)

    def __len__(self) -> int:
        return len(self.node_k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierarchyIndex):
            return NotImplemented
        return (
            self.labels == other.labels
            and _as_list(self.node_k) == _as_list(other.node_k)
            and _as_list(self.node_parent) == _as_list(other.node_parent)
            and _as_list(self.run_offsets) == _as_list(other.run_offsets)
            and _as_list(self.runs) == _as_list(other.runs)
            and _as_list(self.vcc_numbers) == _as_list(other.vcc_numbers)
            and self.max_k == other.max_k
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchyIndex(n={self.num_vertices}, "
            f"nodes={self.num_nodes}, max_k={self.max_k})"
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def _id_map(self) -> dict:
        """The label-to-id dict, built once on first use."""
        ids = self._ids
        if ids is None:
            ids = {label: i for i, label in enumerate(self.labels)}
            self._ids = ids
        return ids

    def id_of(self, label: Hashable) -> Optional[int]:
        """Dense id of a vertex label, or ``None`` if not indexed.

        Lookup tokens arrive from the CLI and the HTTP layer as
        strings, parsed int-first; a graph ingested from an edge list
        may have interned the *other* spelling (label ``"5"`` queried
        as ``5``, or label ``5`` queried as ``"05"``).  The exact label
        wins, then the int reading of a string token, then the string
        spelling of an int token - so every numeric-looking spelling of
        an indexed vertex resolves instead of silently answering as
        "unknown vertex".
        """
        ids = self._id_map()
        vid = ids.get(label)
        if vid is not None:
            return vid
        if isinstance(label, str):
            try:
                return ids.get(int(label))
            except ValueError:
                return None
        if isinstance(label, int) and not isinstance(label, bool):
            return ids.get(str(label))
        return None

    def members(self, node: int) -> List[int]:
        """Sorted member ids of component ``node`` (runs decoded)."""
        runs = self.runs
        out: List[int] = []
        for pair in range(self.run_offsets[node], self.run_offsets[node + 1]):
            start, length = runs[2 * pair], runs[2 * pair + 1]
            out.extend(range(start, start + length))
        return out

    def member_labels(self, node: int) -> List[Hashable]:
        """Member labels of component ``node``, in id order."""
        labels = self.labels
        return [labels[i] for i in self.members(node)]

    def nodes_at(self, k: int) -> List[int]:
        """Indices of the level-``k`` components (binary search).

        Nodes are stored level by level, so ``node_k`` is sorted and the
        level slice is found with two bisections.
        """
        from bisect import bisect_left, bisect_right

        lo = bisect_left(self.node_k, k)
        hi = bisect_right(self.node_k, k)
        return list(range(lo, hi))

    def vcc_number_of(self, label: Hashable) -> int:
        """Largest level containing ``label`` (0 when not indexed)."""
        vid = self.id_of(label)
        return 0 if vid is None else self.vcc_numbers[vid]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_hierarchy(
        cls,
        hierarchy: KVCCHierarchy,
        interner: Optional[VertexInterner] = None,
    ) -> "HierarchyIndex":
        """Flatten a construction-time forest into index arrays.

        Parameters
        ----------
        hierarchy:
            Output of :func:`~repro.core.hierarchy.build_hierarchy` or
            :func:`~repro.core.hierarchy.build_hierarchy_csr`.  Nodes
            must be stored level by level, which both guarantee.
        interner:
            Label-to-id mapping to index under; pass the CSR base's
            interner so the index covers *all* graph vertices
            (vcc-number 0 for those in no component).  ``None`` builds
            one from the hierarchy's own vertices.
        """
        if interner is None:
            interner = VertexInterner()
            for node in hierarchy.nodes:
                for label in sorted(node.vertices, key=repr):
                    interner.intern(label)
        node_k: List[int] = []
        node_parent: List[int] = []
        run_offsets: List[int] = [0]
        runs: List[int] = []
        vcc_numbers = [0] * len(interner)
        previous_k = 0
        for node in hierarchy.nodes:
            if node.k < previous_k:
                raise ValueError(
                    "hierarchy nodes are not stored level by level"
                )
            previous_k = node.k
            members = sorted(interner[label] for label in node.vertices)
            node_k.append(node.k)
            node_parent.append(-1 if node.parent is None else node.parent)
            _encode_runs(members, runs)
            run_offsets.append(len(runs) // 2)
            for vid in members:
                if vcc_numbers[vid] < node.k:
                    vcc_numbers[vid] = node.k
        return cls(
            labels=list(interner.labels),
            node_k=node_k,
            node_parent=node_parent,
            run_offsets=run_offsets,
            runs=runs,
            vcc_numbers=vcc_numbers,
            max_k=hierarchy.max_k,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the versioned binary index file at ``path``.

        Labels must be JSON *scalars* (ints and strings - the types
        edge-list IO produces - plus floats, bools and None).  Anything
        else raises ``TypeError`` up front: a tuple label, say, would
        silently come back from JSON as an unhashable list.
        """
        with open(path, "wb") as handle:
            self._write(handle)

    def _write(self, handle) -> None:
        for label in self.labels:
            if label is not None and not isinstance(
                label, (str, int, float, bool)
            ):
                raise TypeError(
                    f"cannot persist vertex label {label!r} of type "
                    f"{type(label).__name__}; the index file stores "
                    f"labels as JSON scalars (str/int/float/bool/None)"
                )
        labels_blob = json.dumps(self.labels, separators=(",", ":")).encode(
            "utf-8"
        )
        handle.write(MAGIC)
        handle.write(bytes([FORMAT_VERSION]))
        handle.write(
            _HEADER.pack(
                len(self.labels),
                len(self.node_k),
                len(self.runs) // 2,
                self.max_k,
                len(labels_blob),
            )
        )
        handle.write(labels_blob)
        handle.write(_pack_ints(self.node_k))
        handle.write(_pack_ints(self.node_parent))
        handle.write(_pack_ints(self.run_offsets))
        handle.write(_pack_ints(self.runs))
        handle.write(_pack_ints(self.vcc_numbers))

    def to_bytes(self) -> bytes:
        """The exact bytes :meth:`save` would write.

        A :class:`~repro.index.cohesion.CohesionIndex` embeds these
        bytes as one measure's stream.
        """
        import io

        buffer = io.BytesIO()
        self._write(buffer)
        return buffer.getvalue()

    def save_atomic(self, path) -> None:
        """Write the index via a unique temp file + atomic rename.

        A reader (``repro serve`` hot reload, a concurrent boot) that
        stats or mmaps ``path`` mid-write must never see a half-written
        index: the bytes land in a ``mkstemp``-unique sibling first and
        ``os.replace`` publishes them in one atomic step.  Concurrent
        writers each write their own temp file and race only on the
        rename, which is last-writer-wins, never a torn file.
        """
        import os
        import tempfile

        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".kvccidx.tmp")
        os.close(fd)
        try:
            self.save(tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path) -> "HierarchyIndex":
        """Map an index written by :meth:`save`.

        The int32 sections become zero-copy ``memoryview`` casts over
        the mapping and the label blob decodes lazily, so the load
        itself costs O(header) no matter how large the index is.

        Raises
        ------
        ValueError
            If the file is not a hierarchy index (wrong magic), was
            written by an unsupported format version, is truncated, or
            its run table's endpoints disagree with its header.
        """
        mapped = map_file(path, "index")
        try:
            return cls.from_buffer(mapped, path)
        except ValueError:
            mapped.close()
            raise

    @classmethod
    def from_buffer(cls, buffer, path) -> "HierarchyIndex":
        """Parse one complete ``KVCCIDX`` byte stream out of ``buffer``.

        The one parser behind :meth:`load` and the embedded streams of
        the multi-measure container (:mod:`repro.index.cohesion`):
        ``buffer`` must hold exactly one index stream, magic through
        the last section, with nothing after it.  The int32 sections
        become ``memoryview`` casts into ``buffer``, which they keep
        alive, and the label decode is deferred.  Validation (magic,
        version, completeness, run-table endpoints) happens *before*
        any view into ``buffer`` is exported, so a failed parse never
        pins the backing buffer.
        """
        prefix = len(MAGIC)
        if bytes(buffer[:prefix]) != MAGIC:
            raise ValueError(
                f"{path}: not a k-VCC hierarchy index file "
                f"(bad magic {bytes(buffer[:prefix])!r}, expected {MAGIC!r})"
            )
        if len(buffer) < prefix + 1:
            raise ValueError(f"{path}: truncated index header")
        version = buffer[prefix]
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported index format version {version} "
                f"(this build reads version {FORMAT_VERSION}); rebuild "
                f"the index with 'repro hierarchy --save-index'"
            )
        body_start = prefix + 1 + _HEADER.size
        if len(buffer) < body_start:
            raise ValueError(f"{path}: truncated index header")
        n_vertices, n_nodes, n_run_pairs, max_k, labels_len = (
            _HEADER.unpack_from(buffer, prefix + 1)
        )
        expected = labels_len + 4 * (
            n_nodes + n_nodes + (n_nodes + 1) + 2 * n_run_pairs + n_vertices
        )
        body_len = len(buffer) - body_start
        if body_len != expected:
            raise ValueError(
                f"{path}: truncated index body "
                f"({body_len} bytes, expected {expected})"
            )
        offsets_at = body_start + labels_len + 8 * n_nodes
        first = struct.unpack_from("<i", buffer, offsets_at)[0]
        last = struct.unpack_from("<i", buffer, offsets_at + 4 * n_nodes)[0]
        if first != 0 or last != n_run_pairs:
            raise ValueError(
                f"{path}: corrupt index (run table endpoints "
                f"[{first}, {last}] do not match the declared "
                f"{n_run_pairs} run pair(s))"
            )
        view = memoryview(buffer)
        offset = body_start + labels_len
        sections = []
        for count in (n_nodes, n_nodes, n_nodes + 1, 2 * n_run_pairs,
                      n_vertices):
            sections.append(view[offset : offset + 4 * count].cast("i"))
            offset += 4 * count
        index = cls([], *sections, max_k)
        index._labels = None
        index._labels_blob = view[body_start : body_start + labels_len]
        index._n_vertices = n_vertices
        return index


def build_index(
    graph: Graph,
    max_k: Optional[int] = None,
    options: Optional[KVCCOptions] = None,
) -> HierarchyIndex:
    """Graph in, persistent-ready index out.

    Interns the graph once into a CSR base, builds the full hierarchy
    on it (:func:`~repro.core.hierarchy.build_hierarchy_csr`), and
    flattens the forest under the base's interner so every graph
    vertex - including vcc-number-0 ones - is covered.

    Examples
    --------
    >>> from repro.graph.generators import ring_of_cliques
    >>> index = build_index(ring_of_cliques(3, 5))
    >>> index.max_k
    4
    >>> index.vcc_number_of(0)
    4
    """
    base = graph.to_csr()
    hierarchy = build_hierarchy_csr(base, max_k=max_k, options=options)
    return HierarchyIndex.from_hierarchy(hierarchy, base.interner)


def load_index(path) -> HierarchyIndex:
    """Convenience alias for :meth:`HierarchyIndex.load`."""
    return HierarchyIndex.load(path)
