"""The multi-measure cohesion index: k-VCC, k-ECC and k-core, one file.

The paper's effectiveness study (Figures 7-9, 14) compares three
cohesion measures at the same threshold k: k-vertex connected
components, k-edge connected components, and connected components of
the k-core.  The serving stack so far persisted and answered only the
first; this module promotes all three into one versioned ``KVCCCOH``
container so a single served dataset can answer per-measure membership
queries plus cross-measure products.

**The nesting property is shared.**  Every (k+1)-level component of
each measure lies inside exactly one k-level component - for k-VCCs by
Property 1 (the hierarchy the repo is built on), for k-ECCs because a
(k+1)-edge-connected subgraph is k-edge-connected and therefore inside
a maximal one, and for k-core components because the (k+1)-core is a
subgraph of the k-core.  All three therefore form forests, and all
three serialize into the *same* sorted-id-run + parent-pointer layout
:class:`~repro.index.store.HierarchyIndex` already defines.  The
container just concatenates one standard ``KVCCIDX`` byte stream per
measure behind a tiny JSON directory:

```
offset  field
0       b"KVCCCOH"      magic (7 bytes)
7       version         1 byte (container format version)
8       dir_len         <I>: length of the directory blob
12      directory       JSON: [{"name", "offset", "length"}, ...]
...     payload         one complete KVCCIDX stream per measure
```

Directory offsets are relative to the payload start, so ``load(path)``
maps the file once, parses magic + directory (O(header)), and wires
each measure's sections up as zero-copy views into the shared mapping
via :meth:`HierarchyIndex.from_buffer` - a cold multi-measure process
is query-ready in O(header), same as the single-measure path.

Build once with :func:`build_cohesion_index`; query through
:class:`CohesionQueryService`, which exposes one
:class:`~repro.index.query.HierarchyQueryService` per measure behind
the same ``measures`` / ``measure_service`` protocol the plain service
speaks - plus attribute delegation to the k-VCC service, so everything
that worked against a single-measure dataset keeps working unchanged.

**All three forests are built level by level on one CSR base.**  The
k-VCC forest runs the hierarchy engine
(:func:`~repro.core.hierarchy.build_hierarchy_csr`);
:func:`build_measure_hierarchy` builds the other two the same way:
level k runs only inside the level-(k-1) components, through mask
views of the shared base, and a component whose floor reaches a level
is its own child there with no work.  The floor of a k-core component
is its minimum degree; that of a k-ECC is its exact edge connectivity,
from one global minimum cut (:mod:`repro.index.mincut`), and one level
above it the component splits along that cut.  Both rules are exact:
every (k+1)-level component lies inside one k-level component, and no
k-ECC straddles an edge cut of fewer than k edges, so splitting along
such a cut loses none.  The :mod:`repro.baselines` enumerators stay
the independent oracle the tests compare these forests with.

Examples
--------
>>> from repro.graph.generators import ring_of_cliques
>>> service = CohesionQueryService(
...     build_cohesion_index(ring_of_cliques(3, 5))
... )
>>> service.measures
('kvcc', 'kecc', 'kcore')
>>> service.vcc_number(0)  # delegates to the kvcc measure
4
>>> service.measure_service("kecc").max_shared_level(0, 1) >= 4
True
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.hierarchy import (
    HierarchyNode,
    KVCCHierarchy,
    build_hierarchy_csr,
)
from repro.core.options import KVCCOptions
from repro.data.format import map_file
from repro.graph.connectivity import connected_components
from repro.graph.csr import CSRGraph
from repro.index.mincut import min_edge_cut
from repro.index.query import HierarchyQueryService
from repro.index.store import HierarchyIndex

#: File signature of a persisted multi-measure cohesion index.
COHESION_MAGIC = b"KVCCCOH"
#: Current container format version (one unsigned byte after the magic).
COHESION_FORMAT_VERSION = 1

#: The cohesion measures a container persists, canonical order.
MEASURES = ("kvcc", "kecc", "kcore")

_DIR_LEN = struct.Struct("<I")


class _Component:
    """One component of a measure forest, reused across the levels it
    survives unchanged.

    ``members`` are ascending base ids and ``key`` the ascending string
    forms of their labels, the within-level sort key.  ``floor`` is
    the last level at which the component is its own child: its edge
    connectivity for k-ECCs, its minimum degree for k-core components.
    ``side`` is one side of a minimum edge cut (k-ECCs only).
    """

    __slots__ = ("members", "labels", "key", "floor", "side")

    def __init__(
        self,
        base: CSRGraph,
        members: List[int],
        floor: int,
        side: Optional[List[int]] = None,
    ) -> None:
        self.members = members
        if base.interner is None:
            self.labels = members
        else:
            names = base.interner.labels
            self.labels = [names[v] for v in members]
        self.key = sorted(str(label) for label in self.labels)
        self.floor = floor
        self.side = side


def _kecc_component(base: CSRGraph, members: List[int]) -> _Component:
    """A connected piece whose floor is its edge connectivity, with a
    minimum cut that realizes it."""
    return _Component(base, members, *min_edge_cut(base.rows, members))


def _peeled_components(view, k: int) -> List[Tuple[List[int], int]]:
    """The components of ``view``'s k-core, with their minimum degrees.

    Peels ``view`` in place and returns ``(ascending members, minimum
    degree)`` per component.  Every survivor keeps at least ``k >= 1``
    neighbors, so every component has at least two vertices, and its
    members' active degrees are their degrees inside the component.
    """
    view.peel(k)
    deg = view.deg
    out = []
    for component in connected_components(view):
        members = sorted(component)
        out.append((members, min(deg[v] for v in members)))
    return out


def _kcore_children(base: CSRGraph, parent: _Component, k: int):
    """The level-k core components inside one level-(k-1) component.

    A component whose minimum degree reaches k lies in the k-core whole
    and is still connected, so it is its own child; any other is peeled
    at k and split into components.
    """
    if parent.floor >= k:
        return [parent]
    view = base.view_from_members(parent.members)
    return [
        _Component(base, members, degree)
        for members, degree in _peeled_components(view, k)
    ]


def _kecc_children(base: CSRGraph, parent: _Component, k: int):
    """The k-ECCs inside one (k-1)-ECC.

    A component whose edge connectivity reaches k is its own child.
    Any other has a minimum cut of k - 1 edges, which no k-ECC
    straddles: it splits along it, each side is peeled at k and split
    into components, and each piece gets its own minimum cut, which
    either proves it a k-ECC or splits it again.
    """
    if parent.floor >= k:
        return [parent]
    children = []
    stack = [parent]
    while stack:
        component = stack.pop()
        on_side = set(component.side)
        rest = [v for v in component.members if v not in on_side]
        for part in (component.side, rest):
            view = base.view_from_members(part)
            for members, _ in _peeled_components(view, k):
                piece = _kecc_component(base, members)
                if piece.floor >= k:
                    children.append(piece)
                else:
                    stack.append(piece)
    return children


def build_measure_hierarchy(
    graph, measure: str, max_k: Optional[int] = None
) -> KVCCHierarchy:
    """Level-by-level containment forest of a non-kvcc measure.

    ``measure`` is ``"kecc"`` or ``"kcore"``; ``graph`` is a dict
    :class:`~repro.graph.graph.Graph` (interned once) or a
    :class:`~repro.graph.csr.CSRGraph` base.  Level 1 holds the
    connected components of at least two vertices, and level k is
    built inside each level-(k-1) component only, until a level comes
    back empty (or ``max_k``, at least 1, is reached; ``ValueError``
    otherwise).  This is exact because both measures nest: every
    (k+1)-level component lies inside one k-level component (a
    (k+1)-edge-connected subgraph is k-edge-connected, and the
    (k+1)-core lies in the k-core), and the k-level components of the
    graph inside a component C are those of C's induced subgraph.

    Each component carries a floor, the last level at which it is its
    own child with no further work, as a k-VCC carries its proven
    connectivity in :meth:`~repro.core.engine.SerialEngine.run_level`:

    * k-core: the component's minimum degree.  Above it the component
      is peeled at k and split into components.
    * k-ECC: the component's edge connectivity, from one exact global
      minimum cut (:func:`repro.index.mincut.min_edge_cut`).  One level
      above it the component splits along that cut, which has fewer
      edges than the level, so no k-ECC straddles it; each side is
      peeled at k and split into components, and each piece gets its
      own minimum cut.

    Components within a level are stored sorted by member labels as
    strings, and each links to the unique previous-level component
    containing it, so the forest - and everything serialized from it -
    is deterministic.
    """
    if measure == "kecc":
        children_of = _kecc_children
    elif measure == "kcore":
        children_of = _kcore_children
    else:
        raise ValueError(f"unknown cohesion measure {measure!r}")
    if max_k is not None and max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    base = graph if isinstance(graph, CSRGraph) else graph.to_csr()
    hierarchy = KVCCHierarchy()
    # (component, parent node index) per component of the level being
    # stored; level 1 holds the components of the 1-core.
    level = []
    for members, degree in _peeled_components(base.full_view(), 1):
        if measure == "kecc":
            level.append((_kecc_component(base, members), None))
        else:
            level.append((_Component(base, members, degree), None))
    k = 1
    while level:
        level.sort(key=lambda entry: entry[0].key)
        stored = []
        for component, parent in level:
            node = len(hierarchy.nodes)
            hierarchy.nodes.append(
                HierarchyNode(
                    k=k, vertices=set(component.labels), parent=parent
                )
            )
            if parent is not None:
                hierarchy.nodes[parent].children.append(node)
            stored.append((component, node))
        hierarchy.max_k = k
        if max_k is not None and k >= max_k:
            break
        k += 1
        level = [
            (child, node)
            for component, node in stored
            for child in children_of(base, component, k)
        ]
    return hierarchy


class CohesionIndex:
    """Per-measure hierarchy indexes behind one versioned container.

    Construct via :func:`build_cohesion_index` or :meth:`load`; query
    through :class:`CohesionQueryService`.  The container is a mapping
    of measure name to a perfectly ordinary
    :class:`~repro.index.store.HierarchyIndex` - every measure reuses
    the single-measure file layout, persistence discipline, and query
    code unchanged.
    """

    __slots__ = ("_indexes",)

    def __init__(self, indexes: Dict[str, HierarchyIndex]) -> None:
        if not indexes:
            raise ValueError("a cohesion index needs at least one measure")
        for name in indexes:
            if name not in MEASURES:
                raise ValueError(
                    f"unknown cohesion measure {name!r}; expected a subset "
                    f"of {list(MEASURES)}"
                )
        # Canonical measure order regardless of construction order.
        self._indexes = {
            name: indexes[name] for name in MEASURES if name in indexes
        }

    @property
    def measures(self) -> Tuple[str, ...]:
        """The persisted measure names, canonical order."""
        return tuple(self._indexes)

    def index_for(self, measure: str) -> HierarchyIndex:
        """The :class:`HierarchyIndex` of one measure (``KeyError`` if
        absent)."""
        return self._indexes[measure]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohesionIndex):
            return NotImplemented
        return self.measures == other.measures and all(
            self._indexes[name] == other._indexes[name]
            for name in self._indexes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CohesionIndex(measures={list(self._indexes)})"

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _write(self, handle) -> None:
        streams = [
            (name, index.to_bytes()) for name, index in self._indexes.items()
        ]
        directory = []
        offset = 0
        for name, blob in streams:
            directory.append(
                {"name": name, "offset": offset, "length": len(blob)}
            )
            offset += len(blob)
        dir_blob = json.dumps(directory, separators=(",", ":")).encode(
            "utf-8"
        )
        handle.write(COHESION_MAGIC)
        handle.write(bytes([COHESION_FORMAT_VERSION]))
        handle.write(_DIR_LEN.pack(len(dir_blob)))
        handle.write(dir_blob)
        for _, blob in streams:
            handle.write(blob)

    def save(self, path) -> None:
        """Write the versioned container file at ``path``."""
        with open(path, "wb") as handle:
            self._write(handle)

    def to_bytes(self) -> bytes:
        """The exact bytes :meth:`save` would write (same contract as
        :meth:`HierarchyIndex.to_bytes`)."""
        import io

        buffer = io.BytesIO()
        self._write(buffer)
        return buffer.getvalue()

    def save_atomic(self, path) -> None:
        """Write via a unique temp file + atomic rename (no torn reads
        for a concurrent mmap or hot-reload stat)."""
        import os
        import tempfile

        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".kvcccoh.tmp")
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
    def load(cls, path) -> "CohesionIndex":
        """Map a container written by :meth:`save`.

        The file is mapped once and each embedded measure stream is
        parsed zero-copy out of the shared mapping (O(header) cold
        start, pages shared across processes).  Rejects wrong magic,
        wrong container version, truncation, and malformed directories
        loudly - and every embedded stream re-runs the full
        ``KVCCIDX`` validation.  If one of those fails after another
        measure has been parsed, the mapping is released once the
        error is handled (the parsed views are its last references).
        """
        mapped = map_file(path, "cohesion index")
        try:
            directory = cls._parse_directory(mapped, path)
        except ValueError:
            mapped.close()
            raise
        view = memoryview(mapped)
        return cls({
            entry["name"]: HierarchyIndex.from_buffer(
                cls._payload_slice(view, entry, path), path
            )
            for entry in directory
        })

    @staticmethod
    def _parse_directory(blob, path) -> List[dict]:
        """Validate the container framing; returns the directory list."""
        prefix = len(COHESION_MAGIC)
        if bytes(blob[:prefix]) != COHESION_MAGIC:
            raise ValueError(
                f"{path}: not a cohesion index file (bad magic "
                f"{bytes(blob[:prefix])!r}, expected {COHESION_MAGIC!r})"
            )
        if len(blob) < prefix + 1 + _DIR_LEN.size:
            raise ValueError(f"{path}: truncated cohesion index header")
        version = blob[prefix]
        if version != COHESION_FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported cohesion format version {version} "
                f"(this build reads version {COHESION_FORMAT_VERSION}); "
                f"rebuild the index with 'repro build-cohesion'"
            )
        (dir_len,) = _DIR_LEN.unpack_from(blob, prefix + 1)
        dir_start = prefix + 1 + _DIR_LEN.size
        if len(blob) < dir_start + dir_len:
            raise ValueError(f"{path}: truncated cohesion index directory")
        try:
            directory = json.loads(
                bytes(blob[dir_start : dir_start + dir_len]).decode("utf-8")
            )
        except (ValueError, UnicodeDecodeError):
            raise ValueError(
                f"{path}: corrupt cohesion index directory"
            ) from None
        if not isinstance(directory, list) or not directory:
            raise ValueError(f"{path}: corrupt cohesion index directory")
        payload_len = len(blob) - dir_start - dir_len
        for entry in directory:
            if (
                not isinstance(entry, dict)
                or entry.get("name") not in MEASURES
                or not isinstance(entry.get("offset"), int)
                or not isinstance(entry.get("length"), int)
                or entry["offset"] < 0
                or entry["length"] < 0
                or entry["offset"] + entry["length"] > payload_len
            ):
                raise ValueError(
                    f"{path}: corrupt cohesion index directory entry "
                    f"{entry!r}"
                )
            entry["_payload_start"] = dir_start + dir_len
        return directory

    @staticmethod
    def _payload_slice(blob, entry: dict, path):
        """The byte range of one measure's embedded ``KVCCIDX`` stream."""
        start = entry["_payload_start"] + entry["offset"]
        return blob[start : start + entry["length"]]


def build_cohesion_index(
    graph,
    max_k: Optional[int] = None,
    options: Optional[KVCCOptions] = None,
) -> CohesionIndex:
    """Graph in, multi-measure cohesion index out.

    Accepts a dict :class:`~repro.graph.graph.Graph`, interned once, or
    a :class:`~repro.graph.csr.CSRGraph` base, which is used as it is:
    no dict graph is built.  The k-VCC forest runs on the CSR hierarchy
    engine, exactly as :func:`~repro.index.store.build_index`; the
    k-ECC and k-core forests come from :func:`build_measure_hierarchy`
    on the same base, nested level by level with the floor rule (a
    component whose minimum cut, or minimum degree, reaches a level is
    its own child there).  The nesting is exact because every
    (k+1)-level component lies inside one k-level component, and a
    k-ECC never straddles an edge cut of fewer than k edges.  All three
    flatten under the *same* CSR interner, so every measure indexes
    every graph vertex under identical dense ids and the container
    shares one label universe.
    """
    base = graph if isinstance(graph, CSRGraph) else graph.to_csr()
    indexes = {
        "kvcc": HierarchyIndex.from_hierarchy(
            build_hierarchy_csr(base, max_k=max_k, options=options),
            base.interner,
        )
    }
    for measure in ("kecc", "kcore"):
        indexes[measure] = HierarchyIndex.from_hierarchy(
            build_measure_hierarchy(base, measure, max_k=max_k),
            base.interner,
        )
    return CohesionIndex(indexes)


def load_cohesion_index(path) -> CohesionIndex:
    """Convenience alias for :meth:`CohesionIndex.load`."""
    return CohesionIndex.load(path)


def is_cohesion_file(path) -> bool:
    """True when ``path`` starts with the ``KVCCCOH`` container magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(COHESION_MAGIC)) == COHESION_MAGIC
    except OSError:
        return False


def sniff_measures(path) -> Optional[Tuple[str, ...]]:
    """The measures an index *file* serves, without loading it.

    Reads only the magic (plain ``KVCCIDX`` answers for ``kvcc``
    alone) or the magic plus the tiny directory blob (``KVCCCOH``).
    Returns ``None`` for unreadable, foreign, or corrupt files - the
    caller (the registry's ``/datasets`` listing) describes what it
    can and stays silent about the rest rather than failing the
    listing or loading an index just to describe it.
    """
    from repro.index.store import MAGIC as _PLAIN_MAGIC

    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(COHESION_MAGIC))
            if magic[: len(_PLAIN_MAGIC)] == _PLAIN_MAGIC:
                return ("kvcc",)
            if magic != COHESION_MAGIC:
                return None
            head = handle.read(1 + _DIR_LEN.size)
            if len(head) < 1 + _DIR_LEN.size:
                return None
            if head[0] != COHESION_FORMAT_VERSION:
                return None
            (dir_len,) = _DIR_LEN.unpack(head[1:])
            directory = json.loads(handle.read(dir_len).decode("utf-8"))
            names = tuple(entry["name"] for entry in directory)
    except (OSError, ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None
    if any(name not in MEASURES for name in names):
        return None
    return names


def load_any_index(path):
    """Magic-sniffing loader: plain or multi-measure, one entry point.

    A ``KVCCCOH`` file loads as a :class:`CohesionIndex`; anything else
    takes the single-measure path through
    :func:`~repro.index.delta.load_effective_index`, so plain datasets
    keep their delta-log overlay semantics.  This is what the serving
    registry calls, making every consumer of "an index file"
    format-agnostic.
    """
    if is_cohesion_file(path):
        return CohesionIndex.load(path)
    from repro.index.delta import load_effective_index

    return load_effective_index(path)


class CohesionQueryService:
    """Per-measure query services over one loaded cohesion index.

    Speaks the same ``measures`` / ``measure_service`` protocol as
    :class:`~repro.index.query.HierarchyQueryService` (which answers
    for the single measure ``kvcc``), so the handler layer treats plain
    and multi-measure datasets uniformly.  Unknown attributes delegate
    to the k-VCC measure's service - existing callers written against a
    plain service (``registry.get(ds).vcc_number(v)``) keep working
    verbatim against a cohesion dataset.
    """

    __slots__ = ("_cohesion", "_services")

    def __init__(self, cohesion: CohesionIndex) -> None:
        self._cohesion = cohesion
        self._services = {
            measure: HierarchyQueryService(cohesion.index_for(measure))
            for measure in cohesion.measures
        }

    @classmethod
    def from_file(cls, path) -> "CohesionQueryService":
        """Load a saved container and wrap it in a query service."""
        return cls(CohesionIndex.load(path))

    @property
    def cohesion_index(self) -> CohesionIndex:
        """The wrapped container (for shape introspection)."""
        return self._cohesion

    @property
    def index(self) -> HierarchyIndex:
        """The k-VCC measure's index (single-measure-compatible view)."""
        return self._cohesion.index_for("kvcc")

    @property
    def measures(self) -> Tuple[str, ...]:
        """The measures this dataset can answer for."""
        return self._cohesion.measures

    def measure_service(self, measure: str) -> HierarchyQueryService:
        """The per-measure query service (``KeyError`` if absent)."""
        return self._services[measure]

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._services["kvcc"], name)


def _sorted_label_keys(labels: Sequence[Hashable]) -> List[str]:
    """String sort keys of a label list (exposed for tests)."""
    return [str(label) for label in labels]
