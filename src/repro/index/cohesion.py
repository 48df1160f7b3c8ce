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

Directory offsets are relative to the payload start, so
``load(path, mmap=True)`` parses magic + directory (O(header)), maps
the file once, and wires each measure's sections up as zero-copy views
into the shared mapping via :meth:`HierarchyIndex.from_buffer` - a cold
multi-measure process is query-ready in O(header), same as the
single-measure path.

Build once with :func:`build_cohesion_index` (k-VCC via the CSR
hierarchy engine, k-ECC/k-core by iterating the
:mod:`repro.baselines` reference enumerators level by level); query
through :class:`CohesionQueryService`, which exposes one
:class:`~repro.index.query.HierarchyQueryService` per measure behind
the same ``measures`` / ``measure_service`` protocol the plain service
speaks - plus attribute delegation to the k-VCC service, so everything
that worked against a single-measure dataset keeps working unchanged.

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
import mmap as _mmap
import struct
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.baselines.kecc import k_ecc_components
from repro.baselines.kcore_cc import k_core_components
from repro.core.hierarchy import (
    HierarchyNode,
    KVCCHierarchy,
    build_hierarchy_csr,
)
from repro.core.options import KVCCOptions
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.index.query import HierarchyQueryService
from repro.index.store import _MMAP_ZERO_COPY, HierarchyIndex

#: File signature of a persisted multi-measure cohesion index.
COHESION_MAGIC = b"KVCCCOH"
#: Current container format version (one unsigned byte after the magic).
COHESION_FORMAT_VERSION = 1

#: The cohesion measures a container persists, canonical order.
MEASURES = ("kvcc", "kecc", "kcore")

_DIR_LEN = struct.Struct("<I")


def _measure_components(measure: str, graph: Graph, k: int):
    """The offline enumerator behind one non-kvcc measure at level k."""
    if measure == "kecc":
        return k_ecc_components(graph, k)
    if measure == "kcore":
        return k_core_components(graph, k)
    raise ValueError(f"unknown cohesion measure {measure!r}")


def build_measure_hierarchy(
    graph: Graph, measure: str, max_k: Optional[int] = None
) -> KVCCHierarchy:
    """Level-by-level containment forest of a non-kvcc measure.

    Runs the measure's reference enumerator (:mod:`repro.baselines`)
    for k = 1, 2, ... until a level comes back empty (or ``max_k`` is
    reached), linking each component to the unique previous-level
    component containing it.  Components of these measures are disjoint
    within a level, so a single member probe determines the parent.
    Components within a level are stored sorted by member labels, so
    the forest - and everything serialized from it - is deterministic.
    ``max_k`` must be at least 1 (``ValueError`` otherwise).
    """
    if max_k is not None and max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    hierarchy = KVCCHierarchy()
    parent_of: Dict[Hashable, int] = {}
    k = 1
    while max_k is None or k <= max_k:
        components = _measure_components(measure, graph, k)
        if not components:
            break
        ordered = sorted(
            (sorted(component, key=str) for component in components),
            key=lambda members: [str(label) for label in members],
        )
        level_parent_of: Dict[Hashable, int] = {}
        for members in ordered:
            parent = None if k == 1 else parent_of[members[0]]
            node = len(hierarchy.nodes)
            hierarchy.nodes.append(
                HierarchyNode(k=k, vertices=set(members), parent=parent)
            )
            if parent is not None:
                hierarchy.nodes[parent].children.append(node)
            for label in members:
                level_parent_of[label] = node
        hierarchy.max_k = k
        parent_of = level_parent_of
        k += 1
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

    __slots__ = ("_indexes", "_mmap")

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
        self._mmap = None

    @property
    def measures(self) -> Tuple[str, ...]:
        """The persisted measure names, canonical order."""
        return tuple(self._indexes)

    @property
    def is_mmap(self) -> bool:
        """True while the measure sections view a live file mapping."""
        return self._mmap is not None

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
        """The exact bytes :meth:`save` would write (for byte-compare
        rewrites, same contract as :meth:`HierarchyIndex.to_bytes`)."""
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
    def load(cls, path, mmap: bool = False) -> "CohesionIndex":
        """Read a container written by :meth:`save`.

        ``mmap=True`` maps the file once and parses each embedded
        measure stream zero-copy out of the shared mapping (O(header)
        cold start, pages shared across processes); the default parses
        everything eagerly.  Rejects wrong magic, wrong container
        version, truncation, and malformed directories loudly - and
        every embedded stream re-runs the full ``KVCCIDX`` validation.
        """
        if mmap and _MMAP_ZERO_COPY:
            return cls._load_mmap(path)
        with open(path, "rb") as handle:
            blob = handle.read()
        directory = cls._parse_directory(blob, path)
        indexes = {
            entry["name"]: HierarchyIndex.from_buffer(
                cls._payload_slice(blob, entry, path), path
            )
            for entry in directory
        }
        return cls(indexes)

    @classmethod
    def _load_mmap(cls, path) -> "CohesionIndex":
        """Map ``path`` once; each measure views the shared mapping."""
        with open(path, "rb") as handle:
            try:
                mapped = _mmap.mmap(
                    handle.fileno(), 0, access=_mmap.ACCESS_READ
                )
            except ValueError:
                raise ValueError(
                    f"{path}: truncated cohesion index header"
                ) from None
        try:
            directory = cls._parse_directory(mapped, path)
            view = memoryview(mapped)
            indexes = {}
            for entry in directory:
                index = HierarchyIndex.from_buffer(
                    cls._payload_slice(view, entry, path),
                    path,
                    zero_copy=True,
                )
                # Each embedded index reports (and participates in
                # releasing) the shared mapping; close() materializes
                # first and refcounting keeps siblings safe.
                index._mmap = mapped
                indexes[entry["name"]] = index
        except ValueError:
            mapped.close()
            raise
        container = cls(indexes)
        container._mmap = mapped
        return container

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

    def close(self) -> None:
        """Detach every measure from the file mapping (idempotent)."""
        for index in self._indexes.values():
            index.close()
        mapped, self._mmap = self._mmap, None
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:
                # A reader still exports a view; refcounting closes the
                # mapping once the last view dies.
                pass


def build_cohesion_index(
    graph,
    max_k: Optional[int] = None,
    options: Optional[KVCCOptions] = None,
) -> CohesionIndex:
    """Graph in, multi-measure cohesion index out.

    The k-VCC forest runs on the CSR hierarchy engine, exactly as
    :func:`~repro.index.store.build_index`; the k-ECC and k-core
    forests iterate the reference enumerators level by level via
    :func:`build_measure_hierarchy`.
    All three flatten under the *same* CSR interner, so every measure
    indexes every graph vertex under identical dense ids and the
    container shares one label universe.

    Accepts a dict :class:`~repro.graph.graph.Graph` or a
    :class:`~repro.graph.csr.CSRGraph` base.
    """
    if isinstance(graph, CSRGraph):
        base = graph
        dict_graph = base.to_graph()
    else:
        base = graph.to_csr()
        dict_graph = graph
    indexes = {
        "kvcc": HierarchyIndex.from_hierarchy(
            build_hierarchy_csr(base, max_k=max_k, options=options),
            base.interner,
        )
    }
    for measure in ("kecc", "kcore"):
        indexes[measure] = HierarchyIndex.from_hierarchy(
            build_measure_hierarchy(dict_graph, measure, max_k=max_k),
            base.interner,
        )
    return CohesionIndex(indexes)


def load_cohesion_index(path, mmap: bool = False) -> CohesionIndex:
    """Convenience alias for :meth:`CohesionIndex.load`."""
    return CohesionIndex.load(path, mmap=mmap)


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


def load_any_index(path, mmap: bool = True):
    """Magic-sniffing loader: plain or multi-measure, one entry point.

    A ``KVCCCOH`` file loads as a :class:`CohesionIndex`; anything else
    takes the single-measure path through
    :func:`~repro.index.delta.load_effective_index`, so plain datasets
    keep their delta-log overlay semantics.  This is what the serving
    registry and the sharder call, making every consumer of "an index
    file" format-agnostic.
    """
    if is_cohesion_file(path):
        return CohesionIndex.load(path, mmap=mmap)
    from repro.index.delta import load_effective_index

    return load_effective_index(path, mmap=mmap)


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
    def from_file(cls, path, mmap: bool = False) -> "CohesionQueryService":
        """Load a saved container and wrap it in a query service."""
        return cls(CohesionIndex.load(path, mmap=mmap))

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
