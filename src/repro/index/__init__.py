"""Persistent k-VCC hierarchy index and O(1) online query layer.

The decomposition-then-serve pattern: run the (expensive, flow-based)
hierarchy construction **once**, persist the resulting forest in a
compact array-backed file, and answer membership / connectivity-level
queries from the loaded index in constant time - no flow computation,
no graph traversal, no re-enumeration per query.

* :class:`~repro.index.store.HierarchyIndex` - the array-backed form of
  a :class:`~repro.core.hierarchy.KVCCHierarchy` (interner labels,
  per-level component membership as sorted id runs, parent pointers,
  per-vertex vcc-numbers) with a versioned binary ``save``/``load``;
  ``load(path, mmap=True)`` maps the sections zero-copy so a cold
  process is query-ready in O(header);
* :func:`~repro.index.store.build_index` - graph in, index out (CSR
  hierarchy construction plus packing);
* :class:`~repro.index.query.HierarchyQueryService` - the online
  answer layer: ``vcc_number``, ``components_of``, ``same_kvcc``,
  ``max_shared_level``, plus batch forms (``vcc_numbers``,
  ``same_kvcc_many``, ``max_shared_levels``) that amortize per-call
  overhead for high-traffic callers.

CLI: ``repro hierarchy graph.txt --save-index graph.kvccidx`` writes
the file, ``repro query <subcommand> graph.kvccidx ...`` reads it, and
``repro serve`` (:mod:`repro.service`) keeps a multi-dataset HTTP
process resident over it.

Examples
--------
>>> from repro import Graph
>>> from repro.index import build_index, HierarchyQueryService
>>> g = Graph([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3), (3, 4)])
>>> service = HierarchyQueryService(build_index(g))
>>> service.vcc_number(0), service.vcc_number(4)
(3, 1)
>>> service.same_kvcc(0, 1, 3), service.same_kvcc(0, 4, 2)
(True, False)
>>> service.max_shared_level(0, 4)
1
"""

from repro.index.store import (
    FORMAT_VERSION,
    HierarchyIndex,
    build_index,
    load_index,
)
from repro.index.cohesion import (
    COHESION_FORMAT_VERSION,
    MEASURES,
    CohesionIndex,
    CohesionQueryService,
    build_cohesion_index,
    load_any_index,
    load_cohesion_index,
    sniff_measures,
)
from repro.index.delta import (
    IndexUpdater,
    delta_log_path,
    load_effective_index,
)
from repro.index.query import HierarchyQueryService

__all__ = [
    "COHESION_FORMAT_VERSION",
    "CohesionIndex",
    "CohesionQueryService",
    "FORMAT_VERSION",
    "HierarchyIndex",
    "HierarchyQueryService",
    "IndexUpdater",
    "MEASURES",
    "build_cohesion_index",
    "build_index",
    "delta_log_path",
    "load_any_index",
    "load_cohesion_index",
    "load_effective_index",
    "load_index",
    "sniff_measures",
]
