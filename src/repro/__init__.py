"""repro - Enumerating k-Vertex Connected Components in Large Graphs.

A full reproduction of Wen, Qin, Lin, Zhang, Chang (ICDE 2019):
polynomial-time enumeration of all k-VCCs via overlapped graph partition,
with the paper's neighbor-sweep and group-sweep pruning strategies, the
baselines it compares against (k-core, k-ECC), and the complete
experimental harness (Figures 7-14, Tables 1-2).

Quickstart
----------
>>> from repro import Graph, enumerate_kvccs
>>> g = Graph([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
>>> [sorted(c.vertices()) for c in enumerate_kvccs(g, 2)]
[[0, 1, 2, 3]]

See ``examples/`` for realistic scenarios and ``docs/ARCHITECTURE.md``
for the module map and data flow.
"""

from repro.graph import Graph
from repro.graph.core_decomposition import core_number, k_core
from repro.core import (
    KVCCOptions,
    RunStats,
    VARIANTS,
    enumerate_kvccs,
    enumerate_kvccs_sweep,
    build_overlap_graph,
    is_k_connected,
    local_connectivity,
    minimum_vertex_cut,
    overlap_partition,
    vccs_containing,
    vcce,
    vcce_g,
    vcce_n,
    vcce_star,
    vertex_connectivity,
)
from repro.graph.biconnected import (
    articulation_points,
    biconnected_components,
    two_vccs,
)
from repro.core.kvcc import kvcc_vertex_sets
from repro.core.hierarchy import (
    KVCCHierarchy,
    build_hierarchy,
    build_hierarchy_csr,
    vcc_number,
)
from repro.core.kvcc import enumerate_kvccs_csr
from repro.core.verify import VerificationReport, verify_kvccs
from repro.data import load_graph, load_graph_csr, resolve_dataset
from repro.index import (
    HierarchyIndex,
    HierarchyQueryService,
    build_index,
    load_index,
)
from repro.baselines import k_core_components, k_ecc_components

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "core_number",
    "k_core",
    "KVCCOptions",
    "RunStats",
    "VARIANTS",
    "enumerate_kvccs",
    "kvcc_vertex_sets",
    "vccs_containing",
    "is_k_connected",
    "local_connectivity",
    "minimum_vertex_cut",
    "vertex_connectivity",
    "enumerate_kvccs_sweep",
    "build_overlap_graph",
    "overlap_partition",
    "articulation_points",
    "biconnected_components",
    "two_vccs",
    "vcce",
    "vcce_n",
    "vcce_g",
    "vcce_star",
    "k_core_components",
    "k_ecc_components",
    "KVCCHierarchy",
    "build_hierarchy",
    "build_hierarchy_csr",
    "vcc_number",
    "HierarchyIndex",
    "HierarchyQueryService",
    "build_index",
    "load_index",
    "VerificationReport",
    "verify_kvccs",
    "enumerate_kvccs_csr",
    "load_graph",
    "load_graph_csr",
    "resolve_dataset",
    "__version__",
]
