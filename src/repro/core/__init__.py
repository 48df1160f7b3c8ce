"""The paper's primary contribution: k-VCC enumeration.

Public entry points
-------------------
:func:`~repro.core.kvcc.enumerate_kvccs`
    Algorithm 1 (KVCC-ENUM): all k-VCCs of a graph, with the optimization
    level selected by :class:`~repro.core.options.KVCCOptions`.
:func:`~repro.core.kvcc.vccs_containing`
    The case-study query (Section 6.4): all k-VCCs containing a vertex.
:mod:`~repro.core.variants`
    The four named configurations of the experiments (VCCE, VCCE-N,
    VCCE-G, VCCE*).
:mod:`~repro.core.connectivity_api`
    Whole-graph helpers: ``is_k_connected``, ``vertex_connectivity``.
:mod:`~repro.core.engine`
    The serial driver that drains the KVCC-ENUM worklist.
:mod:`~repro.core.outofcore`
    Component-at-a-time enumeration over an mmap CSR under a memory
    budget (``enumerate_kvccs_outofcore``).
"""

from repro.core.options import KVCCOptions
from repro.core.outofcore import (
    enumerate_kvccs_outofcore,
    streaming_components,
)
from repro.core.stats import RssTracker, RunStats, max_rss_bytes
from repro.core.engine import SerialEngine
from repro.core.kvcc import enumerate_kvccs, vccs_containing
from repro.core.partition import overlap_partition
from repro.core.global_cut import global_cut
from repro.core.connectivity_api import (
    is_k_connected,
    local_connectivity,
    minimum_vertex_cut,
    vertex_connectivity,
)
from repro.core.ksweep import enumerate_kvccs_sweep
from repro.core.overlap_graph import OverlapGraph, build_overlap_graph
from repro.core.variants import (
    VARIANTS,
    vcce,
    vcce_g,
    vcce_n,
    vcce_star,
)

__all__ = [
    "KVCCOptions",
    "RssTracker",
    "RunStats",
    "SerialEngine",
    "enumerate_kvccs",
    "enumerate_kvccs_outofcore",
    "max_rss_bytes",
    "streaming_components",
    "vccs_containing",
    "overlap_partition",
    "global_cut",
    "is_k_connected",
    "local_connectivity",
    "minimum_vertex_cut",
    "vertex_connectivity",
    "enumerate_kvccs_sweep",
    "OverlapGraph",
    "build_overlap_graph",
    "VARIANTS",
    "vcce",
    "vcce_g",
    "vcce_n",
    "vcce_star",
]
