"""Max-flow machinery for local vertex connectivity (Section 4.1).

The paper converts vertex connectivity into edge connectivity through the
*directed flow graph* (Figure 3): every vertex ``v`` of the original graph
becomes an internal arc ``v_in -> v_out`` of capacity 1, and every
undirected edge ``(u, v)`` becomes the pair of arcs ``u_out -> v_in`` and
``v_out -> u_in``.  The maximum flow from ``u_out`` to ``v_in`` then equals
the local vertex connectivity ``kappa(u, v)``, and a minimum cut maps back
to a minimum u-v vertex cut (Menger / Even-Tarjan).

Modules
-------
``flow_network``
    The vertex-splitting transform and a compact array-based residual
    network with O(1) flow reset between queries.
``dinic``
    Dinic's algorithm with early termination once the flow reaches ``k``
    (only ``kappa >= k`` vs ``kappa < k`` matters to LOC-CUT).
``min_cut``
    Residual-reachability extraction of the vertex cut.
"""

from repro.flow.flow_network import FlowNetwork, build_flow_network
from repro.flow.dinic import max_flow_min_k
from repro.flow.min_cut import (
    local_vertex_cut,
    minimum_vertex_cut_from_residual,
)

__all__ = [
    "FlowNetwork",
    "build_flow_network",
    "max_flow_min_k",
    "local_vertex_cut",
    "minimum_vertex_cut_from_residual",
]
