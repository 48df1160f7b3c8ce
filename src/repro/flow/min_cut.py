"""Minimum u-v vertex cut extraction (LOC-CUT lines 14-17).

After :func:`~repro.flow.dinic.max_flow_min_k` terminates with a flow
value ``lambda < k``, the residual network encodes a minimum edge cut of
the directed flow graph.  Because adjacency arcs carry capacity ``k``
(more than the total flow) they can never be saturated, so every arc that
crosses the cut is an internal arc ``w_in -> w_out`` - and those ``w``
form a minimum u-v **vertex** cut of the original graph (Definition 5).

The extraction is a single BFS over residual arcs from the source: the
cut vertices are exactly the ``w`` whose ``w_in`` is reachable but
``w_out`` is not.
"""

from __future__ import annotations

from typing import Optional, Set

import repro.kernels as kernels
from repro.flow.dinic import max_flow_min_k
from repro.flow.flow_network import FlowNetwork
from repro.graph.csr import SubgraphView


def minimum_vertex_cut_from_residual(
    net: FlowNetwork, source: int
) -> Set[int]:
    """The vertex cut encoded by the current residual state.

    Must be called after a max-flow run that terminated with value < k
    (i.e. the sink is unreachable in the residual graph); otherwise the
    returned set is meaningless.
    """
    reachable = kernels.select().residual_reachable(net, source)
    cut: Set[int] = set()
    # Internal arc of vertex index i is arc id 2i: i_in -> i_out.
    for idx, vertex in enumerate(net.to_vertex):
        if reachable[2 * idx] and not reachable[2 * idx + 1]:
            cut.add(vertex)
    return cut


def local_vertex_cut(
    graph: SubgraphView,
    net: FlowNetwork,
    u: int,
    v: int,
    k: int,
) -> Optional[Set[int]]:
    """LOC-CUT (Algorithm 2, lines 12-17): a u-v vertex cut of size < k.

    Returns ``None`` when ``u ≡k v`` - that is, when ``v`` is ``u`` itself
    or a neighbor of ``u`` (Lemma 5), or when the max flow reaches ``k``.
    Otherwise returns a minimum u-v vertex cut, whose size equals the flow
    value (< k).

    The network's residual state is reset on exit, so the same ``net``
    can serve the next query.
    """
    if u == v or graph.has_edge(u, v):
        return None
    source = net.node_out(u)
    sink = net.node_in(v)
    try:
        flow = max_flow_min_k(net, source, sink, k)
        if flow >= k:
            return None
        cut = minimum_vertex_cut_from_residual(net, source)
    finally:
        net.reset()
    return cut
