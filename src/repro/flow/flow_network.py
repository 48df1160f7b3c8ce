"""The directed flow graph of Section 4.1 (Figure 3).

Construction
------------
Given the undirected graph ``G`` with ``n`` vertices and ``m`` edges:

* each vertex ``v`` is split into ``v_in = 2 * idx(v)`` and
  ``v_out = 2 * idx(v) + 1`` joined by an *internal* arc
  ``v_in -> v_out`` with capacity 1;
* each undirected edge ``(u, v)`` becomes *adjacency* arcs
  ``u_out -> v_in`` and ``v_out -> u_in``.

The paper assigns capacity 1 to every arc.  We give adjacency arcs
capacity ``k`` instead (any value >= k behaves like infinity because the
flow is capped at ``k``): the max-flow value is unchanged - an integral
flow still decomposes into internally-vertex-disjoint paths because the
internal caps are 1 - but every saturated arc crossing a < k cut is then
guaranteed to be an internal arc, so the residual cut maps 1:1 onto a
vertex cut with no corner cases.  This is the classic Even-Tarjan
construction.

Representation
--------------
A flat arc *arena*: parallel arrays ``head`` / ``cap`` /
``initial_cap`` indexed by arc id, with arc ``2i+1`` the reverse of arc
``2i`` (so the tail of arc ``a`` is ``head[a ^ 1]``).  There is
deliberately no adjacency structure on the network itself: per-node arc
indexes (per-tail lists for the python kernel, an int32 CSR over arc
ids for the c kernel) are *derived* state that the selected
:mod:`repro.kernels` implementation builds once per network and caches
in ``_kern_state``, beside its reusable BFS/DFS scratch.  LOC-CUT runs
many max-flow queries on the *same* network (one per tested vertex
pair), so :meth:`FlowNetwork.reset` restores all capacities in O(arcs
touched) using a dirty list instead of rebuilding, and the cached
state survives across queries.

Bulk construction (:func:`build_flow_network` on a view or certificate)
is also a kernel call, and both kernels produce the identical arc-id
layout.  The python kernel fills plain lists (its scalar DFS indexes
them directly, and CPython lists index fastest); the c kernel writes
``array('i')`` buffers that its compiled Dinic then updates in place.
Either way every push appends its arc to ``_touched``, so ``cap``
always holds the residual state and :meth:`FlowNetwork.reset` works on
both.
"""

from __future__ import annotations

from typing import List, Union

import repro.kernels as kernels
from repro.graph.csr import IntAdjacency, SubgraphView


class FlowNetwork:
    """Arena-based residual network specialized for unit vertex capacities.

    Attributes
    ----------
    num_nodes:
        ``2n``: in/out node per original vertex.
    head / cap / initial_cap:
        The flat arc arrays (arc id -> target node / residual capacity /
        original capacity): plain lists from the python kernel's
        builders, ``array('i')`` buffers from the c kernel's.
    to_index / to_vertex:
        Bijection between base vertex ids and dense indices:
        ``to_index`` is a dense list keyed by base id (``-1`` for ids
        outside the network), ``to_vertex`` the ids in index order.
    """

    __slots__ = (
        "num_nodes",
        "head",
        "cap",
        "initial_cap",
        "to_index",
        "to_vertex",
        "_touched",
        "_kern_state",
    )

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.head: List[int] = []         # arc id -> target node
        self.cap: List[int] = []          # arc id -> residual capacity
        self.initial_cap: List[int] = []  # arc id -> original capacity
        self.to_index: List[int] = []
        self.to_vertex: List[int] = []
        self._touched: List[int] = []
        #: Kernel-owned derived state (adjacency indexes, scratch
        #: buffers), keyed by kernel name; built on first use, after
        #: :func:`build_flow_network` has filled the arena.
        self._kern_state: dict = {}

    # ------------------------------------------------------------------
    def push(self, arc_id: int, amount: int) -> None:
        """Send ``amount`` units along ``arc_id`` (updates the reverse arc)."""
        self.cap[arc_id] -= amount
        self.cap[arc_id ^ 1] += amount
        self._touched.append(arc_id)

    def reset(self) -> None:
        """Restore every touched arc to its initial capacity (O(pushes))."""
        for arc_id in self._touched:
            self.cap[arc_id] = self.initial_cap[arc_id]
            self.cap[arc_id ^ 1] = self.initial_cap[arc_id ^ 1]
        self._touched.clear()

    # ------------------------------------------------------------------
    # Node naming helpers
    # ------------------------------------------------------------------
    def node_in(self, v: int) -> int:
        """The ``v_in`` node (head of the internal arc) for vertex ``v``."""
        return 2 * self.to_index[v]

    def node_out(self, v: int) -> int:
        """The ``v_out`` node (tail of the internal arc) for vertex ``v``."""
        return 2 * self.to_index[v] + 1

    def vertex_of_node(self, node: int) -> int:
        """The original vertex whose split produced ``node``."""
        return self.to_vertex[node // 2]

    def internal_arc(self, v: int) -> int:
        """Arc id of ``v_in -> v_out``.

        Internal arcs are added first, one per vertex in index order, so
        vertex ``i``'s internal arc pair occupies ids ``2i`` and ``2i+1``.
        """
        return 2 * self.to_index[v]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowNetwork(nodes={self.num_nodes}, arcs={len(self.head) // 2})"
        )


def build_flow_network(
    graph: Union[SubgraphView, IntAdjacency], k: int
) -> FlowNetwork:
    """Build the directed flow graph of ``graph`` for threshold ``k``.

    Internal arcs get capacity 1; adjacency arcs get capacity ``k``
    (equivalent to infinity for flows capped at ``k``; see the module
    docstring for why this preserves the max-flow value while simplifying
    cut extraction).

    The result has ``2n`` nodes and ``n + 2m`` forward arcs, exactly the
    sizes quoted in Example 4 of the paper (for its all-capacity-1
    variant).  ``graph`` is a CSR view or a sparse certificate's
    :class:`~repro.graph.csr.IntAdjacency`; either way the selected
    kernel's bulk arc builder fills the arena.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if isinstance(graph, SubgraphView):
        verts = list(graph.active_list())
        net = _dense_skeleton(verts, graph.base.n)
        kernels.select().flow_arcs_from_view(net, graph, k)
        return net
    verts = list(graph.verts)
    net = _dense_skeleton(verts, graph.n)
    kernels.select().flow_arcs_from_rows(net, graph, k)
    return net


def _dense_skeleton(verts: List[int], n_base: int) -> FlowNetwork:
    """An arc-less network over ``verts`` with a dense list ``to_index``.

    Compact node ids come from indexing a dense list by base id, with
    no hashing.  The list is a C-level ``[-1] * n_base`` fill; only the
    members' entries are written.  The kernel arc builders fill the
    arena (internal arcs included).
    """
    net = FlowNetwork(2 * len(verts))
    net.to_vertex = verts
    lookup = [-1] * n_base
    for i, v in enumerate(verts):
        lookup[v] = i
    net.to_index = lookup
    return net
