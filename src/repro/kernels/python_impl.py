"""Pure-stdlib reference kernels (always available).

This module is the semantic ground truth: every loop here is the
library's original hot-loop code, reorganized onto the flat arc arena of
:class:`~repro.flow.flow_network.FlowNetwork` and micro-optimized
(scratch buffers cleared by slice assignment instead of Python loops,
inner-loop bounds hoisted into locals, inlined pushes).  The c kernel
(:mod:`repro.kernels.c_impl`) must match it result for result, in the
same order.

Flow-network layout
-------------------
The arena stores arcs as parallel flat lists ``head`` / ``cap`` /
``initial_cap`` indexed by arc id (reverse arc = ``id ^ 1``, so the
tail of arc ``a`` is ``head[a ^ 1]``).  Adjacency is *derived* kernel
state: this kernel groups arc ids into per-tail lists (``adj``), built
once per network and cached on ``net._kern_state["python"]`` together
with the reusable ``level`` / ``iter_idx`` scratch buffers (one pair per
network, not per query).  Because ``adj[t]`` collects arc ids in
creation order, each node's arcs are visited in ascending id order -
the order the c kernel's counting sort by tail produces, which is what
keeps the two kernels' cut choices byte-identical.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Set

NAME = "python"


# ----------------------------------------------------------------------
# Flow-network kernels
# ----------------------------------------------------------------------
def prepare_network(net) -> dict:
    """Adjacency index + scratch buffers for ``net`` (cached per network)."""
    st = net._kern_state.get(NAME)
    if st is None:
        n = net.num_nodes
        head = net.head
        adj: List[List[int]] = [[] for _ in range(n)]
        for aid in range(len(head)):
            adj[head[aid ^ 1]].append(aid)
        st = {
            "adj": adj,
            "level": [-1] * n,
            "iter": [0] * n,
            "neg1": [-1] * n,
            "zeros": [0] * n,
        }
        net._kern_state[NAME] = st
    return st


def flow_arcs_from_view(net, view, k: int) -> None:
    """Fill ``net``'s arc arena from a CSR subgraph view."""
    _fill_arcs(net, view.base.rows, view.active_list(), k, masked=True)


def flow_arcs_from_rows(net, graph, k: int) -> None:
    """Fill ``net``'s arc arena from an ``IntAdjacency`` (certificate)."""
    _fill_arcs(net, graph.adj, graph.verts, k, masked=False)


def _fill_arcs(net, rows, verts, k: int, masked: bool) -> None:
    """Append internal arcs then adjacency arc quads (flat arrays only).

    Layout: internal arc of vertex index ``i`` at ids ``2i``/``2i+1``,
    then one quad per undirected edge in (vertex order, row order), each
    arc followed by its zero-capacity reverse.  ``masked=True`` skips
    row entries whose ``to_index`` is -1 (inactive in the view).
    """
    lookup = net.to_index
    head = net.head
    cap = net.cap
    initial_cap = net.initial_cap
    for i in range(len(verts)):
        ii = 2 * i
        head.extend((ii + 1, ii))
        cap.extend((1, 0))
        initial_cap.extend((1, 0))
    caps4 = (k, 0, k, 0)
    for v in verts:
        out_v = 2 * lookup[v] + 1
        for w in rows[v]:
            if w > v and (not masked or lookup[w] >= 0):
                in_w = 2 * lookup[w]
                # Arc quad per undirected edge: v_out -> w_in and
                # w_out -> v_in, each followed by its zero-cap reverse.
                head.extend((in_w, out_v, out_v - 1, in_w + 1))
                cap.extend(caps4)
                initial_cap.extend(caps4)


def max_flow(net, source: int, sink: int, k: int) -> int:
    """Dinic's algorithm capped at ``k`` (phases of BFS + blocking DFS).

    Leaves the residual state in place (for cut extraction) exactly like
    the pre-kernel implementation; ``net.reset()`` restores it.
    """
    st = prepare_network(net)
    adj = st["adj"]
    level = st["level"]
    iter_idx = st["iter"]
    cap = net.cap
    head = net.head
    flow = 0
    while flow < k:
        if not _bfs_levels(adj, head, cap, level, st["neg1"], source, sink):
            break
        iter_idx[:] = st["zeros"]
        while flow < k:
            pushed = _dfs_blocking(
                adj, head, cap, level, iter_idx,
                net._touched, source, sink, k - flow,
            )
            if pushed == 0:
                break
            flow += pushed
    return flow


def _bfs_levels(adj, head, cap, level, neg1, source, sink) -> bool:
    """Layered BFS on the residual graph; True if the sink is reachable.

    The frontier is a plain list iterated while it grows (CPython list
    iterators follow appends), and the visited test runs before the
    capacity load - on a mostly-labeled residual graph that skips one
    list index per arc.
    """
    level[:] = neg1
    level[source] = 0
    queue = [source]
    for u in queue:
        lu = level[u] + 1
        for arc_id in adj[u]:
            v = head[arc_id]
            if level[v] < 0 and cap[arc_id] > 0:
                level[v] = lu
                if v == sink:
                    return True
                queue.append(v)
    return False


def _dfs_blocking(
    adj, head, cap, level, iter_idx, touched, source, sink, limit
) -> int:
    """One augmenting path along the level graph (iterative DFS).

    ``iter_idx`` implements Dinic's current-arc optimization: arcs
    already proven useless in this phase are never rescanned.  The arc
    cursor, row bound and target level are carried in locals and written
    back only when the walk leaves a node.
    """
    path: List[int] = []  # arc ids along the current partial path
    node = source
    while True:
        if node == sink:
            pushed = limit
            for arc_id in path:
                c = cap[arc_id]
                if c < pushed:
                    pushed = c
            for arc_id in path:
                cap[arc_id] -= pushed
                cap[arc_id ^ 1] += pushed
            touched.extend(path)
            return pushed
        arcs = adj[node]
        j = iter_idx[node]
        end = len(arcs)
        target = level[node] + 1
        advanced = False
        while j < end:
            arc_id = arcs[j]
            v = head[arc_id]
            if level[v] == target and cap[arc_id] > 0:
                iter_idx[node] = j
                path.append(arc_id)
                node = v
                advanced = True
                break
            j += 1
        if advanced:
            continue
        # Dead end: retreat, marking the node unusable for this phase.
        iter_idx[node] = j
        level[node] = -1
        if not path:
            return 0
        arc_id = path.pop()
        node = head[arc_id ^ 1]  # tail of the arc we came through
        iter_idx[node] += 1


def residual_reachable(net, source: int) -> bytearray:
    """Byte mask of nodes reachable from ``source`` via residual arcs."""
    st = prepare_network(net)
    adj = st["adj"]
    cap = net.cap
    head = net.head
    seen = bytearray(net.num_nodes)
    seen[source] = 1
    queue = [source]
    for u in queue:
        for arc_id in adj[u]:
            if cap[arc_id] > 0:
                w = head[arc_id]
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
    return seen


# ----------------------------------------------------------------------
# Subgraph-view kernels
# ----------------------------------------------------------------------
def peel(view, k: int) -> Set[int]:
    """In-place k-core peel of a CSR view; returns the removed id set.

    Queue-driven: each removed vertex is dequeued once and each incident
    edge decrements its surviving endpoint once (O(active + touched
    edges)).
    """
    mask = view.mask
    deg = view.deg
    rows = view.base.rows
    queue: List[int] = [v for v in view.active_list() if deg[v] < k]
    for v in queue:
        mask[v] = 0
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for w in rows[u]:
            if mask[w]:
                d = deg[w] - 1
                deg[w] = d
                if d < k:
                    mask[w] = 0
                    queue.append(w)
    view._n_active -= len(queue)
    if queue and view._verts is not None:
        view._verts = [v for v in view._verts if mask[v]]
    return set(queue)


def active_ids(mask) -> List[int]:
    """Indices of the 1-bytes of ``mask``, ascending."""
    return [v for v, m in enumerate(mask) if m]


def active_degrees(base, mask, members) -> List[int]:
    """Active-degree array (full base length) for the ``members`` ids."""
    deg = [0] * base.n
    rows = base.rows
    active = mask.__getitem__
    for v in members:
        deg[v] = sum(map(active, rows[v]))
    return deg


def components(view, removed) -> List[Set[int]]:
    """Components of a CSR view minus ``removed``, list-queue BFS.

    Deterministic: discovery follows ``active_list`` order, expansion
    follows row order; components come back as sets, so only the outer
    list order is observable.
    """
    base = view.base
    rows, mask = base.rows, view.mask
    seen = bytearray(base.n)
    if removed:
        for v in removed:
            if 0 <= v < base.n:
                seen[v] = 1
    out: List[Set[int]] = []
    for start in view.active_list():
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        head = 0
        while head < len(comp):
            u = comp[head]
            head += 1
            for w in rows[u]:
                if mask[w] and not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        out.append(set(comp))
    return out


def certificate(view, k: int):
    """The sparse certificate of a CSR view (Theorem 5), in pieces.

    Returns ``(graph, forests, None)``: up to ``k`` scan-first forests
    (the compacted-slot FIFO scan of
    :mod:`repro.certificate.scan_first_search`, each on the view minus
    the earlier forests' edges, stopping after the first empty one),
    their union as an :class:`~repro.graph.csr.IntAdjacency`, and no
    side-groups (:mod:`repro.certificate` derives them from ``F_k``).
    Row order is the observable contract, since rows fix arc ids and
    arc ids fix cut choices: each edge appends to both endpoint rows as
    it streams by.
    """
    # Local imports: the certificate package type-imports the CSR
    # module, which imports the kernel seam at load time.
    from repro.certificate.scan_first_search import (
        compact_view_adjacency,
        scan_first_forest_csr,
    )
    from repro.graph.csr import IntAdjacency

    verts, arows, aptr, total = compact_view_adjacency(view)
    used = bytearray(total)
    forests = []
    for _ in range(k):
        forest = scan_first_forest_csr(verts, arows, aptr, used, view.base.n)
        forests.append(forest)
        if not forest:
            break
    graph = IntAdjacency(view.base.n, verts)
    for forest in forests:
        graph.add_edges(forest)
    return graph, forests, None


def farthest_first(work, source: int) -> List[int]:
    """Phase-1 vertex order of GLOBAL-CUT* (Algorithm 3, line 11).

    ``work``'s vertices by BFS distance from ``source``, farthest first
    (a stable sort, so ties keep ``work.vertices()`` order).
    Unreachable vertices (disconnected input) sort in front: their flow
    test immediately yields the empty cut, splitting the graph.
    """
    from repro.graph.connectivity import bfs_distances

    dist = bfs_distances(work, source)
    far = 1 + (max(dist.values()) if dist else 0)
    return sorted(work.vertices(), key=lambda v: -dist.get(v, far))


def strong_side_vertices(view, k: int, candidates=None) -> Set[int]:
    """All strong side-vertices of ``view`` (restricted to ``candidates``).

    ``candidates=None`` scans every active vertex; otherwise the
    candidates that are active in ``view`` are scanned in their
    iteration order, and the set is filled in scan order.

    A vertex's active neighbor set and its pair verdicts depend only on
    the subgraph, not on which vertex ``u`` is being certified, so one
    scan shares both caches across all checks instead of rebuilding
    them per vertex (the Lemma 14 cost is per *scan* here, not per scan
    times average degree).
    """
    rows, mask = view.base.rows, view.mask
    active = mask.__getitem__
    n = len(mask)
    if candidates is None:
        pool = view.vertices()
    else:
        pool = (v for v in candidates if 0 <= v < n and mask[v])

    nbr_sets: Dict[int, Set[int]] = {}
    pair_ok: Dict[tuple, bool] = {}
    strong: Set[int] = set()
    for u in pool:
        nbrs = list(filter(active, rows[u]))
        if len(nbrs) < 2:
            strong.add(u)  # no pairs to violate the condition
            continue
        ok = True
        # Pair testing via set algebra: ``remaining`` holds the
        # not-yet-anchored neighbors, so each unordered pair is examined
        # exactly once, and the adjacent screen is one C-level subset
        # probe instead of a Python pair loop.
        remaining = set(nbrs)
        for v in nbrs:
            remaining.discard(v)
            if not remaining:
                break
            v_nbrs = nbr_sets.get(v)
            if v_nbrs is None:
                v_nbrs = set(filter(active, rows[v]))
                nbr_sets[v] = v_nbrs
            if remaining.issubset(v_nbrs):
                continue
            # Non-adjacent leftovers are rare and few, so counting
            # |N(v) ∩ N(w)| directly with an early exit at k beats
            # materializing v's whole k-common-partner set (a Lemma-13
            # walk over every 2-hop neighbor); verdicts are cached per
            # unordered pair since anchors share neighbors.
            for w in remaining - v_nbrs:
                key = (v, w) if v < w else (w, v)
                verdict = pair_ok.get(key)
                if verdict is None:
                    count = 0
                    for x in rows[w]:
                        if x in v_nbrs:
                            count += 1
                            if count >= k:
                                break
                    verdict = count >= k
                    pair_ok[key] = verdict
                if not verdict:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            strong.add(u)
    return strong


def sort_segments(indptr, flat) -> array:
    """Sort each ``flat[indptr[i]:indptr[i+1]]`` segment ascending.

    Returns the concatenated sorted rows as an ``array('l')`` - the
    ``indices`` buffer of a CSR build.
    """
    indices = array("l", flat)
    for i in range(len(indptr) - 1):
        a, b = indptr[i], indptr[i + 1]
        if b - a > 1:
            indices[a:b] = array("l", sorted(flat[a:b]))
    return indices
