"""Numpy fast-path kernels (optional; selected when numpy imports).

Result-identical to :mod:`repro.kernels.python_impl` - same max-flow
values, residual states, min-cut sets, masks, degrees, forests and
sorted rows - and each loop runs as an array program only at the input
sizes where that measured faster than the reference:

* flow-network construction emits all arc quads with vectorized
  selects/gathers instead of a per-edge Python loop;
* Dinic's layered BFS, on networks of ``_SCALAR_ARCS`` arcs or more
  (``len(net.head)``), expands whole frontiers over positional arc
  slices (``arc_indptr`` over arc ids sorted by tail), against
  position-space mirrors of the head and capacity arrays, and keeps
  each level's admissible arcs as it goes; smaller networks run the
  python kernel's Dinic, and so does :func:`residual_reachable`, so a
  network only ever builds one kernel's state;
* active-degree recounts are a row gather plus a ``bincount``;
* scan-first forests expand frontiers of more than ``_SCALAR_FRONTIER``
  vertices level-synchronously;
* segment sorts of ``_SCALAR_SEGMENTS`` values or more are one argsort.

k-core peeling, connected components and the certificate's forest
fill are the python kernel's own functions.  The array peel was slower
at every size the workloads reach; the array components saved under
1% of an ``enumerate`` pass and ran about 3x slower on the ``build``
root, too little to keep a second implementation.  The crossover
table behind ``_SCALAR_ARCS`` comes from
``benchmarks/bench_backend_compare.py --crossover``.

Every kernel here gathers from and scatters to the view's active ids
only: base-length buffers are C-level fills (``np.full``,
``bytearray``, ``[0] * n``), never per-element Python objects, so a
step over a small view of a large base costs O(view).

The blocking-flow DFS stays a scalar Python walk in both kernels (its
path-at-a-time control flow does not batch).  Here it walks a pruned
level graph: a sweep back from the sink over the BFS's per-level arc
lists keeps only the arcs whose head still reaches the sink, packed
into compact per-node slices, and dead ends are marked in a byte mask.
A query on an untouched network (``_touched`` empty, as after
``reset()``) takes its first phase from its source's full BFS over
``initial_cap``, computed once per (network, source) and kept in the
network's kernel state, so it is freed with the network.

Storage discipline: the arena's ``cap`` stays a plain list (scalar DFS
indexing dominates, and lists index faster than any buffer type); the
BFS keeps a private int32 *mirror* of it, re-synced before each sweep
by replaying the slice of the network's ``_touched`` dirty list pushed
since the last sync (and restarted from ``initial_cap`` whenever
``net._version`` shows a reset happened).  ``bytearray`` masks are
viewed zero-copy with ``np.frombuffer`` so scalar and vector access hit
the same memory.

Visit-order parity: the python kernel walks each node's arcs in
ascending arc-id order (creation order).  The positional layout here
sorts arc ids by tail with a *stable* sort, which yields exactly the
same ascending-id order per node, and the pruned slices keep it - so
both kernels pick identical augmenting paths and identical min cuts.
Every arc the pruning drops leads only to nodes that cannot reach the
sink in that phase (among them the non-sink nodes of the sink's level,
which the python kernel's BFS labels up to the point it stops); the
python kernel's DFS enters such nodes, dead-ends and leaves without
pushing.  So flow values, pushes, and residual states agree exactly.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import List

import numpy as np

from repro.kernels import python_impl as _py

NAME = "numpy"

#: Below these sizes the array-program setup costs more than the scalar
#: loop it replaces, so the python reference runs instead (identical
#: results either way, so each crossover is a pure speed knob).
#: ``_SCALAR_ARCS`` counts a flow network's arcs, reverse arcs
#: included; see the crossover table in ``benchmarks/BENCH_17.json``.
_SCALAR_ARCS = 3072
_SCALAR_SEGMENTS = 2048
_SCALAR_FRONTIER = 16

_INT_DTYPES = {"i": np.intc, "l": np.int_, "q": np.longlong}


def _as_np(seq):
    """A zero-copy (when possible) numpy view of an int sequence."""
    if isinstance(seq, array):
        return np.frombuffer(seq, dtype=_INT_DTYPES[seq.typecode])
    return np.asarray(seq)


def _base_np(base):
    """Cached numpy views of a CSR base's ``indptr`` / ``indices``."""
    cached = base._np
    if cached is None:
        cached = (_as_np(base.indptr), _as_np(base.indices))
        base._np = cached
    return cached


def _ranges(starts, counts):
    """Concatenate ``[s, s + c)`` index ranges into one flat array.

    The repeat/cumsum gather trick: fill with ones, scatter the jump
    between consecutive ranges at each boundary, prefix-sum.  Zero-count
    ranges are filtered first (the boundary scatter cannot express
    them).
    """
    nz = counts > 0
    if not nz.all():
        starts = starts[nz]
        counts = counts[nz]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.ones(int(ends[-1]), dtype=np.int64)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(out)


# ----------------------------------------------------------------------
# Flow-network kernels
# ----------------------------------------------------------------------
def prepare_network(net) -> dict:
    """Positional arc layout + capacity mirror (cached per network).

    Builds ``arc_indptr`` over arc ids stable-sorted by tail node - a
    CSR over the arena - with position-space mirrors of the arc ids,
    heads, tails and capacities that the BFS gathers from, and the
    per-source cache of first-phase level graphs (see :func:`max_flow`).
    """
    st = net._kern_state.get(NAME)
    if st is not None:
        return st
    build = net._kern_state.pop("numpy_build", None)
    if build is not None:
        head_np = build["head_np"]
        tails_np = build["tails_np"]
        init_cap_np = build["cap_np"]
    else:
        head_np = np.asarray(net.head, dtype=np.int32)
        tails_np = np.asarray(net.tails, dtype=np.int32)
        init_cap_np = np.asarray(net.initial_cap, dtype=np.int32)
    n = net.num_nodes
    order = np.argsort(tails_np, kind="stable")
    arc_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails_np, minlength=n), out=arc_indptr[1:])
    pos_of_arc = np.empty(order.size, dtype=np.int64)
    pos_of_arc[order] = np.arange(order.size, dtype=np.int64)
    init_cap_ord = init_cap_np[order]
    st = {
        # Position-space mirrors (indexed by sorted-by-tail position,
        # not arc id): the BFS gathers slices of positions directly,
        # with no per-level order[] translation.
        "arc_ord": order,
        "head_ord": head_np[order],
        "tail_ord": tails_np[order],
        "init_cap_ord": init_cap_ord,
        "cap_ord": init_cap_ord.copy(),
        "pos_of_arc": pos_of_arc.tolist(),
        # Mirror sync cursor: [reset epoch applied, touched prefix applied].
        "cap_sync": [net._version, 0],
        "arc_indptr": arc_indptr,
        # source node -> its full BFS over ``initial_cap``.
        "first_phase": {},
    }
    net._kern_state[NAME] = st
    return st


def _sync_caps(net, st) -> None:
    """Bring the int32 ``cap`` mirror up to date with the list ``cap``.

    Every mutation of ``cap`` goes through a push (arena or kernel DFS)
    that appends the forward arc id to ``net._touched``, so replaying
    the not-yet-applied suffix of that list touches exactly the dirty
    entries.  A reset truncates ``_touched`` and bumps ``_version``;
    the mirror then restarts from the pristine capacities in one copy.
    """
    sync = st["cap_sync"]
    cap_ord = st["cap_ord"]
    if sync[0] != net._version:
        np.copyto(cap_ord, st["init_cap_ord"])
        sync[0] = net._version
        sync[1] = 0
    touched = net._touched
    upto = sync[1]
    if upto < len(touched):
        cap = net.cap
        pos_of = st["pos_of_arc"]
        for aid in touched[upto:]:
            rev = aid ^ 1
            cap_ord[pos_of[aid]] = cap[aid]
            cap_ord[pos_of[rev]] = cap[rev]
        sync[1] = len(touched)


def flow_arcs_from_view(net, view, k: int) -> None:
    """Fill ``net``'s arc arena from a CSR subgraph view (vectorized).

    Works straight off the base's ``indptr``/``indices`` arrays - the
    per-row Python lists are never touched, let alone filtered.
    """
    base = view.base
    indptr, indices = _base_np(base)
    mask_np = np.frombuffer(view.mask, dtype=np.uint8)
    verts = np.asarray(view.active_list(), dtype=np.int64)
    lookup = _index_lookup(base.n, verts)
    if verts.size:
        starts = indptr[verts]
        counts = indptr[verts + 1] - starts
        pos = _ranges(starts, counts)
        tgt = indices[pos].astype(np.int64, copy=False)
        src = np.repeat(verts, counts)
        keep = (tgt > src) & (mask_np[tgt] != 0)
        sv, tv = src[keep], tgt[keep]
    else:
        sv = tv = verts
    _emit_arcs(net, lookup, sv, tv, int(verts.size), k)


def flow_arcs_from_lists(net, rows, verts, k: int) -> None:
    """Fill ``net``'s arc arena from integer adjacency lists (certificate).

    ``rows`` maps each of ``verts`` to its row; only those rows are read.
    """
    vn = len(verts)
    member_rows = list(map(rows.__getitem__, verts))
    lens = np.fromiter(map(len, member_rows), dtype=np.int64, count=vn)
    flat = np.fromiter(
        chain.from_iterable(member_rows), dtype=np.int64,
        count=int(lens.sum()),
    )
    verts_np = np.asarray(verts, dtype=np.int64)
    src = np.repeat(verts_np, lens)
    keep = flat > src
    # ``to_index`` is the skeleton's base-length list; its length is the
    # base size the compact lookup needs.
    lookup = _index_lookup(len(net.to_index), verts_np)
    _emit_arcs(net, lookup, src[keep], flat[keep], vn, k)


def _index_lookup(n: int, verts):
    """Base id -> position in ``verts`` (-1 elsewhere), as an int64 array.

    A C-level fill of the base length plus a scatter over ``verts``:
    no per-base-vertex Python object is created.
    """
    lookup = np.full(n, -1, dtype=np.int64)
    lookup[verts] = np.arange(verts.size, dtype=np.int64)
    return lookup


def _emit_arcs(net, lookup, sv, tv, n: int, k: int) -> None:
    """Write internal arcs + one arc quad per undirected edge into ``net``.

    Arc ids match the python kernel's builder exactly: internal pair
    ``2i``/``2i+1`` per vertex index, then quads in (vertex order, row
    order) for edges with ``w > v``.  On a network that will run the
    array Dinic (see :func:`_scalar`) the int32 head/tails/cap arrays
    are stashed for :func:`prepare_network` so the layout pass never
    re-boxes them; smaller networks keep no arrays.
    """
    iv = lookup[sv]
    iw = lookup[tv]
    out_v = (2 * iv + 1).astype(np.int32)
    in_w = (2 * iw).astype(np.int32)
    m = int(sv.size)
    quad_head = np.empty((m, 4), dtype=np.int32)
    quad_head[:, 0] = in_w
    quad_head[:, 1] = out_v
    quad_head[:, 2] = out_v - 1
    quad_head[:, 3] = in_w + 1
    quad_tails = np.empty((m, 4), dtype=np.int32)
    quad_tails[:, 0] = out_v
    quad_tails[:, 1] = in_w
    quad_tails[:, 2] = in_w + 1
    quad_tails[:, 3] = out_v - 1
    quad_cap = np.empty((m, 4), dtype=np.int32)
    quad_cap[:, 0] = k
    quad_cap[:, 1] = 0
    quad_cap[:, 2] = k
    quad_cap[:, 3] = 0
    ids = np.arange(2 * n, dtype=np.int32)
    internal_cap = np.empty(2 * n, dtype=np.int32)
    internal_cap[0::2] = 1
    internal_cap[1::2] = 0
    head_all = np.concatenate([ids ^ 1, quad_head.ravel()])
    tails_all = np.concatenate([ids, quad_tails.ravel()])
    cap_all = np.concatenate([internal_cap, quad_cap.ravel()])
    net.head = head_all.tolist()
    net.cap = cap_all.tolist()
    net.initial_cap = net.cap.copy()
    net.tails = tails_all.tolist()
    if not _scalar(net):
        net._kern_state["numpy_build"] = {
            "head_np": head_all,
            "tails_np": tails_all,
            "cap_np": cap_all,
        }


def _scalar(net) -> bool:
    """Whether ``net`` is small enough for the python kernel's Dinic.

    Below ``_SCALAR_ARCS`` arcs the per-network layout and the per-phase
    array set-up cost more than the scalar BFS they replace.  Both
    :func:`max_flow` and :func:`residual_reachable` follow this rule, so
    one network builds only one kernel's state.
    """
    return len(net.head) < _SCALAR_ARCS


def max_flow(net, source: int, sink: int, k: int) -> int:
    """Dinic capped at ``k``: vectorized BFS phases, pruned scalar DFS.

    Networks below ``_SCALAR_ARCS`` arcs run the python kernel's Dinic
    instead (see :func:`_scalar`); the rest run the array program
    below, with identical flows and residual states.  Each phase's BFS
    records, level by level, the positions of the admissible arcs
    (residual capacity, level ``l`` to ``l + 1``), and
    :func:`_prune` sweeps those lists back from the sink so the DFS
    walks only arcs on a shortest source-sink path.  A query that starts
    on an untouched network (``net._touched`` empty, as after
    :meth:`~repro.flow.flow_network.FlowNetwork.reset`) takes its first
    phase from the source's full BFS over ``initial_cap``, computed once
    per (network, source) and cached in the kernel state.
    """
    if _scalar(net):
        return _py.max_flow(net, source, sink, k)
    st = prepare_network(net)
    cap = net.cap
    touched = net._touched
    bfs = None if touched else _first_phase(st, source)
    flow = 0
    while flow < k:
        if bfs is None:
            _sync_caps(net, st)
            bfs = _bfs_layers(st, st["cap_ord"], source, sink)
        level, layers = bfs
        bfs = None
        depth = int(level[sink])
        if depth < 0:
            break
        arcs, heads, cursor, end = _prune(st, layers[:depth], sink)
        size = len(cursor)
        dead = bytearray(size + 1)
        while flow < k:
            pushed = _augment(
                arcs, heads, cursor, end, dead, cap, touched, size,
                k - flow,
            )
            if pushed == 0:
                break
            flow += pushed
    return flow


def _first_phase(st, source: int):
    """The cached full BFS from ``source`` over the initial capacities."""
    cache = st["first_phase"]
    bfs = cache.get(source)
    if bfs is None:
        bfs = cache[source] = _bfs_layers(st, st["init_cap_ord"], source, -1)
    return bfs


def _bfs_layers(st, cap_ord, source: int, sink: int):
    """Frontier-at-a-time layered BFS; ``(level, layers)``.

    Each round gathers every arc of the frontier through the positional
    layout and keeps those with capacity in ``cap_ord`` into unlabeled
    nodes - exactly the admissible arcs out of that level, ascending by
    position - then scatters the next level in one assignment.
    ``layers[l]`` holds those positions for level ``l``.  The BFS stops
    once the sink is labeled (``sink = -1`` runs until the frontier
    empties); the sink's whole level is labeled, but :func:`_prune`
    keeps only the arcs into the sink there, so the extra labels never
    reach the DFS.
    """
    arc_indptr = st["arc_indptr"]
    head_ord = st["head_ord"]
    level = np.full(arc_indptr.size - 1, -1, dtype=np.int32)
    level[source] = 0
    layers = []
    frontier = np.array([source], dtype=np.int64)
    while True:
        starts = arc_indptr[frontier]
        pos = _ranges(starts, arc_indptr[frontier + 1] - starts)
        pos = pos[cap_ord[pos] > 0]
        targets = head_ord[pos]
        fresh = level[targets] < 0
        pos = pos[fresh]
        if pos.size == 0:
            return level, layers
        layers.append(pos)
        lv = len(layers)
        level[targets[fresh]] = lv
        if sink >= 0 and level[sink] == lv:
            return level, layers
        # Deduplicated next frontier, cheaper than unique(targets): one
        # scan of the (small, fixed-size) level array, ascending ids.
        frontier = np.flatnonzero(level == lv)


def _prune(st, layers, sink: int):
    """The level graph cut down to the arcs that still reach the sink.

    Sweeps ``layers`` back from the sink: the last level keeps its arcs
    into the sink, and each earlier level keeps the arcs whose head
    kept an arc one level down.  Every dropped arc leads only to nodes
    that cannot reach the sink this phase, which the python kernel's
    DFS enters, dead-ends and leaves without pushing, so skipping them
    changes no augmenting path.

    Returns DFS-ready lists over *local* node ids (source 0, sink
    ``len(cursor)``): each kept node's arcs form one contiguous slice
    ``[cursor[u], end[u])`` of ``arcs`` (arc ids, ascending - the
    python kernel's scan order) and ``heads`` (local head ids).
    """
    head_ord = st["head_ord"]
    tail_ord = st["tail_ord"]
    n = st["arc_indptr"].size - 1
    keep = layers[-1]
    keep = keep[head_ord[keep] == sink]
    kept = [keep]
    reach = np.zeros(n, dtype=bool)
    for pos in reversed(layers[:-1]):
        reach[tail_ord[keep]] = True
        keep = pos[reach[head_ord[pos]]]
        kept.append(keep)
    # Source level first.  Each level lists its tails in ascending
    # position order, so every node's kept arcs are one run.
    pos = np.concatenate(kept[::-1])
    tails = tail_ord[pos]
    cuts = np.flatnonzero(tails[1:] != tails[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    local = np.empty(n, dtype=np.int64)
    local[tails[starts]] = np.arange(starts.size, dtype=np.int64)
    local[sink] = starts.size
    return (
        st["arc_ord"][pos].tolist(),
        local[head_ord[pos]].tolist(),
        starts.tolist(),
        cuts.tolist() + [pos.size],
    )


def _augment(
    arcs, heads, cursor, end, dead, cap, touched, sink, limit,
) -> int:
    """One augmenting path over the pruned level graph (iterative DFS).

    The python kernel's current-arc DFS on the arcs :func:`_prune` kept.
    Every kept arc joins consecutive levels, so a scan tests only the
    dead-end byte mask and the residual capacity.
    """
    path: List[int] = []  # arc ids along the current partial path
    stack: List[int] = []  # local tail of each path arc
    node = 0
    while node != sink:
        j = cursor[node]
        stop = end[node]
        while j < stop:
            v = heads[j]
            if not dead[v]:
                arc_id = arcs[j]
                if cap[arc_id] > 0:
                    break
            j += 1
        else:
            # Dead end: retreat, marking the node unusable this phase.
            dead[node] = 1
            if not path:
                return 0
            path.pop()
            node = stack.pop()
            cursor[node] += 1
            continue
        cursor[node] = j
        path.append(arc_id)
        stack.append(node)
        node = v
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


def residual_reachable(net, source: int) -> bytearray:
    """Byte mask of nodes reachable from ``source`` via residual arcs.

    Frontier-at-a-time over the positional layout, on the networks
    :func:`max_flow` runs as arrays; smaller ones take the python BFS.
    """
    if _scalar(net):
        return _py.residual_reachable(net, source)
    st = prepare_network(net)
    _sync_caps(net, st)
    arc_indptr = st["arc_indptr"]
    head_ord = st["head_ord"]
    cap_ord = st["cap_ord"]
    seen = np.zeros(net.num_nodes, dtype=np.uint8)
    seen[source] = 1
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        starts = arc_indptr[frontier]
        counts = arc_indptr[frontier + 1] - starts
        pos = _ranges(starts, counts)
        if pos.size == 0:
            break
        targets = head_ord[pos[cap_ord[pos] > 0]]
        targets = targets[seen[targets] == 0]
        if targets.size == 0:
            break
        seen[targets] = 1
        frontier = np.unique(targets)
    return bytearray(seen.tobytes())


# ----------------------------------------------------------------------
# Subgraph-view kernels
# ----------------------------------------------------------------------
#: Queue-driven peeling touches each removed vertex and edge once; the
#: frontier-at-a-time array version measured slower at every size.
peel = _py.peel


def active_ids(mask) -> List[int]:
    """Indices of the 1-bytes of ``mask``, ascending."""
    return np.flatnonzero(np.frombuffer(mask, dtype=np.uint8)).tolist()


def active_degrees(base, mask, members) -> List[int]:
    """Active-degree array (full base length) for the ``members`` ids.

    Row gather + ``bincount`` of the active slots' owners; the base-length
    list is a C-level fill, and only the members' counts are scattered
    into it.
    """
    indptr, indices = _base_np(base)
    mask_np = np.frombuffer(mask, dtype=np.uint8)
    deg = [0] * base.n
    mem = np.asarray(members, dtype=np.int64)
    if mem.size:
        starts = indptr[mem]
        counts = indptr[mem + 1] - starts
        owner = np.repeat(np.arange(mem.size, dtype=np.int64), counts)
        act = mask_np[indices[_ranges(starts, counts)]] != 0
        sums = np.bincount(owner[act], minlength=mem.size)
        for v, d in zip(mem.tolist(), sums.tolist()):
            deg[v] = d
    return deg


def scan_first_forests(view, k: int):
    """``k`` successive scan-first forests of a CSR view, vectorized.

    Compacts the view's active adjacency into flat arrays once, in
    *local* ids (positions in the ascending active list, so every
    buffer is view-sized and local order is base-id order), maps every
    directed slot to an undirected edge id (so consuming a forest edge
    is one scatter instead of a reverse-slot binary search), and
    extracts each forest with a level-synchronous BFS.  Forest edges
    come back in base ids.

    Edge-for-edge parity with the python kernel's FIFO scan: a queue is
    level-ordered, so processing one whole level at a time visits the
    same scan order, and keeping only the *first* occurrence of each
    newly marked vertex in the frontier's concatenated (queue-order,
    row-order) slot gather picks exactly the scanner that would have
    marked it.  Sorting the survivors by first-occurrence position
    restores the order in which the FIFO scan would have appended them,
    both as forest edges and as the next level's queue segment.
    """
    indptr, indices = _base_np(view.base)
    mask_np = np.frombuffer(view.mask, dtype=np.uint8)
    verts_list = view.active_list()
    vn = len(verts_list)
    if vn == 0:
        return [[]]
    verts = np.asarray(verts_list, dtype=np.int64)
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    tgt = indices[_ranges(starts, counts)].astype(np.int64, copy=False)
    keep = mask_np[tgt] != 0
    slot_owner = np.repeat(np.arange(vn, dtype=np.int64), counts)[keep]
    # Rows are sorted by base id, and local ids preserve that order.
    aflat = np.searchsorted(verts, tgt[keep])
    alen = np.bincount(slot_owner, minlength=vn)
    aptr = np.zeros(vn, dtype=np.int64)
    np.cumsum(alen[:-1], out=aptr[1:])
    lo = np.minimum(slot_owner, aflat)
    hi = np.maximum(slot_owner, aflat)
    uniq_keys, slot_eid = np.unique(lo * vn + hi, return_inverse=True)
    # ``used`` is shared storage (bytearray + zero-copy view): the
    # scalar small-frontier path indexes the bytes, the vectorized path
    # scatters through the view, and both see each other's writes.
    used_b = bytearray(uniq_keys.size)
    used = np.frombuffer(used_b, dtype=np.uint8)
    layout = (
        verts, verts_list, aptr, alen, aflat, slot_owner, slot_eid, used,
        aptr.tolist(), alen.tolist(), aflat.tolist(),
        slot_eid.tolist(), used_b,
    )
    forests: list = []
    for _ in range(k):
        forest = _scan_first_pass(layout)
        forests.append(forest)
        if not forest:
            break
    return forests


def _scan_first_pass(layout):
    """One scan-first forest over the compacted layout (one BFS/root).

    Frontiers of a handful of vertices (every root's first level, and
    most levels of the sparse later forests) run the FIFO scan directly
    over python-list mirrors of the layout - identical semantics, none
    of the per-level gather setup.  Larger frontiers expand vectorized:
    first-occurrence selection runs scatter-style - writing the valid
    slot positions into a per-vertex cell in *reverse* order leaves the
    lowest (earliest-queued) position behind, with no sort over the
    slot gather; only the surviving (frontier-sized) selection gets
    argsorted to restore queue order.
    """
    (verts, verts_list, aptr, alen, aflat, slot_owner, slot_eid, used,
     aptr_l, alen_l, aflat_l, eid_l, used_b) = layout
    vn = len(verts_list)
    mb = bytearray(vn)  # shared storage: scalar tests + vector scatters
    marked = np.frombuffer(mb, dtype=np.uint8)
    firstpos = np.empty(vn, dtype=np.int64)
    forest: list = []
    for root in range(vn):
        if mb[root]:
            continue
        mb[root] = 1
        frontier = [root]
        while frontier:
            if len(frontier) <= _SCALAR_FRONTIER:
                nxt: list = []
                for u in frontier:
                    a = aptr_l[u]
                    bu = verts_list[u]
                    for s in range(a, a + alen_l[u]):
                        t = aflat_l[s]
                        if mb[t] or used_b[eid_l[s]]:
                            continue
                        mb[t] = 1
                        used_b[eid_l[s]] = 1
                        forest.append((bu, verts_list[t]))
                        nxt.append(t)
                frontier = nxt
                continue
            fr = np.asarray(frontier, dtype=np.int64)
            slots = _ranges(aptr[fr], alen[fr])
            if slots.size == 0:
                break
            t = aflat[slots]
            valid = (marked[t] == 0) & (used[slot_eid[slots]] == 0)
            vt = t[valid]
            if vt.size == 0:
                break
            vslots = slots[valid]
            # Reverse-order scatter: each vertex's earliest position in
            # the (queue-order, row-order) gather is written last and
            # wins.  Positions into ``vt``, not slot values - absolute
            # slot offsets are not ordered by queue position.
            idx = np.arange(vt.size, dtype=np.int64)
            firstpos[vt[::-1]] = idx[::-1]
            hit = np.zeros(vn, dtype=bool)
            hit[vt] = True
            w_ids = np.flatnonzero(hit)  # distinct new vertices, by id
            first_idx = firstpos[w_ids]
            order = np.argsort(first_idx)  # restore FIFO append order
            w_new = w_ids[order]
            sel_slots = vslots[first_idx[order]]
            used[slot_eid[sel_slots]] = 1
            marked[w_new] = 1
            u_new = slot_owner[sel_slots]
            forest.extend(
                zip(verts[u_new].tolist(), verts[w_new].tolist())
            )
            frontier = w_new.tolist()
    return forest


#: A list-queue BFS per component; the frontier-at-a-time array
#: version saved under 1% of an ``enumerate`` pass and ran about 3x
#: slower on the ``build`` root, so both kernels share the reference.
components = _py.components


#: The forest edges arrive as Python tuples either way, and the row
#: scatter ends in per-row list slices - a vectorized union measured
#: strictly slower than the append loop, so both kernels share it.
fill_forest_adjacency = _py.fill_forest_adjacency


def sort_segments(indptr, flat) -> array:
    """Sort each ``flat[indptr[i]:indptr[i+1]]`` segment ascending.

    One argsort over ``row * stride + value`` composite keys replaces
    the per-row ``sorted`` calls; the result converts to ``array('l')``
    through a single buffer copy.
    """
    total = len(flat)
    if total < _SCALAR_SEGMENTS:
        return _py.sort_segments(indptr, flat)
    ip = _as_np(indptr)
    fl = np.asarray(flat, dtype=np.int64)
    rowrep = np.repeat(
        np.arange(ip.size - 1, dtype=np.int64), np.diff(ip)
    )
    stride = int(fl.max(initial=0)) + 1
    order = np.argsort(rowrep * stride + fl)
    out = array("l")
    out.frombytes(fl[order].astype(np.int_, copy=False).tobytes())
    return out
