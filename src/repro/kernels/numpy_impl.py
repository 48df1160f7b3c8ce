"""Numpy fast-path kernels (optional; selected when numpy imports).

Result-identical to :mod:`repro.kernels.python_impl` - same max-flow
values, residual states, min-cut sets, peel survivor masks and
degrees - but the batchable loops run as array programs:

* flow-network construction emits all arc quads with vectorized
  selects/gathers instead of a per-edge Python loop;
* Dinic's layered BFS expands whole frontiers over positional arc
  slices (``arc_indptr`` over arc ids sorted by tail), against
  position-space mirrors of the head and capacity arrays;
* k-core peeling processes whole frontiers per round with
  ``unique(return_counts=True)`` degree decrements;
* active-degree recounts are gather + ``reduceat`` one-liners.

The blocking-flow DFS stays a scalar Python walk in both kernels (its
path-at-a-time control flow does not batch), but here it runs over the
flat positional layout this module prepares.

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
same ascending-id order per node - so both kernels pick identical
augmenting paths and identical min cuts.  The BFS labels whole levels
(the python kernel stops mid-level once the sink is labeled); the extra
labeled nodes sit at the sink's level and can only dead-end in the DFS,
so flow values, pushes, and residual states still agree exactly.
"""

from __future__ import annotations

from array import array
from typing import List, Set

import numpy as np

from repro.kernels import python_impl as _py

NAME = "numpy"

#: Below these sizes the array-program setup costs more than the scalar
#: loop it replaces; the corresponding kernels fall back to the python
#: reference (identical results either way - outputs are sets/sorted
#: rows, so the crossover is a pure speed knob).
_SCALAR_COMPONENTS = 256
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
    """Positional arc layout + scratch buffers (cached per network).

    Builds ``arc_indptr`` over arc ids stable-sorted by tail node - a
    CSR over the arena - plus the scalar-side mirrors the DFS walks
    (flat arc-id list, per-node start/end cursors) and a reusable int32
    ``level`` buffer for the vectorized BFS.
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
    starts = arc_indptr[:-1].tolist()
    pos_of_arc = np.empty(order.size, dtype=np.int64)
    pos_of_arc[order] = np.arange(order.size, dtype=np.int64)
    init_cap_ord = init_cap_np[order]
    head_ord = head_np[order]
    st = {
        # Position-space mirrors (indexed by sorted-by-tail position,
        # not arc id): the BFS gathers slices of positions directly,
        # with no per-level order[] translation.
        "head_ord": head_ord,
        "init_cap_ord": init_cap_ord,
        "cap_ord": init_cap_ord.copy(),
        "pos_of_arc": pos_of_arc.tolist(),
        # Mirror sync cursor: [reset epoch applied, touched prefix applied].
        "cap_sync": [net._version, 0],
        "arc_indptr": arc_indptr,
        "arc_list": order.tolist(),
        "head_pos": head_ord.tolist(),
        "starts": starts,
        "ends": arc_indptr[1:].tolist(),
        "iter": list(starts),
        "level_np": np.empty(n, dtype=np.int32),
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
    lookup = np.full(base.n, -1, dtype=np.int64)
    if verts.size:
        lookup[verts] = np.arange(verts.size, dtype=np.int64)
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
    """Fill ``net``'s arc arena from integer adjacency lists (certificate)."""
    vn = len(verts)
    lens = np.fromiter(
        (len(rows[v]) for v in verts), dtype=np.int64, count=vn
    )
    total = int(lens.sum())
    flat = np.fromiter(
        (w for v in verts for w in rows[v]), dtype=np.int64, count=total
    )
    src = np.repeat(np.asarray(verts, dtype=np.int64), lens)
    keep = flat > src
    lookup = np.asarray(net.to_index, dtype=np.int64)
    _emit_arcs(net, lookup, src[keep], flat[keep], vn, k)


def _emit_arcs(net, lookup, sv, tv, n: int, k: int) -> None:
    """Write internal arcs + one arc quad per undirected edge into ``net``.

    Arc ids match the python kernel's builder exactly: internal pair
    ``2i``/``2i+1`` per vertex index, then quads in (vertex order, row
    order) for edges with ``w > v``.  The int32 head/tails/cap arrays
    are stashed for :func:`prepare_network` so the layout pass never
    re-boxes them.
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
    net._kern_state["numpy_build"] = {
        "head_np": head_all,
        "tails_np": tails_all,
        "cap_np": cap_all,
    }


def max_flow(net, source: int, sink: int, k: int) -> int:
    """Dinic capped at ``k``: vectorized BFS phases, scalar blocking DFS.

    After each BFS the level labels are copied once into a plain list
    (``tolist``), so the DFS inner loop runs on pure Python scalars; its
    dead-end markings live in that list and are rebuilt next phase.
    (A precomputed per-arc admissibility byte array measured slower
    here: it trades the two-load level test for one load but gives up
    live dead-end pruning and pays a per-phase vector rebuild.)
    """
    st = prepare_network(net)
    cap = net.cap
    head = net.head
    arc_list = st["arc_list"]
    head_pos = st["head_pos"]
    ends = st["ends"]
    iter_idx = st["iter"]
    touched = net._touched
    flow = 0
    while flow < k:
        _sync_caps(net, st)
        if not _bfs_levels(st, source, sink):
            break
        level = st["level_np"].tolist()
        iter_idx[:] = st["starts"]
        while flow < k:
            pushed = _dfs_blocking(
                arc_list, head_pos, ends, head, cap, level, iter_idx,
                touched, source, sink, k - flow,
            )
            if pushed == 0:
                break
            flow += pushed
    return flow


def _bfs_levels(st, source: int, sink: int) -> bool:
    """Frontier-at-a-time layered BFS; True if the sink gets a label.

    Each round gathers every arc of the frontier through the positional
    layout, keeps those with residual capacity and unlabeled targets,
    and scatters the next level in one assignment.  Stops as soon as the
    sink's level is labeled (see the module docstring for why labeling
    the sink's whole level preserves parity with the python kernel).
    """
    level = st["level_np"]
    level.fill(-1)
    level[source] = 0
    arc_indptr = st["arc_indptr"]
    head_ord = st["head_ord"]
    cap_ord = st["cap_ord"]
    frontier = np.array([source], dtype=np.int64)
    lv = 0
    while frontier.size:
        lv += 1
        starts = arc_indptr[frontier]
        counts = arc_indptr[frontier + 1] - starts
        pos = _ranges(starts, counts)
        if pos.size == 0:
            break
        targets = head_ord[pos[cap_ord[pos] > 0]]
        targets = targets[level[targets] < 0]
        if targets.size == 0:
            break
        level[targets] = lv
        if level[sink] == lv:
            # Unlabel the sink's siblings: a non-sink node on the last
            # level can never advance, so leaving it labeled only buys
            # dead-end scans in the DFS.  (Augmenting paths and pushes
            # are unchanged; the python kernel labels at most a prefix
            # of this level before stopping at the sink.)
            level[targets] = -1
            level[sink] = lv
            return True
        # Deduplicated next frontier, cheaper than unique(targets): one
        # scan of the (small, fixed-size) level array, ascending ids.
        frontier = np.flatnonzero(level == lv)
    return False


def _dfs_blocking(
    arc_list, head_pos, arc_end, head, cap, level, iter_idx, touched,
    source, sink, limit,
) -> int:
    """One augmenting path (iterative DFS over the positional layout).

    Mirrors the python kernel's DFS exactly - ``iter_idx`` holds
    absolute cursors into the flat sorted arc-id list instead of offsets
    into per-node lists, which is the only difference.  ``head_pos``
    (the head array in position space) makes the dead-end majority of
    scans a two-load test; the arc id is only materialized once the
    level matches.
    """
    path: List[int] = []
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
        j = iter_idx[node]
        end = arc_end[node]
        target = level[node] + 1
        advanced = False
        while j < end:
            v = head_pos[j]
            if level[v] == target:
                arc_id = arc_list[j]
                if cap[arc_id] > 0:
                    iter_idx[node] = j
                    path.append(arc_id)
                    node = v
                    advanced = True
                    break
            j += 1
        if advanced:
            continue
        iter_idx[node] = j
        level[node] = -1
        if not path:
            return 0
        arc_id = path.pop()
        node = head[arc_id ^ 1]
        iter_idx[node] += 1


def residual_reachable(net, source: int) -> bytearray:
    """Byte mask of nodes reachable from ``source`` via residual arcs."""
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
def peel(view, k: int) -> Set[int]:
    """In-place k-core peel of a CSR view; returns the removed id set.

    Round-based: unmask the whole sub-``k`` frontier, gather its still-
    active neighbors, decrement their degrees via ``unique`` counts, and
    promote the newly sub-``k`` ones to the next frontier.  Survivor
    masks and survivor degrees match the queue-driven python kernel
    exactly (the k-core is unique); only the frozen degrees of *removed*
    vertices - documented as stale - may differ.
    """
    base = view.base
    indptr, indices = _base_np(base)
    mask_np = np.frombuffer(view.mask, dtype=np.uint8)
    deg_np = np.asarray(view.deg, dtype=np.int64)
    cand = np.asarray(view.active_list(), dtype=np.int64)
    frontier = cand[deg_np[cand] < k] if cand.size else cand
    if frontier.size == 0:
        return set()
    removed_parts = []
    while frontier.size:
        mask_np[frontier] = 0
        removed_parts.append(frontier)
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        pos = _ranges(starts, counts)
        if pos.size == 0:
            break
        nbrs = indices[pos]
        nbrs = nbrs[mask_np[nbrs] != 0]
        if nbrs.size == 0:
            break
        vals, cnts = np.unique(nbrs, return_counts=True)
        new_deg = deg_np[vals] - cnts
        deg_np[vals] = new_deg
        frontier = vals[new_deg < k]
    removed = np.concatenate(removed_parts)
    view.deg = deg_np.tolist()
    view._n_active -= int(removed.size)
    if view._verts is not None:
        view._verts = np.flatnonzero(mask_np).tolist()
    return set(removed.tolist())


def active_ids(mask) -> List[int]:
    """Indices of the 1-bytes of ``mask``, ascending."""
    return np.flatnonzero(np.frombuffer(mask, dtype=np.uint8)).tolist()


def active_degrees(base, mask, members) -> List[int]:
    """Active-degree array (full base length) for the ``members`` ids.

    Row gather + masked ``reduceat`` per-segment sums.  The mask bytes
    are widened to int32 before summing (uint8 sums would wrap at
    degree 256).
    """
    indptr, indices = _base_np(base)
    mask_np = np.frombuffer(mask, dtype=np.uint8)
    deg = np.zeros(base.n, dtype=np.int64)
    mem = np.asarray(members, dtype=np.int64)
    if mem.size:
        starts = indptr[mem]
        counts = indptr[mem + 1] - starts
        nz = counts > 0
        mem_nz = mem[nz]
        if mem_nz.size:
            counts_nz = counts[nz]
            pos = _ranges(starts[nz], counts_nz)
            act = (mask_np[indices[pos]] != 0).astype(np.int32)
            offsets = np.zeros(counts_nz.size, dtype=np.int64)
            np.cumsum(counts_nz[:-1], out=offsets[1:])
            deg[mem_nz] = np.add.reduceat(act, offsets)
    return deg.tolist()


def scan_first_forests(view, k: int):
    """``k`` successive scan-first forests of a CSR view, vectorized.

    Compacts the view's active adjacency into flat arrays once, maps
    every directed slot to an undirected edge id (so consuming a forest
    edge is one scatter instead of a reverse-slot binary search), and
    extracts each forest with a level-synchronous BFS.

    Edge-for-edge parity with the python kernel's FIFO scan: a queue is
    level-ordered, so processing one whole level at a time visits the
    same scan order, and keeping only the *first* occurrence of each
    newly marked vertex in the frontier's concatenated (queue-order,
    row-order) slot gather picks exactly the scanner that would have
    marked it.  Sorting the survivors by first-occurrence position
    restores the order in which the FIFO scan would have appended them,
    both as forest edges and as the next level's queue segment.
    """
    base = view.base
    n = base.n
    indptr, indices = _base_np(base)
    mask_np = np.frombuffer(view.mask, dtype=np.uint8)
    verts_list = view.active_list()
    verts = np.asarray(verts_list, dtype=np.int64)
    forests: list = []
    if verts.size == 0:
        forests.append([])
        return forests
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    nz = counts > 0
    vs = verts[nz]
    cs = counts[nz]
    alen = np.zeros(n, dtype=np.int64)
    aptr = np.zeros(n, dtype=np.int64)
    if vs.size:
        pos = _ranges(starts[nz], cs)
        tgt = indices[pos].astype(np.int64, copy=False)
        keep = mask_np[tgt] != 0
        offsets = np.zeros(cs.size, dtype=np.int64)
        np.cumsum(cs[:-1], out=offsets[1:])
        acnt = np.add.reduceat(keep.astype(np.int32), offsets).astype(
            np.int64
        )
        aflat = tgt[keep]
        alen[vs] = acnt
        row_starts = np.zeros(acnt.size, dtype=np.int64)
        np.cumsum(acnt[:-1], out=row_starts[1:])
        aptr[vs] = row_starts
        slot_owner = np.repeat(vs, acnt)
        lo = np.minimum(slot_owner, aflat)
        hi = np.maximum(slot_owner, aflat)
        uniq_keys, slot_eid = np.unique(lo * n + hi, return_inverse=True)
        used_b = bytearray(uniq_keys.size)
    else:
        aflat = np.empty(0, dtype=np.int64)
        slot_owner = np.empty(0, dtype=np.int64)
        slot_eid = np.empty(0, dtype=np.int64)
        used_b = bytearray()
    # ``used`` is shared storage (bytearray + zero-copy view): the
    # scalar small-frontier path indexes the bytes, the vectorized path
    # scatters through the view, and both see each other's writes.
    used = np.frombuffer(used_b, dtype=np.uint8)
    layout = (
        n, aptr, alen, aflat, slot_owner, slot_eid, used,
        aptr.tolist(), alen.tolist(), aflat.tolist(),
        slot_eid.tolist(), used_b,
    )
    for _ in range(k):
        forest = _scan_first_pass(verts_list, layout)
        forests.append(forest)
        if not forest:
            break
    return forests


def _scan_first_pass(verts_list, layout):
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
    (n, aptr, alen, aflat, slot_owner, slot_eid, used,
     aptr_l, alen_l, aflat_l, eid_l, used_b) = layout
    mb = bytearray(n)  # shared storage: scalar tests + vector scatters
    marked = np.frombuffer(mb, dtype=np.uint8)
    firstpos = np.empty(n, dtype=np.int64)
    forest: list = []
    for root in verts_list:
        if mb[root]:
            continue
        mb[root] = 1
        frontier = [root]
        while frontier:
            if len(frontier) <= _SCALAR_FRONTIER:
                nxt: list = []
                for u in frontier:
                    a = aptr_l[u]
                    for s in range(a, a + alen_l[u]):
                        t = aflat_l[s]
                        if mb[t] or used_b[eid_l[s]]:
                            continue
                        mb[t] = 1
                        used_b[eid_l[s]] = 1
                        forest.append((u, t))
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
            hit = np.zeros(n, dtype=bool)
            hit[vt] = True
            w_ids = np.flatnonzero(hit)  # distinct new vertices, by id
            first_idx = firstpos[w_ids]
            order = np.argsort(first_idx)  # restore FIFO append order
            w_new = w_ids[order]
            sel_slots = vslots[first_idx[order]]
            used[slot_eid[sel_slots]] = 1
            marked[w_new] = 1
            u_new = slot_owner[sel_slots]
            forest.extend(zip(u_new.tolist(), w_new.tolist()))
            frontier = w_new.tolist()
    return forest


def components(view, removed) -> List[Set[int]]:
    """Components of a CSR view minus ``removed``, frontier-at-a-time.

    Per-component level-synchronous BFS over the base arrays; component
    contents and discovery order match the python kernel (components are
    canonical, discovery follows ``active_list`` order).  Small views go
    through the scalar reference - the per-level gather setup would
    dominate them.
    """
    if view._n_active < _SCALAR_COMPONENTS:
        return _py.components(view, removed)
    base = view.base
    n = base.n
    indptr, indices = _base_np(base)
    mask_np = np.frombuffer(view.mask, dtype=np.uint8)
    seen = bytearray(n)
    if removed:
        for v in removed:
            if 0 <= v < n:
                seen[v] = 1
    seen_np = np.frombuffer(seen, dtype=np.uint8)
    out: List[Set[int]] = []
    for start in view.active_list():
        if seen[start]:
            continue
        seen[start] = 1
        members = [start]
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            starts = indptr[frontier]
            pos = _ranges(starts, indptr[frontier + 1] - starts)
            if pos.size == 0:
                break
            t = indices[pos]
            t = t[(mask_np[t] != 0) & (seen_np[t] == 0)]
            if t.size == 0:
                break
            t = np.unique(t)
            seen_np[t] = 1
            members.extend(t.tolist())
            frontier = t
        out.append(set(members))
    return out


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
    stride = int(fl.max()) + 1
    order = np.argsort(rowrep * stride + fl)
    out = array("l")
    out.frombytes(fl[order].astype(np.int_, copy=False).tobytes())
    return out
