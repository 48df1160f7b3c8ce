"""Component-at-a-time k-VCC enumeration under a memory budget.

:func:`~repro.core.kvcc.enumerate_kvccs_csr` runs one
``full_view()`` through the engine: correct, but the first k-core peel
walks every CSR row, so an mmap-loaded graph faults **all** of its
adjacency resident before the first answer.  For graphs near or beyond
RAM that defeats the point of the mmap store.

This driver restores locality with two passes:

1. :func:`streaming_components` - one sequential union-find sweep over
   the raw ``indptr``/``indices`` arrays (never the boxed ``rows``
   cache).  Sequential access is the friendliest possible fault pattern,
   only O(V) ids stay resident, and consumed adjacency pages are
   madvised away at a fixed stride as the sweep moves forward.
2. Per component, **largest first**: :meth:`CSRGraph.prepare_rows` boxes
   exactly that component's rows (faulting in just its CSR stripe), the
   existing ``view_from_members`` mask view enters the engine's
   ``run_many`` seam unchanged, and :meth:`CSRGraph.release_rows` drops
   the boxed rows *and* madvises the stripe back out before the next
   component starts.

Peak residency is therefore O(V) global bookkeeping plus the largest
single component - not the whole graph.
:class:`~repro.core.stats.RssTracker` wraps the whole run so
``stats.peak_rss_bytes`` reports what enumeration actually cost.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.core.engine import SerialEngine
from repro.core.options import KVCCOptions
from repro.core.stats import RssTracker, RunStats
from repro.graph.csr import CSRGraph

#: The component sweep releases consumed adjacency pages every time it
#: has moved this many ``indices`` entries past the last release point.
_SWEEP_RELEASE_STRIDE = 1 << 20


def streaming_components(
    base: CSRGraph, min_size: int = 1
) -> List[List[int]]:
    """Connected components via one sequential union-find sweep.

    Walks the CSR arrays front to back once, unioning each arc
    ``(v, w)`` with ``w < v`` (the mirror arc adds nothing); path
    halving plus union-by-size keeps finds near O(1).  Everything
    resident is an O(V) ``array`` - parents, sizes, component ids, and
    the counting-sorted member permutation - so the sweep's footprint
    is independent of edge count.  Consumed adjacency pages are
    madvised away at a fixed stride behind the read frontier.

    Returns member lists (base ids, ascending within each component)
    for every component with at least ``min_size`` vertices, in
    first-vertex discovery order.
    """
    n = base.n
    parent = array("l", range(n))
    size = array("l", [1]) * n if n else array("l")
    indptr, indices = base.indptr, base.indices

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    released_vertex = 0
    released_entries = 0
    for v in range(n):
        end = indptr[v + 1]
        for w in indices[indptr[v]:end]:
            if w >= v:
                continue
            root_v = find(v)
            root_w = find(w)
            if root_v == root_w:
                continue
            if size[root_v] < size[root_w]:
                root_v, root_w = root_w, root_v
            parent[root_w] = root_v
            size[root_v] += size[root_w]
        if end - released_entries >= _SWEEP_RELEASE_STRIDE:
            base.release_rows(range(released_vertex, v + 1))
            released_vertex = v + 1
            released_entries = end
    if released_vertex:
        base.release_rows(range(released_vertex, n))

    # Group members per root with a counting sort over dense component
    # ids - no dict-of-lists, and ascending member order falls out of
    # the id scan.
    comp_of_root = {}
    comp_of = array("i", [0]) * n if n else array("i")
    sizes: List[int] = []
    for v in range(n):
        root = find(v)
        comp = comp_of_root.get(root)
        if comp is None:
            comp = len(sizes)
            comp_of_root[root] = comp
            sizes.append(0)
        comp_of[v] = comp
        sizes[comp] += 1
    offsets = [0]
    for count in sizes:
        offsets.append(offsets[-1] + count)
    cursor = list(offsets[:-1])
    members = array("i", [0]) * n if n else array("i")
    for v in range(n):
        comp = comp_of[v]
        members[cursor[comp]] = v
        cursor[comp] += 1
    return [
        list(members[offsets[c]:offsets[c + 1]])
        for c in range(len(sizes))
        if sizes[c] >= min_size
    ]


def enumerate_kvccs_outofcore(
    base: CSRGraph,
    k: int,
    options: Optional[KVCCOptions] = None,
    stats: Optional[RunStats] = None,
    materialize: bool = True,
) -> list:
    """All k-VCCs of ``base``, enumerated component-at-a-time.

    Same contract and answers as
    :func:`~repro.core.kvcc.enumerate_kvccs_csr` (every k-VCC lives
    inside one connected component, so per-component enumeration is
    exhaustive), but only one component's rows are resident at a time.
    Results are grouped by component in **largest-first** order (ties:
    smaller first member first) rather than the whole-graph driver's
    global discovery order; within a component, ordering matches the
    resident driver exactly.

    Components with at most ``k`` vertices are skipped without faulting
    their rows in - the engine's root peel would discard them anyway.

    The driver's residency is structurally one component at a time, so
    it takes no budget; ``stats.peak_rss_bytes`` records the run's
    observed RSS growth.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    options = options or KVCCOptions()
    stats = stats if stats is not None else RunStats(k=k)
    engine = SerialEngine()
    results: list = []
    with RssTracker(stats):
        components = streaming_components(base, min_size=k + 1)
        order = sorted(
            range(len(components)),
            key=lambda c: (-len(components[c]), components[c][0]),
        )
        for c in order:
            members = components[c]
            base.prepare_rows(members)
            view = base.view_from_members(members)
            results.extend(
                engine.run_many(
                    [view], k, options, stats, materialize=materialize
                )[0]
            )
            del view
            base.release_rows(members)
            components[c] = None  # free this component's id list
        base.release_rows()
    return results
