"""The KVCC-ENUM worklist driver (Algorithm 1's loop).

After OVERLAP-PARTITION the worklist items are *independent*: cut
vertices are duplicated into every part (Lemma 8), so no child's result
depends on any sibling's.  :class:`SerialEngine` drains the worklist on
the calling thread; :func:`expand_work_item` is one step of Algorithm 1
on one item, and :func:`root_work_items` turns an input view into the
root items.

The multi-k loops (the hierarchy, the k-sweep and the index updater)
descend one level at a time through :meth:`SerialEngine.run_level`.
Each k-VCC found there is probed once by :func:`connectivity_floor`,
and a component proven k'-connected is its own k'-VCC at every level up
to k', so those levels pass it through without a GLOBAL-CUT.

Determinism
-----------
The worklist is a LIFO stack (last in, first out), and the input views
of :meth:`SerialEngine.run_many` are drained one after another.  A
view's roots are pushed in connected-component order and a partition's
children in :func:`expand_work_item`'s push order, and the stack pops
the most recently pushed item first: the last root's subtree is drained
before the earlier roots, and within a partition the last child's
subtree before its earlier siblings.  k-VCC leaves are emitted in that
order, so the output order, like every counter in
:meth:`~repro.core.stats.RunStats.counters`, is a function of
(graph, k, options) alone.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core.global_cut import global_cut
from repro.core.options import KVCCOptions
from repro.core.partition import overlap_partition
from repro.core.side_vertex import split_inheritance, strong_side_vertices
from repro.core.stats import RunStats, Timer
from repro.graph.connectivity import connected_components
from repro.graph.core_decomposition import peel_in_place
from repro.graph.csr import CSRGraph, SubgraphView
from repro.graph.graph import Graph

#: Worklist entry: (subgraph, inherited strong set, recheck set).  The
#: two sets are ``None`` for roots, which get a full Theorem-8 scan.
WorkItem = Tuple[SubgraphView, Optional[Set[int]], Optional[Set[int]]]

#: A component between levels of a multi-k loop: (sorted member ids,
#: floor), where the component is proven floor-vertex-connected.
Component = Tuple[Sequence[int], int]


def expand_work_item(
    sub: SubgraphView,
    inherited: Optional[Set[int]],
    recheck: Optional[Set[int]],
    k: int,
    options: KVCCOptions,
    stats: RunStats,
) -> Optional[List[WorkItem]]:
    """One step of Algorithm 1 on one worklist item.

    Runs the strong side-vertex maintenance (Lemmas 15-16), GLOBAL-CUT,
    and - when a cut is found - OVERLAP-PARTITION plus the per-part
    k-core peel.  Returns ``None`` when ``sub`` is a k-VCC (and counts
    it), otherwise the list of child work items in deterministic push
    order.

    At ``k = 1`` every item is a leaf: items are connected views with
    more than ``k`` vertices, and such a view has no vertex cut of size
    0 (Definition 4), so the side-vertex scan and GLOBAL-CUT are
    skipped.
    """
    if k == 1:
        stats.kvccs_found += 1
        return None
    strong: Optional[Set[int]] = None
    if options.side_vertices_enabled:
        t0 = time.perf_counter()
        if inherited is not None:
            strong = inherited | strong_side_vertices(sub, k, recheck)
        else:
            strong = strong_side_vertices(sub, k)
        stats.add_stage("side_vertex", time.perf_counter() - t0)

    cut = global_cut(sub, k, options, stats, precomputed_strong=strong)
    if cut is None:
        stats.kvccs_found += 1
        return None

    stats.partitions += 1
    maintain = (
        options.side_vertices_enabled and options.maintain_side_vertices
    )
    children: List[WorkItem] = []
    t0 = time.perf_counter()
    parts = overlap_partition(sub, cut)
    stats.add_stage("partition", time.perf_counter() - t0)
    for part in parts:
        t0 = time.perf_counter()
        peel_in_place(part, k)
        t1 = time.perf_counter()
        stats.add_stage("peel", t1 - t0)
        for comp in connected_components(part):
            if len(comp) <= k:
                continue
            child = part.restrict(comp)
            if maintain and strong is not None:
                inh, re = split_inheritance(sub, child, strong)
                children.append((child, inh, re))
            else:
                children.append((child, None, None))
        stats.add_stage("partition", time.perf_counter() - t1)
    return children


def root_work_items(
    work: SubgraphView, k: int, stats: RunStats
) -> List[SubgraphView]:
    """Peel ``work`` to its k-core and split it into root subgraphs.

    Mutates ``work`` (the engine owns it) and records the peeled vertex
    count; components of at most ``k`` vertices cannot hold a k-VCC
    (Definition 4 requires ``|V| > k``) and are dropped.
    """
    t0 = time.perf_counter()
    removed = peel_in_place(work, k)
    t1 = time.perf_counter()
    stats.add_stage("peel", t1 - t0)
    stats.kcore_removed_vertices += len(removed)
    roots = [
        work.restrict(comp)
        for comp in connected_components(work)
        if len(comp) > k
    ]
    stats.add_stage("partition", time.perf_counter() - t1)
    return roots


def connectivity_floor(
    view: SubgraphView,
    k: int,
    next_k: Optional[int],
    max_k: Optional[int],
    options: KVCCOptions,
    stats: RunStats,
) -> int:
    """A proven connectivity floor for ``view``, a k-VCC just found.

    The bound starts at the view's minimum degree (no graph is more
    vertex-connected than that), capped at ``max_k``.  GLOBAL-CUT runs
    at the bound; a cut ``S`` proves the view is not (|S|+1)-connected,
    so the next try is at |S|.  The first bound at which GLOBAL-CUT
    finds no cut is returned.  The probe gives up, returning ``k``,
    once the bound drops below ``next_k``, the next level the caller
    needs (``None``: no further level, so no probe at all).  The result
    is always a bound GLOBAL-CUT has proven, or the k the view was
    found at, never an estimate.
    """
    if next_k is None:
        return k
    bound = view.min_degree()
    if max_k is not None:
        bound = min(bound, max_k)
    while bound >= next_k:
        cut = global_cut(view, bound, options, stats)
        if cut is None:
            return bound
        bound = len(cut)
    return k


def _finalize_leaf(sub: SubgraphView, materialize: bool):
    """Turn a proven k-VCC into the caller-facing leaf value.

    ``materialize=True`` yields the usual owned, labeled :class:`Graph`;
    ``materialize=False`` yields only the sorted base-id member list,
    which is what the hierarchy and sweep drivers feed back into the
    next level without paying for interior dict adjacency.
    """
    if materialize:
        return sub.materialize()
    return list(sub.active_list())


class SerialEngine:
    """Drain the worklist on the calling thread."""

    def run(
        self,
        work: SubgraphView,
        k: int,
        options: KVCCOptions,
        stats: RunStats,
    ) -> List[Graph]:
        """All k-VCCs inside ``work`` (which this engine consumes)."""
        return self.run_many([work], k, options, stats)[0]

    def run_many(
        self,
        works: List[SubgraphView],
        k: int,
        options: KVCCOptions,
        stats: RunStats,
        materialize: bool = True,
        probe: Optional[Callable[[SubgraphView], int]] = None,
    ) -> List[list]:
        """Drain several independent root subgraphs, one result list each.

        :meth:`run_level` calls this with one entry per parent
        component; each entry is processed exactly as :meth:`run`
        would, and the results are grouped in input order.
        ``materialize=False`` returns each k-VCC as its member list
        instead of a materialized :class:`Graph` (see
        :func:`_finalize_leaf`).  ``probe``, when given, runs on each
        k-VCC's view as soon as it is proven, and the leaf comes back
        as ``(leaf, probe(view))``.

        The run's wall time not covered by a stage row (probes
        included) is added to the ``other`` row, so this run's stage
        rows sum to its ``elapsed_seconds``.
        """
        elapsed0 = stats.elapsed_seconds
        staged0 = sum(stats.stage_seconds.values())
        with Timer(stats):
            out: List[list] = []
            for work in works:
                result: list = []
                stack: List[WorkItem] = []
                resident = 0
                for sub in root_work_items(work, k, stats):
                    stack.append((sub, None, None))
                    resident += sub.num_vertices
                stats.peak_resident_vertices = max(
                    stats.peak_resident_vertices, resident
                )
                while stack:
                    sub, inherited, recheck = stack.pop()
                    resident -= sub.num_vertices
                    children = expand_work_item(
                        sub, inherited, recheck, k, options, stats
                    )
                    if children is None:
                        leaf = _finalize_leaf(sub, materialize)
                        result.append(
                            leaf if probe is None else (leaf, probe(sub))
                        )
                        continue
                    for item in children:
                        stack.append(item)
                        resident += item[0].num_vertices
                    stats.peak_resident_vertices = max(
                        stats.peak_resident_vertices, resident
                    )
                out.append(result)
        staged = sum(stats.stage_seconds.values()) - staged0
        stats.add_stage("other", stats.elapsed_seconds - elapsed0 - staged)
        return out

    def run_level(
        self,
        base: CSRGraph,
        parents: Sequence[Component],
        k: int,
        options: KVCCOptions,
        stats: RunStats,
        next_k: Optional[int] = None,
        max_k: Optional[int] = None,
    ) -> List[List[Component]]:
        """Level k of a multi-k loop: each parent's k-VCCs, with floors.

        ``parents`` are :data:`Component` pairs over ``base``; the
        result holds one list of child components per parent, in input
        order.  A parent whose floor is at least k is k-connected with
        more than k vertices (the floor never exceeds the minimum
        degree), so it is its own and only k-VCC: it becomes its child
        without an engine call.  Every other parent drains through one
        :meth:`run_many`, and each k-VCC found there gets its floor
        from :func:`connectivity_floor` for the levels from ``next_k``
        up to ``max_k``.  Either way the children and their order are
        exactly what :meth:`run_many` alone would give.
        """

        def probe(view: SubgraphView) -> int:
            return connectivity_floor(view, k, next_k, max_k, options, stats)

        works = [
            base.full_view() if len(m) == base.n else base.view_from_members(m)
            for m, floor in parents
            if floor < k
        ]
        drained = iter(
            self.run_many(
                works, k, options, stats, materialize=False, probe=probe
            )
            if works
            else ()
        )
        out: List[List[Component]] = []
        for members, floor in parents:
            if floor >= k:
                stats.kvccs_found += 1
                out.append([(members, floor)])
            else:
                out.append(next(drained))
        return out
