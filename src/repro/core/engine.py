"""The KVCC-ENUM worklist driver (Algorithm 1's loop).

After OVERLAP-PARTITION the worklist items are *independent*: cut
vertices are duplicated into every part (Lemma 8), so no child's result
depends on any sibling's.  :class:`SerialEngine` drains the worklist on
the calling thread; :func:`expand_work_item` is one step of Algorithm 1
on one item, and :func:`root_work_items` turns an input view into the
root items.

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
from typing import List, Optional, Set, Tuple

from repro.core.global_cut import global_cut
from repro.core.options import KVCCOptions
from repro.core.partition import overlap_partition
from repro.core.side_vertex import split_inheritance, strong_side_vertices
from repro.core.stats import RunStats, Timer
from repro.graph.connectivity import connected_components
from repro.graph.core_decomposition import peel_in_place
from repro.graph.csr import SubgraphView
from repro.graph.graph import Graph

#: Worklist entry: (subgraph, inherited strong set, recheck set).  The
#: two sets are ``None`` for roots, which get a full Theorem-8 scan.
WorkItem = Tuple[SubgraphView, Optional[Set[int]], Optional[Set[int]]]


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
    ) -> List[list]:
        """Drain several independent root subgraphs, one result list each.

        The hierarchy and sweep drivers call this with one entry per
        parent component; each entry is processed exactly as
        :meth:`run` would, and the results are grouped in input order.
        ``materialize=False`` returns each k-VCC as its member list
        instead of a materialized :class:`Graph` (see
        :func:`_finalize_leaf`).

        The run's wall time not covered by a stage row is added to the
        ``other`` row, so this run's stage rows sum to its
        ``elapsed_seconds``.
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
                        result.append(_finalize_leaf(sub, materialize))
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
