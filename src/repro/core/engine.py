"""Execution engines for the KVCC-ENUM worklist (Algorithm 1's driver).

After OVERLAP-PARTITION the worklist items are *independent*: cut
vertices are duplicated into every part (Lemma 8), so no child's result
depends on any sibling's.  That makes the recursion embarrassingly
parallel once the first cut is found, and this module turns the former
in-line worklist loop of :mod:`repro.core.kvcc` into a schedulable
subsystem with two interchangeable engines:

* :class:`SerialEngine` - the reference driver: a LIFO stack drained on
  the calling thread, byte-for-byte the behavior the paper's Algorithm 1
  pseudocode and the pre-engine releases had.
* :class:`ProcessPoolEngine` - fans worklist items out to a
  ``multiprocessing`` worker pool.  The immutable CSR base is shipped
  **at most once per worker** (in the pool initializer under spawn;
  under Linux fork it is inherited copy-on-write and never pickled at
  all); after that each task travels as a compact payload - the view's
  byte mask (placed in a :mod:`repro.core.mask_pool` shared-memory slot
  where the platform supports it, so only the slot address is pickled)
  plus the inherited/recheck strong-side-vertex id sets - and each
  result comes
  back as either a leaf (the k-VCC's member ids) or a list of child
  payloads to reschedule.  Per-task :class:`~repro.core.stats.RunStats`
  are merged into the caller's sink, and leaves are re-sorted by their
  position in the recursion tree so the output order is deterministic
  and *identical to the serial engine's*.

Determinism
-----------
Every work item carries a ``path``: the tuple of child indices from its
root (roots are ``(w, i)`` for the ``i``-th connected component of the
``w``-th input subgraph - ``run`` always passes one input - and the
``j``-th child of a partition appends ``j``).  The serial stack pops the most
recently pushed item first, which emits k-VCC leaves exactly in
*descending lexicographic* path order - so the parallel engine, which
completes leaves in whatever order the pool schedules them, just sorts
by path to reproduce the serial output order.  Counters are computed by
the same single-step code (:func:`expand_work_item`) in both engines, so
all deterministic :meth:`~repro.core.stats.RunStats.counters` agree as
well; only wall-clock and peak-residency proxies may differ.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import List, Optional, Set, Tuple, Union

import repro.core.mask_pool as mask_pool
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
    order.  Both engines run exactly this code per item, which is what
    keeps their counters and results identical.

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

    Mutates ``work`` (the engines own it) and records the peeled vertex
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
    """Drain the worklist on the calling thread (the reference driver)."""

    name = "serial"

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


# ----------------------------------------------------------------------
# Process-pool engine
# ----------------------------------------------------------------------

#: Tree address of a work item: input-entry index, root component index,
#: then child index per level.  Serial emission order is descending
#: lexicographic order of paths.
_Path = Tuple[int, ...]

#: Wire format of one work item: (body, inherited, recheck) where body
#: is the view's mask - ``bytes(mask)``, or the ``("shm", name,
#: offset)`` address of a :mod:`repro.core.mask_pool` slot holding it.
_Body = Union[bytes, Tuple[str, str, int]]
_Payload = Tuple[_Body, Optional[frozenset], Optional[frozenset]]

#: Per-worker immutable context: (CSR base, k, options).
_WORKER_STATE: Optional[Tuple[CSRGraph, int, KVCCOptions]] = None


def _encode_work_item(
    sub: SubgraphView,
    inherited: Optional[Set[int]],
    recheck: Optional[Set[int]],
) -> Tuple[_Payload, int]:
    """Serialize a work item into its wire payload plus its vertex count
    (kept master-side for the peak-residency proxy)."""
    return (
        (
            bytes(sub.mask),
            None if inherited is None else frozenset(inherited),
            None if recheck is None else frozenset(recheck),
        ),
        sub.num_vertices,
    )


def _init_worker(
    base: CSRGraph,
    k: int,
    options: KVCCOptions,
    shm_unregister: bool = False,
) -> None:
    """Pool initializer: receive the per-worker immutable context.

    This is the single point where the CSR base crosses a process
    boundary - at most once per worker, never per task.  Under a spawn
    context the initargs are pickled once per worker; under fork they
    are plain references inherited with the parent's address space, so
    the base is never pickled at all.  ``shm_unregister`` carries the
    resource-tracker policy for shared-memory attachment (see
    :func:`repro.core.mask_pool.configure_attach`).
    """
    global _WORKER_STATE
    _WORKER_STATE = (base, k, options)
    mask_pool.configure_attach(shm_unregister)


def _run_work_item(payload: _Payload):
    """Execute one worklist step in a worker process.

    Returns ``("vcc", members, stats)`` for a leaf - ``members`` is the
    sorted id list (the master rematerializes against its own base) -
    and ``("split", [(payload, size), ...], stats)`` otherwise.
    """
    base, k, options = _WORKER_STATE
    body, inherited, recheck = payload
    if isinstance(body, tuple):
        body = mask_pool.read_mask(body[1], body[2], base.n)
    sub = base.view_from_mask(body)
    stats = RunStats(k=k)
    stats.parallel_tasks = 1
    children = expand_work_item(
        sub,
        None if inherited is None else set(inherited),
        None if recheck is None else set(recheck),
        k,
        options,
        stats,
    )
    if children is None:
        return ("vcc", list(sub.active_list()), stats)
    return (
        "split",
        [_encode_work_item(c, inh, re) for c, inh, re in children],
        stats,
    )


class ProcessPoolEngine:
    """Fan independent worklist items out to ``multiprocessing`` workers.

    Parameters
    ----------
    workers:
        Pool size; ``0`` means ``os.cpu_count()``.  (``workers=1`` is
        accepted and runs a one-process pool - useful for testing the
        machinery - but :func:`create_engine` routes 1 to
        :class:`SerialEngine`.)
    mp_context:
        Optional ``multiprocessing`` context.  The default uses ``fork``
        on Linux (cheap worker startup, and the CSR base is inherited
        copy-on-write instead of being pickled per worker) and the
        platform default elsewhere - notably macOS, where CPython
        switched the default to ``spawn`` because forked children crash
        inside Apple frameworks.
    """

    name = "process"

    def __init__(self, workers: int = 0, mp_context=None) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers or (os.cpu_count() or 1)
        self._mp_context = mp_context

    def _context(self):
        if self._mp_context is not None:
            return self._mp_context
        # Only Linux gets fork by preference: fork is *listed* as
        # available on macOS too, but forked children abort inside
        # Apple frameworks (which is why 3.8 made spawn the default
        # there) - respect that default everywhere but Linux.
        if sys.platform.startswith("linux"):
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def run(
        self,
        work: SubgraphView,
        k: int,
        options: KVCCOptions,
        stats: RunStats,
    ) -> List[Graph]:
        """All k-VCCs inside ``work``, in the serial engine's order."""
        return self.run_many([work], k, options, stats)[0]

    def run_many(
        self,
        works: List[SubgraphView],
        k: int,
        options: KVCCOptions,
        stats: RunStats,
        materialize: bool = True,
    ) -> List[list]:
        """Drain several independent root subgraphs through **one** pool.

        This is how the hierarchy and sweep drivers parallelize a whole
        level at once: every parent component contributes its root work
        items up front, so the pool is paid for once per level instead
        of once per parent.  All entries of ``works`` must share one
        base (they do, by construction, in the level-by-level drivers).
        Results are grouped by input entry, each group in the serial
        engine's order.  ``materialize=False`` returns member lists
        instead of :class:`Graph` objects (see :func:`_finalize_leaf`).

        The merged stage rows are summed *worker* time, which can
        exceed this run's wall time, so no ``other`` row is added.
        """
        with Timer(stats):
            grouped: List[list] = [[] for _ in works]
            base: Optional[CSRGraph] = None
            pending: List[Tuple[_Path, _Payload, int]] = []
            for w_idx, work in enumerate(works):
                if base is None:
                    base = work.base
                elif base is not work.base:
                    raise ValueError(
                        "run_many requires all views to share one base"
                    )
                for i, sub in enumerate(root_work_items(work, k, stats)):
                    payload, size = _encode_work_item(sub, None, None)
                    pending.append(((w_idx, i), payload, size))
            if not pending:
                return grouped
            # Workers never re-parallelize: a forked pool inside a
            # daemonic worker is forbidden, and the fan-out already
            # saturates this pool.
            worker_options = dataclasses.replace(options, workers=1)

            resident = sum(size for _, _, size in pending)
            peak = resident

            # Mask payloads ride in shared-memory slots when the
            # platform has them: the task message then carries only the
            # slot address, not the n-byte mask itself.  Children come
            # back from workers as plain bytes and are re-pooled here
            # when rescheduled.  Slots are freed as futures complete
            # (the worker reads the mask inside the task, so completion
            # proves the slot is no longer needed).
            slots: Optional[mask_pool.MaskPool] = None
            if mask_pool.available():
                slots = mask_pool.MaskPool(base.n)

            leaves: List[Tuple[_Path, List[int]]] = []
            ctx = self._context()
            # Tracker policy: CPython hands every worker the master's
            # resource-tracker fd under fork AND spawn, so worker-side
            # unregistration would erase the master's own registration
            # and break its unlink.  Re-registering into the shared
            # tracker is idempotent, so workers must never unregister.
            shm_unregister = False
            try:
                with ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=ctx,
                    initializer=_init_worker,
                    initargs=(base, k, worker_options, shm_unregister),
                ) as pool:
                    inflight = {}
                    while pending or inflight:
                        while pending:
                            path, payload, size = pending.pop()
                            slot = None
                            if slots is not None:
                                slot = slots.put(payload[0])
                                payload = (
                                    ("shm",) + slot,
                                    payload[1],
                                    payload[2],
                                )
                            future = pool.submit(_run_work_item, payload)
                            inflight[future] = (path, size, slot)
                        done, _ = wait(
                            set(inflight), return_when=FIRST_COMPLETED
                        )
                        for future in done:
                            path, size, slot = inflight.pop(future)
                            kind, data, task_stats = future.result()
                            if slot is not None:
                                slots.free(*slot)
                            stats.merge(task_stats)
                            resident -= size
                            if kind == "vcc":
                                leaves.append((path, data))
                                continue
                            for j, (payload, child_size) in enumerate(data):
                                pending.append(
                                    (path + (j,), payload, child_size)
                                )
                                resident += child_size
                            peak = max(peak, resident)
            finally:
                if slots is not None:
                    slots.close()
            stats.peak_resident_vertices = max(
                stats.peak_resident_vertices, peak
            )

            # Descending lexicographic path order == the order the serial
            # LIFO stack emits leaves (later roots first, last-pushed
            # child's subtree before its earlier siblings).  Grouping by
            # the leading work index preserves that order within each
            # input entry.
            leaves.sort(key=lambda leaf: leaf[0], reverse=True)
            for path, data in leaves:
                grouped[path[0]].append(
                    base.materialize_members(data) if materialize else data
                )
            return grouped


def create_engine(
    options: KVCCOptions,
) -> Union[SerialEngine, ProcessPoolEngine]:
    """The engine selected by ``options.workers``.

    ``workers=1`` (the default) is the serial reference driver;
    ``workers=0`` a process pool sized to the machine; ``workers=N>1``
    a pool of exactly ``N`` processes.
    """
    if options.workers < 0:
        raise ValueError(
            f"options.workers must be >= 0, got {options.workers}"
        )
    if options.workers == 1:
        return SerialEngine()
    return ProcessPoolEngine(options.workers)
