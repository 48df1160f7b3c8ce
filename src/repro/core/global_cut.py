"""GLOBAL-CUT and GLOBAL-CUT* (Algorithms 2 and 3).

Find a vertex cut with fewer than ``k`` vertices, or report that none
exists (the graph is k-vertex-connected).  The two-phase scheme follows
Even/Esfahanian-Hakimi: fix a source vertex ``u``;

* **phase 1** tests ``u`` against every other vertex - if some minimal
  < k cut excludes ``u``, one of these tests finds it;
* **phase 2** covers the remaining case ``u ∈ S`` by testing all pairs of
  neighbors of ``u`` (Lemma 4 guarantees a witnessing pair).

Every optimization of Section 5 hangs off this routine:

* the flow network is built once per call, on the sparse certificate
  (Section 4.2), and reset between LOC-CUT queries;
* phase 1 processes vertices farthest-first (Algorithm 3, line 11);
* strong side-vertices and side-groups feed the SWEEP cascades that skip
  tests (Sections 5.1-5.2);
* a strong side-vertex source makes phase 2 unnecessary (it cannot be
  inside any minimal < k cut);
* same-side-group neighbor pairs are skipped in phase 2 (GS rule 3).

Every returned cut is validated against the *actual* graph (one BFS); if
the certificate ever produced a non-cut - which the
Cheriyan-Kao-Thurimella strong-certificate property rules out, but which
would otherwise send KVCC-ENUM into infinite recursion - the routine
falls back to a certificate-free recomputation and, failing that, raises.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Set

import repro.kernels as kernels
from repro.certificate.side_groups import side_groups_from_forest
from repro.certificate.sparse_certificate import sparse_certificate
from repro.core.options import KVCCOptions
from repro.core.side_vertex import strong_side_vertices
from repro.core.stats import RunStats, TESTED
from repro.core.sweep import SweepState
from repro.flow.flow_network import build_flow_network
from repro.flow.min_cut import local_vertex_cut
from repro.graph.connectivity import is_vertex_cut
from repro.graph.csr import SubgraphView


def global_cut(
    graph: SubgraphView,
    k: int,
    options: Optional[KVCCOptions] = None,
    stats: Optional[RunStats] = None,
    precomputed_strong: Optional[Set[int]] = None,
) -> Optional[Set[int]]:
    """A vertex cut of ``graph`` with fewer than ``k`` vertices, or ``None``.

    ``None`` means the graph is k-vertex-connected (assuming the caller
    passes a connected graph with more than ``k`` vertices, as KVCC-ENUM
    does after peeling).

    ``graph`` is a CSR :class:`~repro.graph.csr.SubgraphView`, and the
    cut comes back in its base ids; every step below (certificate, flow
    network, sweeps, side-vertices, BFS ordering) runs on the view or
    on the certificate's id-space adjacency.

    Parameters
    ----------
    options:
        Strategy switches; defaults to the fully optimized GLOBAL-CUT*.
    stats:
        Counter sink; created ad hoc when omitted.
    precomputed_strong:
        Strong side-vertices of ``graph``, already computed by the caller
        (KVCC-ENUM maintains them across partitions per Lemmas 15-16).
        ``None`` triggers a full Theorem-8 scan when side-vertices are
        enabled.
    """
    options = options or KVCCOptions()
    stats = stats if stats is not None else RunStats(k=k)
    stats.global_cut_calls += 1

    cut = _global_cut_once(graph, k, options, stats, precomputed_strong)
    if cut is None:
        return None
    if is_vertex_cut(graph, cut):
        return cut
    # Defensive fallback (see module docstring): recompute without the
    # certificate so the flow runs on the real graph.
    if options.use_certificate:
        fallback = KVCCOptions(
            use_certificate=False,
            neighbor_sweep=options.neighbor_sweep,
            group_sweep=False,
            farthest_first=options.farthest_first,
            source_strong_side_vertex=options.source_strong_side_vertex,
            maintain_side_vertices=False,
            seed=options.seed,
        )
        cut = _global_cut_once(graph, k, fallback, stats, None)
        if cut is None:
            return None
        if is_vertex_cut(graph, cut):
            return cut
    raise AssertionError(
        "GLOBAL-CUT produced a non-cut twice; this indicates a bug in the "
        "flow or certificate machinery"
    )


def _global_cut_once(
    graph: SubgraphView,
    k: int,
    options: KVCCOptions,
    stats: RunStats,
    precomputed_strong: Optional[Set[int]],
) -> Optional[Set[int]]:
    """One attempt at finding a < k cut (no validation)."""
    n = graph.num_vertices
    if n <= 2:
        return None  # no vertex cut can exist (Definition 4 needs 2 sides)

    # --- Algorithm 3, lines 1-2: certificate + flow network ------------
    if options.use_certificate:
        t0 = time.perf_counter()
        cert = sparse_certificate(graph, k)
        stats.add_stage("certificate", time.perf_counter() - t0)
        work = cert.graph
        stats.certificate_edges_kept += work.num_edges
        stats.certificate_edges_input += graph.num_edges
    else:
        cert = None
        work = graph
    t0 = time.perf_counter()
    net = build_flow_network(work, k)
    stats.add_stage("flow_build", time.perf_counter() - t0)

    # --- Algorithm 3, line 1 (side-groups) and line 3 (side-vertices) --
    groups: List[Set[int]] = []
    if options.group_sweep and cert is not None:
        t0 = time.perf_counter()
        groups = side_groups_from_forest(cert, k)
        stats.add_stage("side_groups", time.perf_counter() - t0)
    strong: Set[int] = set()
    if options.side_vertices_enabled:
        if precomputed_strong is not None:
            strong = {v for v in precomputed_strong if v in graph}
        else:
            t0 = time.perf_counter()
            strong = strong_side_vertices(graph, k)
            stats.add_stage("side_vertex", time.perf_counter() - t0)

    # --- Algorithm 3, lines 4-7: source selection -----------------------
    if strong and options.source_strong_side_vertex:
        source = _pick_strong_source(graph, strong, options.seed)
    else:
        source = graph.min_degree_vertex()

    state = SweepState(
        adjacency=work,
        k=k,
        strong=strong,
        groups=groups,
        neighbor_sweep=options.neighbor_sweep,
        group_sweep=options.group_sweep,
    )
    state.sweep(source)  # line 10: the source is k-connected with itself

    # --- Phase 1 (lines 11-15): u versus every other vertex -------------
    order = _phase1_order(work, source, options)
    for v in order:
        if v == source:
            continue
        if state.is_swept(v):
            stats.record_prune(state.reason[v])
            continue
        stats.phase1_tested += 1
        cut = _loc_cut(graph, net, source, v, k, stats)
        if cut is not None:
            return cut
        state.sweep(v, TESTED)

    # --- Phase 2 (lines 16-21): u may itself be in the cut ---------------
    if source in strong:
        return None  # a strong side-vertex is in no minimal < k cut
    neighbors = list(graph.neighbors(source))
    for i, va in enumerate(neighbors):
        for vb in neighbors[i + 1 :]:
            if options.group_sweep and state.same_group(va, vb):
                stats.phase2_skipped_group += 1
                continue  # GS rule 3
            stats.phase2_tested += 1
            cut = _loc_cut(graph, net, va, vb, k, stats)
            if cut is not None:
                return cut
    return None


def _loc_cut(
    graph: SubgraphView,
    net,
    u: int,
    v: int,
    k: int,
    stats: RunStats,
) -> Optional[Set[int]]:
    """LOC-CUT wrapper: adjacency shortcut on the *original* graph.

    Lemma 5 holds for the graph's own edges, which are a superset of the
    certificate's - checking adjacency on ``graph`` skips strictly more
    trivial queries than checking on the certificate would.
    """
    if u == v or graph.has_edge(u, v):
        return None
    stats.flow_tests += 1
    t0 = time.perf_counter()
    cut = local_vertex_cut(graph, net, u, v, k)
    stats.add_stage("flow", time.perf_counter() - t0)
    return cut


def _phase1_order(work, source: int, options: KVCCOptions):
    """Phase-1 vertex order: farthest-first (line 11) or natural.

    Farthest-first is a kernel call: BFS distance from ``source``
    descending, ties in vertex order, unreachable vertices (disconnected
    input) in front - their flow test immediately yields the empty cut,
    splitting the graph.
    """
    if not options.farthest_first:
        return list(work.vertices())
    return kernels.select().farthest_first(work, source)


def _pick_strong_source(
    graph: SubgraphView, strong: Set[int], seed: int
) -> int:
    """Algorithm 3 line 7: pick a strong side-vertex as the source.

    The paper picks randomly; we draw through a seeded RNG over the
    graph's deterministic vertex order so runs are reproducible.
    """
    ordered = [v for v in graph.vertices() if v in strong]
    if len(ordered) == 1:
        return ordered[0]
    return random.Random(seed).choice(ordered)
