"""Tests for GLOBAL-CUT / GLOBAL-CUT* (cut existence and validity)."""

import tracemalloc
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro.kernels as kernels
from repro.certificate.sparse_certificate import sparse_certificate
from repro.core.global_cut import global_cut
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.core.variants import VARIANTS
from repro.graph.connectivity import is_vertex_cut
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    overlapping_cliques_graph,
)
from repro.graph.graph import Graph

from helpers import as_view, random_connected_graph

ALL_OPTIONS = list(VARIANTS.values()) + [
    KVCCOptions(use_certificate=False, neighbor_sweep=False,
                group_sweep=False, maintain_side_vertices=False),
    KVCCOptions(farthest_first=False),
    KVCCOptions(source_strong_side_vertex=False),
]


class TestBasicBehavior:
    def test_complete_graph_no_cut(self):
        view = as_view(complete_graph(6))
        for options in ALL_OPTIONS:
            assert global_cut(view, 4, options) is None

    def test_cycle_has_two_cut(self):
        g = cycle_graph(8)
        cut = global_cut(as_view(g), 3)
        assert cut is not None
        assert len(cut) == 2
        assert is_vertex_cut(g, cut)

    def test_cycle_is_two_connected(self):
        assert global_cut(as_view(cycle_graph(8)), 2) is None

    def test_two_cliques_shared_overlap(self, two_cliques_shared_edge):
        cut = global_cut(as_view(two_cliques_shared_edge), 3)
        assert cut is not None
        assert len(cut) == 2
        assert is_vertex_cut(two_cliques_shared_edge, cut)

    def test_tiny_graph_no_cut(self):
        assert global_cut(as_view(Graph([(0, 1)])), 2) is None
        assert global_cut(as_view(Graph(vertices=[0])), 1) is None

    def test_disconnected_graph_yields_cut(self):
        """A disconnected input comes back with a (possibly empty) cut."""
        g = Graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        cut = global_cut(as_view(g), 2)
        assert cut is not None
        assert is_vertex_cut(g, cut)

    def test_stats_counters(self):
        stats = RunStats(k=2)
        global_cut(as_view(cycle_graph(10)), 2, VARIANTS["VCCE"], stats)
        assert stats.global_cut_calls == 1
        assert stats.flow_tests > 0


class TestAgainstNetworkx:
    @pytest.mark.parametrize("options_idx", range(len(ALL_OPTIONS)))
    def test_cut_found_iff_below_k(self, options_idx):
        """global_cut returns a valid cut exactly when kappa(G) < k."""
        options = ALL_OPTIONS[options_idx]
        for seed in range(12):
            g = random_connected_graph(10, 0.45, seed=seed)
            view = as_view(g)
            kappa = nx.node_connectivity(g.to_networkx())
            for k in (1, 2, 3, 4):
                if g.num_vertices <= k:
                    continue
                cut = global_cut(view, k, options)
                if kappa >= k:
                    assert cut is None, (seed, k, kappa, cut)
                else:
                    assert cut is not None, (seed, k, kappa)
                    assert len(cut) < k
                    assert is_vertex_cut(g, cut)


class TestPrecomputedStrong:
    def test_precomputed_strong_used(self):
        from repro.core.side_vertex import strong_side_vertices

        g = overlapping_cliques_graph(6, 2, 2)
        view = as_view(g)
        k = 3
        strong = strong_side_vertices(view, k)
        cut_a = global_cut(view, k, precomputed_strong=strong)
        cut_b = global_cut(view, k)
        # Both find *a* valid < k cut (possibly different ones).
        for cut in (cut_a, cut_b):
            assert cut is not None and len(cut) < k
            assert is_vertex_cut(g, cut)

    def test_stale_strong_vertices_filtered(self):
        view = as_view(complete_graph(5))
        # 99 does not exist; it must be ignored, not crash.
        assert global_cut(view, 3, precomputed_strong={0, 99}) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000), st.integers(2, 4))
def test_returned_cut_is_always_valid(seed, k):
    g = random_connected_graph(9, 0.4, seed=seed)
    cut = global_cut(as_view(g), k)
    if cut is not None:
        assert len(cut) < k
        assert is_vertex_cut(g, cut)
    else:
        assert nx.node_connectivity(g.to_networkx()) >= min(
            k, g.num_vertices - 1
        )


# ----------------------------------------------------------------------
# Cost contract: a GLOBAL-CUT step over a view costs O(view), not O(base)
# ----------------------------------------------------------------------
CLIQUE = 12
SMALL_PAD, LARGE_PAD = 20_000, 200_000

#: Allowed growth of one call's tracemalloc peak per extra base vertex.
#: Base-length C-level fills (byte masks, ``[-1] * n`` lists, int64
#: ``np.full`` lookups) may scale with the base: a few of them alive at
#: once stay under 32 bytes per vertex.  Any per-base-vertex Python
#: object breaks it - an empty certificate row alone is a 56-byte list
#: plus its 8-byte slot.
BYTES_PER_BASE_VERTEX = 32


def padded_clique_view(pad: int):
    """A ``CLIQUE``-vertex clique spread over a base padded with ``pad``
    isolated vertices, as a view of just the clique."""
    n = CLIQUE + pad
    members = [i * (n // CLIQUE) for i in range(CLIQUE)]
    member_set = set(members)
    indptr = array("l", [0]) * (n + 1)
    total = 0
    for v in range(n):
        if v in member_set:
            total += CLIQUE - 1
        indptr[v + 1] = total
    indices = array("l")
    for v in members:
        indices.extend(w for w in members if w != v)
    return CSRGraph(n, indptr, indices).view_from_members(members)


@pytest.fixture(scope="module")
def padded_views():
    return padded_clique_view(SMALL_PAD), padded_clique_view(LARGE_PAD)


def global_cut_peak_bytes(view, k: int) -> int:
    """tracemalloc peak of one ``global_cut`` call on ``view``."""
    # Warm the base's lazily built, shared row caches first: they are
    # built once per base, not per step.
    assert global_cut(view, k) is None
    tracemalloc.start()
    try:
        assert global_cut(view, k) is None
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", kernels.available())
class TestViewSizedCost:
    def test_certificate_rows_are_member_only(self, padded_views, kernel):
        _, view = padded_views
        members = view.active_list()
        with kernels.use(kernel):
            for k in (3, 4, 5):
                cert = sparse_certificate(view, k).graph
                assert list(cert.adj) == members
                assert cert.n == view.base.n
                assert all(cert.degree(v) >= k for v in members)
                for v in (members[0] + 1, members[-1] + 1, 1):
                    assert v not in view
                    assert v not in cert
                    assert cert.degree(v) == 0
                    assert cert.neighbors(v) == []
                    assert not cert.has_edge(v, members[0])
                    assert not cert.has_edge(members[0], v)

    def test_global_cut_peak_does_not_grow_with_base(
        self, padded_views, kernel
    ):
        small, large = padded_views
        with kernels.use(kernel):
            for k in (3, 4, 5):
                growth = global_cut_peak_bytes(
                    large, k
                ) - global_cut_peak_bytes(small, k)
                per_vertex = growth / (LARGE_PAD - SMALL_PAD)
                assert per_vertex < BYTES_PER_BASE_VERTEX, (k, per_vertex)
