"""Tests for scan-first search, sparse certificates and side-groups."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.certificate.scan_first_search import forest_components
from repro.certificate.side_groups import group_index, side_groups_from_forest
from repro.certificate.sparse_certificate import sparse_certificate
from repro.graph.connectivity import components_after_removal, is_connected
from repro.graph.generators import complete_graph, gnp_random_graph
from repro.graph.graph import Graph

from helpers import as_view, random_connected_graph


def forests(graph, k):
    """The selected kernel's ``k`` successive scan-first forests."""
    return sparse_certificate(as_view(graph), k).forests


def cert_graph(cert) -> Graph:
    """A certificate's id-space adjacency as a ``Graph`` on the same ids."""
    adj = cert.graph
    out = Graph(vertices=adj.vertices())
    for u in adj.vertices():
        for w in adj.neighbors(u):
            out.add_edge(u, w)
    return out


class TestScanFirstSearch:
    def test_forest_spans_connected_graph(self):
        g = random_connected_graph(12, 0.3, seed=1)
        forest = forests(g, 1)[0]
        assert len(forest) == g.num_vertices - 1  # spanning tree

    def test_forest_edges_are_graph_edges(self):
        g = gnp_random_graph(10, 0.4, seed=2)
        for forest in forests(g, 3):
            for u, v in forest:
                assert g.has_edge(u, v)

    def test_forbidden_edges_excluded(self):
        """Each forest avoids the earlier forests' edges (Theorem 5)."""
        g = complete_graph(6)
        f1, f2 = forests(g, 2)
        used = {frozenset(e) for e in f1}
        assert not ({frozenset(e) for e in f2} & used)

    def test_forest_per_component(self):
        g = Graph([(0, 1), (1, 2), (3, 4)])
        assert len(forests(g, 1)[0]) == 3  # 2 + 1 tree edges

    def test_forest_is_acyclic(self):
        g = gnp_random_graph(12, 0.5, seed=3)
        # A forest has (vertices touched) - (trees) edges; verify via
        # union-find component count.
        for forest in forests(g, 3):
            comps = forest_components(g.vertices(), forest)
            assert len(forest) == g.num_vertices - len(comps)

    def test_forest_components_isolated(self):
        comps = forest_components([1, 2, 3], [(1, 2)])
        assert sorted(map(sorted, comps)) == [[1, 2], [3]]


class TestSparseCertificate:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            sparse_certificate(as_view(Graph([(0, 1)])), 0)

    def test_edge_bound(self):
        """Theorem 5: the certificate has at most k(n-1) edges."""
        for seed in range(10):
            g = gnp_random_graph(14, 0.6, seed=seed)
            for k in (1, 2, 3, 4):
                cert = sparse_certificate(as_view(g), k)
                assert cert.graph.num_edges <= k * max(
                    0, g.num_vertices - 1
                )

    def test_certificate_subgraph(self):
        g = gnp_random_graph(12, 0.5, seed=7)
        cert = cert_graph(sparse_certificate(as_view(g), 3))
        assert cert.vertex_set() == g.vertex_set()
        for u, v in cert.edges():
            assert g.has_edge(u, v)

    def test_k_connectivity_preserved(self):
        """Definition 7: SC k-connected iff G k-connected."""
        for seed in range(12):
            g = random_connected_graph(10, 0.5, seed=seed)
            nxg = g.to_networkx()
            kappa = nx.node_connectivity(nxg)
            for k in (1, 2, 3, 4):
                cert = cert_graph(sparse_certificate(as_view(g), k))
                cert_kappa = nx.node_connectivity(cert.to_networkx())
                assert (kappa >= k) == (cert_kappa >= k)

    def test_strong_cut_preservation(self):
        """For |S| < k, components of SC - S equal components of G - S.

        This is the property GLOBAL-CUT actually relies on when it maps a
        certificate cut back onto the original graph.
        """
        import random as _random

        rng = _random.Random(0)
        for seed in range(10):
            g = random_connected_graph(12, 0.45, seed=seed + 50)
            for k in (2, 3, 4):
                cert = cert_graph(sparse_certificate(as_view(g), k))
                vertices = sorted(g.vertices())
                for _ in range(8):
                    s = rng.sample(vertices, rng.randint(0, k - 1))
                    a = sorted(
                        map(sorted, components_after_removal(g, s))
                    )
                    b = sorted(
                        map(sorted, components_after_removal(cert, s))
                    )
                    assert a == b

    def test_first_forest_spans(self):
        g = random_connected_graph(10, 0.4, seed=9)
        cert = sparse_certificate(as_view(g), 3)
        assert is_connected(
            Graph(edges=cert.forests[0], vertices=g.vertices())
        )

    def test_forests_disjoint(self):
        g = gnp_random_graph(12, 0.7, seed=11)
        cert = sparse_certificate(as_view(g), 4)
        seen = set()
        for forest in cert.forests:
            edges = {frozenset(e) for e in forest}
            assert not (edges & seen)
            seen |= edges

    def test_sparse_input_passthrough(self):
        """A tree's certificate at any k is the tree itself."""
        g = Graph([(0, 1), (1, 2), (2, 3)])
        assert cert_graph(sparse_certificate(as_view(g), 3)) == g

    def test_empty_forest_early_exit(self):
        cert = sparse_certificate(as_view(Graph([(0, 1)])), 5)
        # One real forest, then an empty one terminates the loop.
        assert cert.forests[-1] == []


class TestSideGroups:
    def test_groups_filtered_by_size(self):
        g = random_connected_graph(12, 0.3, seed=3)
        cert = sparse_certificate(as_view(g), 2)
        for group in side_groups_from_forest(cert, 2):
            assert len(group) > 2

    def test_groups_disjoint(self):
        g = gnp_random_graph(16, 0.4, seed=4)
        cert = sparse_certificate(as_view(g), 3)
        groups = side_groups_from_forest(cert, 3)
        seen = set()
        for group in groups:
            assert not (group & seen)
            seen |= group

    def test_group_pairs_k_connected(self):
        """Theorem 10: all pairs inside a side-group satisfy u =k= v."""
        for seed in range(8):
            g = random_connected_graph(12, 0.5, seed=seed + 200)
            nxg = g.to_networkx()
            for k in (2, 3):
                cert = sparse_certificate(as_view(g), k)
                for group in side_groups_from_forest(cert, k):
                    for u, v in itertools.combinations(sorted(group), 2):
                        if nxg.has_edge(u, v):
                            continue
                        lc = nx.algorithms.connectivity.local_node_connectivity(
                            nxg, u, v
                        )
                        assert lc >= k, (seed, k, u, v)

    def test_group_index(self):
        groups = [{1, 2, 3}, {4, 5}]
        idx = group_index(groups)
        assert idx[1] == idx[2] == idx[3] == 0
        assert idx[4] == idx[5] == 1
        assert 6 not in idx


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000), st.integers(1, 4))
def test_certificate_edge_bound_property(seed, k):
    g = gnp_random_graph(13, 0.5, seed=seed)
    cert = sparse_certificate(as_view(g), k)
    assert cert.graph.num_edges <= k * max(0, g.num_vertices - 1)
    assert cert.graph.num_edges <= g.num_edges
