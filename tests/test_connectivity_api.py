"""Tests for the whole-graph connectivity helpers."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.connectivity_api import (
    is_k_connected,
    local_connectivity,
    minimum_vertex_cut,
    vertex_connectivity,
)
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
)
from repro.graph.graph import Graph

from helpers import random_connected_graph


class TestIsKConnected:
    def test_negative_k_raises(self, triangle):
        with pytest.raises(ValueError):
            is_k_connected(triangle, -1)

    def test_k0_nonempty(self, triangle):
        assert is_k_connected(triangle, 0)
        assert not is_k_connected(Graph(), 0)

    def test_needs_more_than_k_vertices(self, k5):
        assert is_k_connected(k5, 4)
        assert not is_k_connected(k5, 5)

    def test_disconnected_false(self):
        assert not is_k_connected(Graph([(0, 1), (2, 3)]), 1)

    def test_no_edge_pair(self):
        assert not is_k_connected(Graph(vertices=[0, 1]), 1)

    def test_cycle(self):
        g = cycle_graph(6)
        assert is_k_connected(g, 2)
        assert not is_k_connected(g, 3)

    def test_figure1(self, figure1):
        g, _ = figure1
        assert is_k_connected(g, 1)
        assert not is_k_connected(g, 2)  # vertex c=9 is a cut vertex


class TestVertexConnectivity:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            vertex_connectivity(Graph())

    def test_single_vertex(self):
        assert vertex_connectivity(Graph(vertices=[1])) == 0

    def test_disconnected(self):
        assert vertex_connectivity(Graph([(0, 1), (2, 3)])) == 0

    def test_complete(self):
        assert vertex_connectivity(complete_graph(6)) == 5

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(9)) == 2

    def test_path(self, path4):
        assert vertex_connectivity(path4) == 1

    def test_matches_networkx(self):
        for seed in range(15):
            g = random_connected_graph(9, 0.45, seed=seed)
            assert vertex_connectivity(g) == nx.node_connectivity(
                g.to_networkx()
            )


class TestMinimumVertexCut:
    def test_path_cut(self, path4):
        cut = minimum_vertex_cut(path4)
        assert len(cut) == 1
        assert cut <= {1, 2}

    def test_cycle_cut(self):
        g = cycle_graph(8)
        cut = minimum_vertex_cut(g)
        assert len(cut) == 2

    def test_figure1_cut_vertex(self, figure1):
        g, _ = figure1
        cut = minimum_vertex_cut(g)
        assert len(cut) == 1  # vertex c = 9

    def test_complete_raises(self, k5):
        with pytest.raises(ValueError):
            minimum_vertex_cut(k5)

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            minimum_vertex_cut(Graph([(0, 1), (2, 3)]))

    def test_tiny_raises(self):
        with pytest.raises(ValueError):
            minimum_vertex_cut(Graph(vertices=[1]))

    def test_size_matches_kappa_and_disconnects(self):
        from repro.graph.connectivity import is_vertex_cut

        for seed in range(12):
            g = random_connected_graph(9, 0.4, seed=seed + 200)
            kappa = nx.node_connectivity(g.to_networkx())
            if kappa >= g.num_vertices - 1:
                continue  # complete
            cut = minimum_vertex_cut(g)
            assert len(cut) == kappa
            assert is_vertex_cut(g, cut)


class TestLocalConnectivity:
    def test_same_vertex_raises(self, triangle):
        with pytest.raises(ValueError):
            local_connectivity(triangle, 0, 0)

    def test_adjacent_is_infinite(self, triangle):
        assert local_connectivity(triangle, 0, 1) == math.inf

    def test_cycle_pair(self):
        g = cycle_graph(8)
        assert local_connectivity(g, 0, 4) == 2

    def test_cap_respected(self):
        g = complete_graph(8)
        g.remove_edge(0, 4)
        assert local_connectivity(g, 0, 4, cap=3) == 3
        assert local_connectivity(g, 0, 4) == 6

    def test_matches_networkx(self):
        for seed in range(10):
            g = random_connected_graph(9, 0.4, seed=seed + 60)
            vs = sorted(g.vertices())
            for u, v in [(vs[0], vs[-1]), (vs[1], vs[-2])]:
                if u == v or g.has_edge(u, v):
                    continue
                expected = nx.algorithms.connectivity.local_node_connectivity(
                    g.to_networkx(), u, v
                )
                assert local_connectivity(g, u, v) == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 20_000))
def test_vertex_connectivity_property(seed):
    g = random_connected_graph(8, 0.5, seed=seed)
    kappa = vertex_connectivity(g)
    assert kappa == nx.node_connectivity(g.to_networkx())
    assert is_k_connected(g, kappa) or g.num_vertices <= kappa
    assert not is_k_connected(g, kappa + 1)


class TestQueryOptionsWiring:
    """The options passthrough of the connectivity queries."""

    def test_query_options_adopts_only_execution_fields(self):
        """Only the seed carries over; the preset's switches stay."""
        from repro.core.connectivity_api import _query_options
        from repro.core.options import KVCCOptions

        merged = _query_options(KVCCOptions(use_certificate=False, seed=9))
        assert merged.seed == 9
        assert merged.use_certificate
        # The single-query preset's strategy switches must survive.
        assert not merged.neighbor_sweep
        assert not merged.group_sweep
        assert not merged.farthest_first
        assert _query_options(None).use_certificate

    def test_answers_independent_of_options(self):
        from repro.core.options import KVCCOptions

        configured = KVCCOptions(use_certificate=False, seed=5)
        for seed in range(3):
            g = random_connected_graph(9, 0.4, seed=seed + 7)
            assert vertex_connectivity(g, configured) == vertex_connectivity(g)
            kappa = vertex_connectivity(g)
            assert is_k_connected(g, kappa, configured)
            if kappa < g.num_vertices - 1:
                cut = minimum_vertex_cut(g, configured)
                assert len(cut) == kappa
