"""Tests for the quality metrics (diameter, density, clustering)."""

import math

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
)
from repro.graph.graph import Graph
from repro.graph.metrics import (
    average_clustering_coefficient,
    average_metric_over_subgraphs,
    clustering_coefficient,
    diameter,
    edge_density,
    graph_summary,
)


class TestDiameter:
    def test_single_vertex(self):
        assert diameter(Graph(vertices=[1])) == 0

    def test_complete(self):
        assert diameter(complete_graph(6)) == 1

    def test_path(self, path4):
        assert diameter(path4) == 3

    def test_cycle(self):
        assert diameter(cycle_graph(8)) == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            diameter(Graph())

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            diameter(Graph([(0, 1), (2, 3)]))

    def test_sampled_is_lower_bound(self):
        g = cycle_graph(20)
        full = diameter(g)
        sampled = diameter(g, sample=5, seed=1)
        assert sampled <= full

    def test_matches_networkx(self):
        for seed in range(8):
            g = gnp_random_graph(12, 0.35, seed=seed)
            nxg = g.to_networkx()
            if g.num_vertices and nx.is_connected(nxg):
                assert diameter(g) == nx.diameter(nxg)


class TestEdgeDensity:
    def test_complete_is_one(self):
        assert edge_density(complete_graph(7)) == 1.0

    def test_single_vertex_convention(self):
        assert edge_density(Graph(vertices=[1])) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            edge_density(Graph())

    def test_formula(self, path4):
        # Eq. 4: 2m / (n(n-1)) = 6 / 12.
        assert edge_density(path4) == pytest.approx(0.5)


class TestClustering:
    def test_triangle_vertex(self, triangle):
        assert clustering_coefficient(triangle, 0) == 1.0

    def test_low_degree_is_zero(self, path4):
        assert clustering_coefficient(path4, 0) == 0.0

    def test_average_matches_networkx(self):
        for seed in range(8):
            g = gnp_random_graph(12, 0.4, seed=seed)
            if g.num_vertices == 0:
                continue
            ours = average_clustering_coefficient(g)
            theirs = nx.average_clustering(g.to_networkx())
            assert ours == pytest.approx(theirs)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_clustering_coefficient(Graph())


class TestSummary:
    def test_fields(self, triangle):
        s = graph_summary(triangle)
        assert s["num_vertices"] == 3
        assert s["num_edges"] == 3
        assert s["density"] == pytest.approx(1.0)  # m/n
        assert s["max_degree"] == 2

    def test_empty(self):
        s = graph_summary(Graph())
        assert s["num_vertices"] == 0
        assert s["density"] == 0.0


class TestAverageOverSubgraphs:
    def test_empty_family_is_nan(self, triangle):
        assert math.isnan(
            average_metric_over_subgraphs(triangle, [], "diameter")
        )

    def test_diameter_average(self, figure1):
        g, blocks = figure1
        avg = average_metric_over_subgraphs(
            g, list(blocks.values()), "diameter"
        )
        assert avg == 1.0  # each block is a clique

    def test_density_average(self, figure1):
        g, blocks = figure1
        avg = average_metric_over_subgraphs(
            g, list(blocks.values()), "edge_density"
        )
        assert avg == pytest.approx(1.0)

    def test_unknown_metric_raises(self, triangle):
        with pytest.raises(ValueError):
            average_metric_over_subgraphs(triangle, [[0, 1, 2]], "nope")


@given(st.integers(0, 150))
def test_density_bounds(seed):
    g = gnp_random_graph(10, 0.5, seed=seed)
    if g.num_vertices:
        assert 0.0 <= edge_density(g) <= 1.0
        assert 0.0 <= average_clustering_coefficient(g) <= 1.0
