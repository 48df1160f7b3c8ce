"""Tests for OVERLAP-PARTITION."""

import pytest

from repro.core.partition import overlap_partition
from repro.graph.generators import overlapping_cliques_graph
from repro.graph.graph import Graph

from helpers import assert_is_induced_subgraph


class TestOverlapPartition:
    def test_path_split(self, path4):
        parts = overlap_partition(path4, [1])
        families = sorted(sorted(p.vertices()) for p in parts)
        assert families == [[0, 1], [1, 2, 3]]

    def test_cut_duplicated_everywhere(self, two_cliques_shared_edge):
        cut = {3, 4}  # the shared vertices of the two K5s
        parts = overlap_partition(two_cliques_shared_edge, cut)
        assert len(parts) == 2
        for part in parts:
            assert cut <= part.vertex_set()

    def test_cut_edges_duplicated(self, two_cliques_shared_edge):
        """The induced edges among cut vertices appear in every part."""
        parts = overlap_partition(two_cliques_shared_edge, {3, 4})
        for part in parts:
            assert part.has_edge(3, 4)

    def test_parts_are_induced_subgraphs(self, two_cliques_shared_edge):
        for part in overlap_partition(two_cliques_shared_edge, {3, 4}):
            assert_is_induced_subgraph(part, two_cliques_shared_edge)

    def test_non_cut_raises(self, k5):
        with pytest.raises(ValueError):
            overlap_partition(k5, [0])

    def test_empty_cut_on_disconnected(self):
        g = Graph([(0, 1), (2, 3)])
        parts = overlap_partition(g, [])
        assert len(parts) == 2

    def test_lemma8_growth_bound(self):
        """Each part gains at most k-1 vertices and (k-1)(k-2)/2 edges
        relative to its own component (Lemma 8)."""
        g = overlapping_cliques_graph(clique_size=6, num_cliques=3, overlap=2)
        cut = {4, 5}  # shared vertices between cliques 0 and 1
        k = 3
        parts = overlap_partition(g, cut)
        for part in parts:
            component_size = part.num_vertices - len(cut & part.vertex_set())
            assert part.num_vertices <= component_size + (k - 1)

    def test_vertex_union_covers_graph(self, two_cliques_shared_edge):
        parts = overlap_partition(two_cliques_shared_edge, {3, 4})
        union = set()
        for part in parts:
            union |= part.vertex_set()
        assert union == two_cliques_shared_edge.vertex_set()

    def test_input_not_mutated(self, two_cliques_shared_edge):
        before = two_cliques_shared_edge.copy()
        overlap_partition(two_cliques_shared_edge, {3, 4})
        assert two_cliques_shared_edge == before
