"""Tests for the overlap meta-graph of k-VCCs."""

import pytest

from repro.core.kvcc import enumerate_kvccs, kvcc_vertex_sets
from repro.core.overlap_graph import build_overlap_graph
from repro.graph.generators import complete_graph, gnp_random_graph


class TestOverlapGraph:
    def test_figure1_overlaps(self, figure1):
        g, _ = figure1
        comps = kvcc_vertex_sets(g, 4)
        og = build_overlap_graph(comps, 4)
        # G1-G2 share {4, 5}; G2-G3 share {9}; G3-G4 disjoint.
        overlap_sizes = sorted(len(s) for s in og.edges.values())
        assert overlap_sizes == [1, 2]

    def test_membership(self, figure1):
        g, _ = figure1
        og = build_overlap_graph(kvcc_vertex_sets(g, 4), 4)
        assert len(og.membership[4]) == 2  # vertex a
        assert len(og.membership[0]) == 1

    def test_hub_vertices(self, figure1):
        g, _ = figure1
        og = build_overlap_graph(kvcc_vertex_sets(g, 4), 4)
        assert set(og.hub_vertices()) == {4, 5, 9}

    def test_property1_violation_rejected(self):
        with pytest.raises(ValueError, match="Property 1"):
            build_overlap_graph([{1, 2, 3, 4}, {2, 3, 4, 5}], 3)

    def test_accepts_graph_objects(self):
        g = complete_graph(4)
        og = build_overlap_graph(enumerate_kvccs(g, 2), 2)
        assert len(og.components) == 1

    def test_valid_on_real_decompositions(self):
        for seed in range(8):
            g = gnp_random_graph(13, 0.4, seed=seed + 9)
            for k in (2, 3):
                comps = kvcc_vertex_sets(g, k)
                og = build_overlap_graph(comps, k)  # must not raise
                for owners in og.membership.values():
                    assert owners == sorted(owners)
