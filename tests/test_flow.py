"""Tests for the flow package: network construction, Dinic, cut extraction."""


import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro.kernels as kernels
from repro.core.connectivity_api import local_connectivity
from repro.flow.dinic import max_flow_min_k
from repro.flow.flow_network import build_flow_network
from repro.flow.min_cut import local_vertex_cut
from repro.graph.connectivity import shortest_path_length
from repro.graph.generators import complete_graph, cycle_graph
from repro.graph.graph import Graph

from helpers import as_view, random_connected_graph


class TestConstruction:
    def test_sizes_match_paper(self):
        """2n nodes and n + 2m forward arcs (Example 4's counting)."""
        g = Graph([(0, 1), (1, 2), (2, 3), (3, 0)])  # n=4, m=4
        net = build_flow_network(as_view(g), 2)
        assert net.num_nodes == 8
        assert len(net.head) // 2 == 4 + 2 * 4  # arc pairs

    def test_internal_arcs_have_capacity_one(self):
        g = Graph([(0, 1)])
        net = build_flow_network(as_view(g), 5)
        for v in g.vertices():
            arc = net.internal_arc(v)
            assert net.cap[arc] == 1
            assert net.head[arc] == net.node_out(v)

    def test_adjacency_arcs_have_capacity_k(self):
        k = 7
        net = build_flow_network(as_view(Graph([(0, 1)])), k)
        adjacency_caps = [
            net.initial_cap[a]
            for a in range(0, len(net.head), 2)
            if net.initial_cap[a] != 1
        ]
        assert adjacency_caps == [k, k]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            build_flow_network(as_view(Graph([(0, 1)])), 0)

    def test_node_mapping_roundtrip(self):
        # Sparse ids: the network's dense indices must not be the ids.
        g = Graph([(3, 5), (5, 9)])
        net = build_flow_network(as_view(g), 2)
        for v in g.vertices():
            assert net.vertex_of_node(net.node_in(v)) == v
            assert net.vertex_of_node(net.node_out(v)) == v

    def test_reset_restores_capacities(self):
        net = build_flow_network(as_view(complete_graph(4)), 3)
        before = list(net.cap)
        max_flow_min_k(net, net.node_out(0), net.node_in(2), 3)
        net.reset()
        # list() both sides: the arena's cap buffer may be a plain list
        # or an array('i') depending on which kernel built the network.
        assert list(net.cap) == before

    def test_push_tracks_reverse(self):
        net = build_flow_network(as_view(Graph([(0, 1)])), 3)
        arc = net.initial_cap.index(3)  # an adjacency arc (capacity k)
        net.push(arc, 2)
        assert net.cap[arc] == 1
        assert net.cap[arc ^ 1] == 2


class TestMaxFlow:
    def test_source_equals_sink_raises(self):
        net = build_flow_network(as_view(Graph([(0, 1)])), 2)
        with pytest.raises(ValueError):
            max_flow_min_k(net, 0, 0, 2)

    def test_disconnected_pair_is_zero(self):
        net = build_flow_network(as_view(Graph([(0, 1), (2, 3)])), 3)
        assert max_flow_min_k(net, net.node_out(0), net.node_in(2), 3) == 0

    def test_path_has_unit_connectivity(self, path4):
        net = build_flow_network(as_view(path4), 3)
        assert max_flow_min_k(net, net.node_out(0), net.node_in(3), 3) == 1

    def test_early_termination_caps_value(self):
        # A cycle has connectivity exactly 2 between opposite vertices;
        # a cap of 1 must stop the flow there.
        net = build_flow_network(as_view(cycle_graph(8)), 1)
        assert max_flow_min_k(net, net.node_out(0), net.node_in(4), 1) == 1

    def test_value_equals_local_connectivity(self):
        for seed in range(15):
            g = random_connected_graph(10, 0.4, seed)
            nxg = g.to_networkx()
            net = build_flow_network(as_view(g), 9)
            for u, v in [(0, 5), (1, 8), (2, 9)]:
                if g.has_edge(u, v):
                    continue
                expected = nx.algorithms.connectivity.local_node_connectivity(
                    nxg, u, v
                )
                got = max_flow_min_k(net, net.node_out(u), net.node_in(v), 9)
                net.reset()
                assert got == min(9, expected)


class TestCutExtraction:
    def test_cut_separates(self):
        for seed in range(20):
            g = random_connected_graph(11, 0.35, seed)
            view = as_view(g)
            net = build_flow_network(view, 3)
            vertices = sorted(g.vertices())
            for u, v in [(vertices[0], vertices[-1])]:
                cut = local_vertex_cut(view, net, u, v, 3)
                if cut is None:
                    continue
                assert len(cut) < 3
                assert u not in cut and v not in cut
                h = g.copy()
                h.remove_vertices(cut)
                assert shortest_path_length(h, u, v) is None

    def test_cut_size_is_minimum(self):
        for seed in range(15):
            g = random_connected_graph(10, 0.4, seed + 100)
            nxg = g.to_networkx()
            view = as_view(g)
            net = build_flow_network(view, 4)
            u, v = 0, 9
            if g.has_edge(u, v):
                continue
            cut = local_vertex_cut(view, net, u, v, 4)
            expected = nx.algorithms.connectivity.local_node_connectivity(
                nxg, u, v
            )
            if expected < 4:
                assert cut is not None and len(cut) == expected
            else:
                assert cut is None

    def test_adjacent_pair_short_circuits(self):
        view = as_view(Graph([(0, 1), (1, 2)]))
        net = build_flow_network(view, 5)
        assert local_vertex_cut(view, net, 0, 1, 5) is None

    def test_same_vertex_short_circuits(self):
        view = as_view(Graph([(0, 1)]))
        net = build_flow_network(view, 5)
        assert local_vertex_cut(view, net, 0, 0, 5) is None

    def test_network_reusable_after_cut(self):
        view = as_view(cycle_graph(6))
        net = build_flow_network(view, 3)
        first = local_vertex_cut(view, net, 0, 3, 3)
        second = local_vertex_cut(view, net, 0, 3, 3)
        assert first == second  # residual state fully reset between calls

    def test_local_connectivity_same_vertex_raises(self):
        with pytest.raises(ValueError):
            local_connectivity(Graph([(0, 1)]), 0, 0)

    def test_adjacent_pair_reports_k(self):
        """An adjacency arc carries capacity k, so an adjacent pair's
        flow saturates at the cap instead of exposing a cut."""
        net = build_flow_network(as_view(Graph([(0, 1)])), 4)
        assert max_flow_min_k(net, net.node_out(0), net.node_in(1), 4) == 4


@pytest.mark.skipif(
    "numpy" not in kernels.available(), reason="numpy not installed"
)
class TestNumpyArcRule:
    """numpy's Dinic runs only at or above its production arc count.

    A cycle of ``n`` vertices has ``6n`` arcs, so ``n`` picks a network
    just below or at ``_SCALAR_ARCS``.  A LOC-CUT query at k = 3 runs
    both the max flow (2) and the residual BFS of the cut extraction.
    """

    @pytest.fixture
    def rule(self):
        from repro.kernels import numpy_impl

        return numpy_impl._SCALAR_ARCS

    @staticmethod
    def query(n, kernel):
        """``(arcs, kernel-state keys, cut)`` after one query on C_n."""
        view = as_view(cycle_graph(n))
        with kernels.use(kernel):
            net = build_flow_network(view, 3)
            cut = local_vertex_cut(view, net, 0, n // 2, 3)
        return len(net.head), set(net._kern_state), cut

    def check(self, n, rule, state):
        _, _, expected = self.query(n, "python")
        arcs, states, cut = self.query(n, "numpy")
        assert (arcs >= rule) == (state == "numpy")
        assert states == {state}
        assert cut == expected and len(cut) == 2

    def test_network_below_the_rule_keeps_no_numpy_state(self, rule):
        self.check((rule - 1) // 6, rule, "python")

    def test_network_at_the_rule_builds_numpy_state(self, rule):
        self.check(-(-rule // 6), rule, "numpy")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_flow_value_matches_networkx(seed, k):
    g = random_connected_graph(9, 0.35, seed)
    nxg = g.to_networkx()
    net = build_flow_network(as_view(g), k)
    vertices = sorted(g.vertices())
    u, v = vertices[0], vertices[-1]
    if g.has_edge(u, v):
        return
    got = max_flow_min_k(net, net.node_out(u), net.node_in(v), k)
    expected = min(
        k, nx.algorithms.connectivity.local_node_connectivity(nxg, u, v)
    )
    assert got == expected
