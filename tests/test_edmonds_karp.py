"""Parity tests: Edmonds-Karp vs Dinic on the vertex-split networks."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.flow.dinic import max_flow_min_k
from repro.flow.edmonds_karp import max_flow_min_k_ek
from repro.flow.flow_network import build_flow_network
from repro.flow.min_cut import minimum_vertex_cut_from_residual
from repro.graph.connectivity import bfs_distances
from repro.graph.generators import complete_graph, cycle_graph

from helpers import as_view, random_connected_graph


class TestParity:
    def test_source_equals_sink_raises(self):
        net = build_flow_network(as_view(cycle_graph(4)), 2)
        with pytest.raises(ValueError):
            max_flow_min_k_ek(net, 3, 3, 2)

    def test_values_match_dinic(self):
        for seed in range(20):
            g = random_connected_graph(10, 0.4, seed=seed)
            for k in (1, 2, 3, 5):
                net = build_flow_network(as_view(g), k)
                vs = sorted(g.vertices())
                for u, v in [(vs[0], vs[-1]), (vs[1], vs[-2])]:
                    if u == v or g.has_edge(u, v):
                        continue
                    a = max_flow_min_k(net, net.node_out(u), net.node_in(v), k)
                    net.reset()
                    b = max_flow_min_k_ek(
                        net, net.node_out(u), net.node_in(v), k
                    )
                    net.reset()
                    assert a == b, (seed, k, u, v)

    def test_cut_extraction_works_from_ek_residual(self):
        for seed in range(15):
            g = random_connected_graph(10, 0.35, seed=seed + 40)
            k = 3
            net = build_flow_network(as_view(g), k)
            vs = sorted(g.vertices())
            u, v = vs[0], vs[-1]
            if g.has_edge(u, v):
                continue
            flow = max_flow_min_k_ek(net, net.node_out(u), net.node_in(v), k)
            if flow < k:
                cut = minimum_vertex_cut_from_residual(net, net.node_out(u))
                assert len(cut) == flow
                h = g.copy()
                h.remove_vertices(cut)
                assert v not in bfs_distances(h, u)
            net.reset()

    def test_early_termination(self):
        g = complete_graph(9)
        g.remove_edge(0, 5)
        net = build_flow_network(as_view(g), 2)
        got = max_flow_min_k_ek(net, net.node_out(0), net.node_in(5), 2)
        assert got == 2  # true connectivity is 7; capped at k


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 20_000), st.integers(1, 4))
def test_ek_matches_networkx(seed, k):
    g = random_connected_graph(9, 0.4, seed=seed)
    vs = sorted(g.vertices())
    u, v = vs[0], vs[-1]
    if g.has_edge(u, v):
        return
    net = build_flow_network(as_view(g), k)
    got = max_flow_min_k_ek(net, net.node_out(u), net.node_in(v), k)
    expected = min(
        k,
        nx.algorithms.connectivity.local_node_connectivity(
            g.to_networkx(), u, v
        ),
    )
    assert got == expected
