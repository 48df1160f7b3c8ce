"""Tests for traversal utilities (BFS, components, cut checks)."""

from hypothesis import given, strategies as st

from repro.graph.connectivity import (
    bfs_distances,
    bfs_order,
    components_after_removal,
    connected_components,
    is_connected,
    is_vertex_cut,
)
from repro.graph.generators import cycle_graph, gnp_random_graph
from repro.graph.graph import Graph


class TestBFS:
    def test_order_starts_at_source(self, path4):
        assert bfs_order(path4, 0)[0] == 0

    def test_order_visits_reachable(self, path4):
        assert set(bfs_order(path4, 1)) == {0, 1, 2, 3}

    def test_order_stops_at_component(self):
        g = Graph([(0, 1), (2, 3)])
        assert set(bfs_order(g, 0)) == {0, 1}

    def test_distances_path(self, path4):
        assert bfs_distances(path4, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_distances_cycle(self):
        g = cycle_graph(6)
        d = bfs_distances(g, 0)
        assert d[3] == 3
        assert d[5] == 1

    def test_distances_unreachable_absent(self):
        g = Graph([(0, 1), (2, 3)])
        assert 2 not in bfs_distances(g, 0)


class TestComponents:
    def test_single_component(self, triangle):
        comps = connected_components(triangle)
        assert len(comps) == 1
        assert comps[0] == {0, 1, 2}

    def test_multiple_components(self):
        g = Graph([(0, 1), (2, 3), (4, 5)], vertices=[9])
        comps = connected_components(g)
        assert len(comps) == 4
        assert {9} in comps

    def test_empty_graph(self):
        assert connected_components(Graph()) == []

    def test_is_connected(self, triangle):
        assert is_connected(triangle)
        assert is_connected(Graph())  # convention
        assert is_connected(Graph(vertices=[1]))
        assert not is_connected(Graph([(0, 1), (2, 3)]))


class TestRemoval:
    def test_components_after_removal(self, path4):
        comps = components_after_removal(path4, [1])
        assert sorted(map(sorted, comps)) == [[0], [2, 3]]

    def test_removal_of_nothing(self, triangle):
        assert len(components_after_removal(triangle, [])) == 1

    def test_removal_does_not_mutate(self, path4):
        components_after_removal(path4, [1])
        assert 1 in path4

    def test_is_vertex_cut_path(self, path4):
        assert is_vertex_cut(path4, [1])
        assert is_vertex_cut(path4, [2])
        assert not is_vertex_cut(path4, [0])
        assert not is_vertex_cut(path4, [3])

    def test_complete_graph_has_no_cut(self, k5):
        for v in k5.vertices():
            assert not is_vertex_cut(k5, [v])

    def test_removing_almost_everything_is_not_a_cut(self, triangle):
        # Fewer than 2 remaining vertices cannot be disconnected.
        assert not is_vertex_cut(triangle, [0, 1])
        assert not is_vertex_cut(triangle, [0, 1, 2])

    def test_empty_cut_on_disconnected_graph(self):
        g = Graph([(0, 1), (2, 3)])
        assert is_vertex_cut(g, [])


@given(st.integers(3, 10))
def test_cycle_components_and_cuts(n):
    g = cycle_graph(n)
    assert is_connected(g)
    # Any single vertex is not a cut of a cycle; any two non-adjacent are.
    assert not is_vertex_cut(g, [0])
    if n >= 4:
        assert is_vertex_cut(g, [0, 2])


@given(st.integers(0, 400))
def test_components_partition_vertices(seed):
    g = gnp_random_graph(12, 0.2, seed=seed)
    comps = connected_components(g)
    seen = set()
    for comp in comps:
        assert not (comp & seen)
        seen |= comp
    assert seen == g.vertex_set()


@given(st.integers(0, 200), st.sets(st.integers(0, 11), max_size=5))
def test_components_after_removal_matches_induced(seed, removed):
    """components_after_removal == connected_components of the induced rest."""
    g = gnp_random_graph(12, 0.25, seed=seed)
    fast = components_after_removal(g, removed)
    slow = connected_components(
        g.induced_subgraph(g.vertex_set() - set(removed))
    )
    assert sorted(map(sorted, fast)) == sorted(map(sorted, slow))
