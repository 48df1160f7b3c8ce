"""Tests for strong side-vertex detection and maintenance."""

from hypothesis import given, settings, strategies as st

from repro.core.side_vertex import split_inheritance, strong_side_vertices
from repro.graph.generators import complete_graph, gnp_random_graph
from repro.graph.graph import Graph

from helpers import as_view, random_connected_graph


def is_strong(graph, u, k):
    """Theorem 8 verdict for one vertex of an int-labeled ``graph``."""
    return u in strong_side_vertices(as_view(graph), k, candidates=[u])


class TestStrongSideVertex:
    def test_clique_vertices_are_strong(self):
        g = complete_graph(6)
        assert strong_side_vertices(as_view(g), 4) == g.vertex_set()

    def test_cut_vertex_is_not_strong(self):
        # Two triangles joined at vertex 2: at k=2, vertex 2's neighbors
        # 0 and 3 are non-adjacent with no common neighbor besides 2.
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert not is_strong(g, 2, 2)

    def test_low_degree_vacuous(self):
        g = Graph([(0, 1)])
        assert is_strong(g, 0, 3)  # no neighbor pairs

    def test_strong_implies_side_vertex(self):
        """A strong side-vertex is in no inclusion-minimal < k cut.

        Checked exhaustively: for every < k cut S that disconnects G and
        every strong side-vertex u in S, S minus u must still be a cut
        (i.e. u is never essential to a small cut).
        """
        from itertools import combinations

        from repro.graph.connectivity import is_vertex_cut

        for seed in range(12):
            g = random_connected_graph(9, 0.45, seed=seed)
            for k in (2, 3):
                strong = strong_side_vertices(as_view(g), k)
                vertices = sorted(g.vertices())
                for size in range(1, k):
                    for s in combinations(vertices, size):
                        if not is_vertex_cut(g, s):
                            continue
                        for u in set(s) & strong:
                            rest = set(s) - {u}
                            assert is_vertex_cut(g, rest), (
                                f"strong vertex {u} essential to cut {s}"
                            )

    def test_candidates_restriction(self):
        g = complete_graph(5)
        out = strong_side_vertices(as_view(g), 3, candidates=[0, 2, 99])
        assert out == {0, 2}  # 99 not in graph -> skipped


class TestSplitInheritance:
    def test_unchanged_vertex_inherited(self):
        parent = as_view(complete_graph(6))
        child = parent.copy()
        inherited, recheck = split_inheritance(parent, child, {0, 1})
        assert inherited == {0, 1}
        assert recheck == set()

    def test_vertex_missing_from_child_dropped(self):
        parent = as_view(complete_graph(6))
        child = parent.restrict([0, 1, 2])
        inherited, recheck = split_inheritance(parent, child, {0, 5})
        assert 5 not in inherited | recheck

    def test_degree_change_triggers_recheck(self):
        parent = as_view(complete_graph(6))
        child = parent.restrict([0, 1, 2, 3, 4])
        inherited, recheck = split_inheritance(parent, child, {0})
        assert inherited == set()
        assert recheck == {0}

    def test_neighbor_degree_change_triggers_recheck(self):
        # Path 0-1-2-3 plus edge 1-4: removing 4 keeps deg(0..3) intact
        # except deg(1).  Vertex 0's neighbor (1) changed -> recheck.
        parent = as_view(Graph([(0, 1), (1, 2), (2, 3), (1, 4)]))
        child = parent.restrict([0, 1, 2, 3])
        inherited, recheck = split_inheritance(parent, child, {0, 3})
        assert 0 in recheck
        assert 3 in inherited  # 3's neighbor 2 is untouched

    def test_inherited_vertices_really_strong(self):
        """Soundness: every inherited vertex passes Theorem 8 in the child."""
        from repro.core.global_cut import global_cut
        from repro.core.options import KVCCOptions
        from repro.core.partition import overlap_partition

        for seed in range(10):
            view = as_view(random_connected_graph(12, 0.4, seed=seed + 10))
            k = 3
            strong = strong_side_vertices(view, k)
            cut = global_cut(view, k, KVCCOptions())
            if cut is None:
                continue
            for child in overlap_partition(view, cut):
                inherited, _ = split_inheritance(view, child, strong)
                assert strong_side_vertices(child, k, inherited) == inherited


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3_000), st.integers(2, 4))
def test_strong_side_vertex_definition(seed, k):
    """Theorem 8 equivalence with its own restatement: every neighbor pair
    is adjacent or has >= k common neighbors."""
    g = gnp_random_graph(10, 0.5, seed=seed)
    strong = strong_side_vertices(as_view(g), k)
    for u in g.vertices():
        nbrs = sorted(g.neighbors(u))
        expected = all(
            g.has_edge(v, w) or len(g.neighbors(v) & g.neighbors(w)) >= k
            for i, v in enumerate(nbrs)
            for w in nbrs[i + 1 :]
        )
        assert (u in strong) == expected
