"""Tests for the k-VCC hierarchy and vcc-number."""

import pytest

from repro.baselines.naive import naive_kvccs
from repro.core.hierarchy import build_hierarchy, build_hierarchy_csr, vcc_number
from repro.core.kvcc import kvcc_vertex_sets
from repro.core.stats import RunStats
from repro.graph.core_decomposition import core_number
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    overlapping_cliques_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph

from helpers import vertex_set_family


def hierarchy_shape(hierarchy):
    """Order-insensitive comparison form: per-level component families
    plus, per component, its parent's vertex set (or None for roots)."""
    shape = {}
    for k in range(1, hierarchy.max_k + 1):
        level = []
        for node in hierarchy.nodes:
            if node.k != k:
                continue
            parent = (
                ()
                if node.parent is None
                else tuple(
                    sorted(hierarchy.nodes[node.parent].vertices, key=repr)
                )
            )
            level.append((tuple(sorted(node.vertices, key=repr)), parent))
        shape[k] = sorted(level)
    return shape


class TestBuildHierarchy:
    def test_empty_graph(self):
        h = build_hierarchy(Graph())
        assert len(h) == 0
        assert h.max_k == 0

    def test_single_clique_chain(self):
        h = build_hierarchy(complete_graph(5))
        # K5 is k-connected for k = 1..4; one node per level.
        assert h.max_k == 4
        for k in range(1, 5):
            comps = h.components_at(k)
            assert len(comps) == 1
            assert comps[0] == set(range(5))

    def test_cycle_stops_at_two(self):
        h = build_hierarchy(cycle_graph(6))
        assert h.max_k == 2
        assert h.components_at(3) == []

    def test_parent_child_nesting(self):
        g = ring_of_cliques(3, 5)
        h = build_hierarchy(g)
        for idx, node in enumerate(h.nodes):
            if node.parent is not None:
                parent = h.nodes[node.parent]
                assert node.vertices <= parent.vertices
                assert node.k == parent.k + 1
                assert idx in parent.children

    def test_levels_match_direct_enumeration(self):
        """Per-k components from the hierarchy equal KVCC-ENUM run flat."""
        for seed in range(8):
            g = gnp_random_graph(13, 0.4, seed=seed * 3)
            h = build_hierarchy(g)
            for k in range(1, h.max_k + 2):
                assert vertex_set_family(
                    h.components_at(k)
                ) == vertex_set_family(kvcc_vertex_sets(g, k)), (seed, k)

    def test_max_k_cap_respected(self):
        g = complete_graph(6)
        h = build_hierarchy(g, max_k=2)
        assert h.max_k == 2
        assert h.components_at(3) == []

    def test_roots_are_level_one(self):
        g = Graph([(0, 1), (2, 3), (3, 4), (4, 2)])
        h = build_hierarchy(g)
        roots = h.roots()
        assert all(h.nodes[i].k == 1 for i in roots)
        assert len(roots) == 2

    def test_levels_of_vertex(self):
        g = ring_of_cliques(3, 5)
        h = build_hierarchy(g)
        # Clique vertices live through level 4; ring structure gives 1, 2.
        assert h.levels_of(2) == [1, 2, 3, 4]

    def test_overlap_vertices_in_multiple_nodes(self):
        g = overlapping_cliques_graph(clique_size=5, num_cliques=2, overlap=2)
        h = build_hierarchy(g)
        level3 = h.components_at(3)
        assert len(level3) == 2
        shared = set.intersection(*level3)
        assert len(shared) == 2


class TestHierarchyBackendParity:
    """The level-by-level CSR construction against independent answers:
    the brute-force oracle, flat enumeration, and its other entry
    points."""

    def test_random_graphs(self):
        """Every level equals the brute-force oracle at that k, and so
        does every vertex's vcc-number."""
        for seed in range(8):
            g = gnp_random_graph(13, 0.4, seed=seed * 3)
            h = build_hierarchy(g)
            numbers = {}
            for k in range(1, h.max_k + 2):
                oracle = naive_kvccs(g, k)
                assert vertex_set_family(
                    h.components_at(k)
                ) == vertex_set_family(oracle), (seed, k)
                for component in oracle:
                    for v in component:
                        numbers[v] = k
            assert h.vcc_number_map() == numbers, seed

    def test_overlapping_components(self):
        """Overlapping levels match flat enumeration, and every child
        nests inside its parent."""
        g = overlapping_cliques_graph(
            clique_size=6, num_cliques=3, overlap=3
        )
        h = build_hierarchy(g)
        for k in range(1, h.max_k + 2):
            assert vertex_set_family(
                h.components_at(k)
            ) == vertex_set_family(kvcc_vertex_sets(g, k)), k
        for node in h.nodes:
            if node.parent is not None:
                assert node.vertices <= h.nodes[node.parent].vertices

    def test_csr_entry_point_on_base(self):
        """build_hierarchy_csr on a prebuilt base matches the wrapper."""
        g = ring_of_cliques(3, 4)
        stats = RunStats()
        direct = build_hierarchy_csr(g.to_csr(), stats=stats)
        wrapped = build_hierarchy(g)
        assert hierarchy_shape(direct) == hierarchy_shape(wrapped)
        assert stats.kvccs_found == len(direct)


class TestHierarchyEdgeCases:
    def test_k1_disconnected_graph(self):
        """k=1 roots are the non-trivial connected components; isolated
        vertices join no component but keep vcc-number 0."""
        g = Graph(
            [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6), (6, 7)],
            vertices=[99],
        )
        h = build_hierarchy(g)
        roots = h.roots()
        assert len(roots) == 3
        assert vertex_set_family(
            h.nodes[i].vertices for i in roots
        ) == vertex_set_family([{0, 1}, {2, 3, 4}, {5, 6, 7}])
        numbers = vcc_number(g)
        assert numbers[99] == 0
        assert numbers[2] == 2

    def test_max_k_beyond_exhaustion(self):
        """Requesting levels above the graph's max is not an error; the
        forest simply stops where the components run out."""
        h = build_hierarchy(cycle_graph(6), max_k=10)  # max level 2
        assert h.max_k == 2
        assert h.components_at(3) == []
        assert h.components_at(10) == []

    def test_max_k_below_one_rejected(self):
        """There is no level 0; the parent returned level 1 anyway."""
        base = cycle_graph(6).to_csr()
        for max_k in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                build_hierarchy_csr(base, max_k=max_k)

    def test_single_vertex_and_single_edge(self):
        assert len(build_hierarchy(Graph(vertices=[7]))) == 0
        h = build_hierarchy(Graph([(0, 1)]))
        assert h.max_k == 1
        assert h.components_at(1) == [{0, 1}]


class TestVccNumber:
    def test_clique(self):
        numbers = vcc_number(complete_graph(5))
        assert all(v == 4 for v in numbers.values())

    def test_isolated_vertex_zero(self):
        g = Graph([(0, 1)], vertices=[9])
        numbers = vcc_number(g)
        assert numbers[9] == 0
        assert numbers[0] == 1

    def test_bounded_by_core_number(self):
        """Theorem 3 corollary: vcc-number <= core number pointwise."""
        for seed in range(8):
            g = gnp_random_graph(13, 0.45, seed=seed + 31)
            numbers = vcc_number(g)
            cores = core_number(g)
            for v in g.vertices():
                assert numbers[v] <= cores.get(v, 0)

    def test_matches_direct_definition(self):
        """vcc_number(v) is the max k with v in some k-VCC."""
        for seed in range(5):
            g = gnp_random_graph(11, 0.45, seed=seed + 61)
            numbers = vcc_number(g)
            max_k = max(numbers.values(), default=0)
            for k in range(1, max_k + 1):
                members = set().union(*kvcc_vertex_sets(g, k), set())
                for v in g.vertices():
                    assert (numbers[v] >= k) == (v in members), (seed, k, v)
