"""CSR enumeration parity against the brute-force oracle.

Every Algorithm-1 step runs on CSR subgraph views.  The k-VCC
decomposition of a graph is canonical - it does not depend on which
cuts the algorithm happens to find first - so for every input and every
k the enumeration must return *exactly* the family of vertex sets that
``repro.baselines.naive`` finds by exhaustive cut search (no flow, no
certificate, no sweeps).

Hypothesis drives random connected graphs across k in {2, 3, 4};
deterministic cases cover the structured generators, string labels
(exercising the interner), disconnected input, and CSR structural
invariants.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.naive import naive_kvccs
from repro.core.kvcc import enumerate_kvccs, kvcc_vertex_sets
from repro.core.variants import VARIANTS
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    overlapping_cliques_graph,
    planted_kvcc_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph

from helpers import (
    random_connected_graph,
    string_labeled,
    vertex_set_family,
)


def families(graph, k, options=None):
    """(enumerated family, brute-force oracle family) for one input."""
    return (
        vertex_set_family(enumerate_kvccs(graph, k, options)),
        vertex_set_family(naive_kvccs(graph, k)),
    )


class TestPropertyParity:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=16),
        p=st.floats(min_value=0.15, max_value=0.7),
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=2, max_value=4),
    )
    def test_csr_equals_naive(self, n, p, seed, k):
        g = random_connected_graph(n, p, seed)
        got, oracle = families(g, k)
        assert got == oracle

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=14),
        p=st.floats(min_value=0.2, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=2, max_value=4),
    )
    def test_parity_with_string_labels(self, n, p, seed, k):
        """Relabeled vertices exercise the interner boundary."""
        g = random_connected_graph(n, p, seed)
        named = string_labeled(g, "v")
        got, oracle = families(named, k)
        assert got == oracle

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=14),
        p=st.floats(min_value=0.2, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=2, max_value=4),
    )
    def test_parity_across_variants(self, n, p, seed, k):
        """All four paper variants agree with the oracle."""
        g = random_connected_graph(n, p, seed)
        oracle = vertex_set_family(naive_kvccs(g, k))
        for options in VARIANTS.values():
            assert vertex_set_family(enumerate_kvccs(g, k, options)) == oracle


class TestStructuredParity:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ring_of_cliques(self, k):
        g = ring_of_cliques(num_cliques=5, clique_size=6)
        got, oracle = families(g, k)
        assert got == oracle

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_overlapping_cliques(self, k):
        g = overlapping_cliques_graph(clique_size=6, num_cliques=3, overlap=2)
        got, oracle = families(g, k)
        assert got == oracle

    def test_planted_blocks(self):
        g, blocks = planted_kvcc_graph(
            k=4, num_blocks=4, block_size=7, overlap=2, seed=7
        )
        got, oracle = families(g, 4)
        assert got == oracle == vertex_set_family(blocks)

    def test_disconnected_input(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)])
        got, oracle = families(g, 2)
        assert got == oracle == {
            frozenset({0, 1, 2}),
            frozenset({5, 6, 7}),
        }

    def test_returned_graphs_are_independent(self):
        """Results are materialized copies, not live views."""
        g = ring_of_cliques(num_cliques=4, clique_size=5)
        parts = enumerate_kvccs(g, 4)
        assert len(parts) == 4
        vertex = next(iter(parts[0].vertices()))
        parts[0].remove_vertex(vertex)
        # Sibling components and the input are untouched.
        assert all(p.num_vertices == 5 for p in parts[1:])
        assert vertex in g

    def test_vertex_sets_helper_uses_csr_default(self):
        g = ring_of_cliques(num_cliques=4, clique_size=5)
        assert vertex_set_family(kvcc_vertex_sets(g, 4)) == families(g, 4)[0]


class TestCsrStructure:
    def test_roundtrip(self):
        g = random_connected_graph(12, 0.4, seed=3)
        assert Graph.from_csr(g.to_csr()) == g

    def test_roundtrip_string_labels(self):
        g = string_labeled(random_connected_graph(10, 0.4, seed=5), "node-")
        assert Graph.from_csr(g.to_csr()) == g

    def test_from_edges_matches_from_graph(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        csr, interner = CSRGraph.from_edges(edges)
        assert csr.to_graph() == Graph(edges)
        assert interner["a"] == 0  # first-seen order

    def test_rows_sorted(self):
        g = random_connected_graph(15, 0.5, seed=9)
        csr = g.to_csr()
        for v in range(csr.n):
            row = csr.neighbors(v)
            assert row == sorted(row)
            for w in row:
                assert csr.has_edge(v, w) and csr.has_edge(w, v)
