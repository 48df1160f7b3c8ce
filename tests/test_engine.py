"""The KVCC-ENUM worklist driver (repro.core.engine).

Covers :class:`~repro.core.engine.SerialEngine` directly (grouped
``run_many``, ``materialize=False``, empty inputs), the single-step
:func:`~repro.core.engine.expand_work_item`, the k = 1 leaf rule, and
the ownership of returned graphs.
"""

from __future__ import annotations

import networkx as nx
from helpers import random_connected_graph, vertex_set_family

from repro.core.engine import SerialEngine, expand_work_item
from repro.core.kvcc import enumerate_kvccs
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.graph.generators import (
    overlapping_cliques_graph,
    ring_of_cliques,
)


def _ordered_families(components):
    """The result as an ordered list of vertex tuples (order-sensitive)."""
    return [tuple(sorted(c.vertices(), key=str)) for c in components]


def test_returns_independent_graphs():
    """Returned k-VCCs own their adjacency (Property 1 overlap safety)."""
    graph = overlapping_cliques_graph(clique_size=5, num_cliques=2, overlap=2)
    a, b = enumerate_kvccs(graph, 4)
    shared = set(a.vertices()) & set(b.vertices())
    assert shared  # the duplicated cut vertices
    v = next(iter(shared))
    before = set(b.neighbors(v))
    a.remove_vertex(v)
    assert set(b.neighbors(v)) == before


def test_expand_work_item_leaf_and_split():
    """The engine's single step, exercised directly."""
    k = 4
    leaf = ring_of_cliques(num_cliques=3, clique_size=5)
    view = leaf.to_csr().full_view()
    stats = RunStats(k=k)
    children = expand_work_item(
        view, None, None, k, KVCCOptions(), stats
    )
    # The first cut splits the ring into a two-clique chain plus a K5.
    assert children is not None and len(children) == 2
    assert stats.partitions == 1 and stats.kvccs_found == 0
    child, inherited, recheck = min(
        children, key=lambda item: item[0].num_vertices
    )
    assert child.num_vertices == 5
    grand = expand_work_item(
        child, inherited, recheck, k, KVCCOptions(), stats
    )
    assert grand is None  # a K5 is 4-connected: leaf
    assert stats.kvccs_found == 1


def test_k1_items_are_leaves():
    """At k = 1 the k-VCCs are the components of at least 2 vertices.

    Every work item is a connected view with more than one vertex, so
    it has no vertex cut of size 0 and no GLOBAL-CUT runs.
    """
    graph = ring_of_cliques(num_cliques=3, clique_size=4)
    for u, v in [(100, 101), (101, 102), (200, 201)]:
        graph.add_edge(u, v)
    graph.add_vertex(300)
    stats = RunStats(k=1)
    found = enumerate_kvccs(graph, 1, KVCCOptions(), stats)
    expected = {
        frozenset(comp)
        for comp in nx.connected_components(graph.to_networkx())
        if len(comp) >= 2
    }
    assert vertex_set_family(found) == expected
    assert stats.kvccs_found == len(expected) == 3
    assert stats.global_cut_calls == 0
    assert stats.flow_tests == 0


def test_empty_after_peel():
    """A graph with no k-core returns [] without running a step."""
    graph = random_connected_graph(12, 0.1, seed=1)
    stats = RunStats(k=8)
    assert enumerate_kvccs(graph, 8, KVCCOptions(), stats) == []
    assert stats.global_cut_calls == 0
    assert stats.kvccs_found == 0


class TestRunMany:
    """Multi-root draining: the level-at-a-time API of the hierarchy."""

    def test_grouped_results_match_individual_runs(self):
        graph = ring_of_cliques(num_cliques=3, clique_size=6)
        base = graph.to_csr()
        parts = [list(range(0, 12)), list(range(12, 18)), [0, 1]]
        options = KVCCOptions()
        grouped = SerialEngine().run_many(
            [base.view_from_members(p) for p in parts],
            3,
            options,
            RunStats(k=3),
        )
        assert len(grouped) == len(parts)
        for part, group in zip(parts, grouped):
            solo = SerialEngine().run(
                base.view_from_members(part), 3, options, RunStats(k=3)
            )
            assert _ordered_families(group) == _ordered_families(solo)
        assert grouped[2] == []  # too small to host a 3-VCC

    def test_materialize_false_returns_sorted_ids(self):
        graph = ring_of_cliques(num_cliques=3, clique_size=5)
        base = graph.to_csr()
        groups = SerialEngine().run_many(
            [base.full_view()], 4, KVCCOptions(), RunStats(k=4),
            materialize=False,
        )
        assert len(groups) == 1
        for members in groups[0]:
            assert members == sorted(members)
            assert all(isinstance(v, int) for v in members)

    def test_empty_works_list(self):
        assert SerialEngine().run_many(
            [], 3, KVCCOptions(), RunStats()
        ) == []
