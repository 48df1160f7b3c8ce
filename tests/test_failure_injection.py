"""Failure-injection tests: the defensive paths must fail loudly or heal.

The enumeration has two safety nets that normal operation never
exercises:

* ``overlap_partition`` refuses a non-cut (protecting KVCC-ENUM from
  infinite recursion);
* ``global_cut`` validates every certificate-derived cut against the
  real graph and falls back to a certificate-free recomputation if the
  certificate machinery ever misbehaves.

These tests corrupt the internals on purpose and check the nets hold.
"""

import importlib

import pytest

# The package re-exports the global_cut *function* under the same name,
# so fetch the submodule explicitly for monkeypatching.
global_cut_module = importlib.import_module("repro.core.global_cut")
from repro.certificate.sparse_certificate import SparseCertificate
from repro.core.global_cut import global_cut
from repro.core.kvcc import enumerate_kvccs, kvcc_vertex_sets
from repro.core.options import KVCCOptions
from repro.core.partition import overlap_partition
from repro.graph.csr import IntAdjacency
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
)
from repro.graph.graph import Graph

from helpers import as_view, vertex_set_family


class TestPartitionGuards:
    def test_non_cut_rejected(self, k5):
        with pytest.raises(ValueError, match="not a vertex cut"):
            overlap_partition(k5, [0, 1])

    def test_cut_equal_to_whole_graph_rejected(self, triangle):
        with pytest.raises(ValueError):
            overlap_partition(triangle, [0, 1, 2])


class TestCertificateFault(object):
    """Corrupt the sparse certificate and verify global_cut self-heals."""

    @pytest.fixture
    def broken_certificate(self, monkeypatch):
        """A 'certificate' that is just a spanning star - wrong for k >= 2.

        Any cut computed on it (every center removal splits it) is very
        unlikely to be a cut of the real graph, forcing the validation +
        fallback path.
        """
        real = global_cut_module.sparse_certificate

        def fake(view, k):
            center, *others = view.active_list()
            star = IntAdjacency(view.base.n, view.active_list())
            for v in others:
                star.add_edge(center, v)
            cert = real(view, 1)  # correct forests for side-groups
            return SparseCertificate(graph=star, forests=cert.forests, k=k)

        monkeypatch.setattr(global_cut_module, "sparse_certificate", fake)
        return fake

    def test_fallback_still_correct(self, broken_certificate):
        """With a sabotaged certificate, results must still be right
        (slower, via the certificate-free fallback) - never wrong."""
        from repro.baselines.naive import naive_kvccs

        options = KVCCOptions(
            neighbor_sweep=False, group_sweep=False,
            maintain_side_vertices=False,
        )
        for seed in range(6):
            g = gnp_random_graph(10, 0.5, seed=seed)
            for k in (2, 3):
                got = vertex_set_family(kvcc_vertex_sets(g, k, options))
                want = vertex_set_family(naive_kvccs(g, k))
                assert got == want, (seed, k)

    def test_k_connected_graph_unaffected(self, broken_certificate):
        options = KVCCOptions(
            neighbor_sweep=False, group_sweep=False,
            maintain_side_vertices=False,
        )
        assert global_cut(as_view(complete_graph(6)), 4, options) is None


class TestInputAliasing:
    def test_result_graphs_do_not_alias_input(self, two_cliques_shared_edge):
        results = enumerate_kvccs(two_cliques_shared_edge, 3)
        for sub in results:
            for v in list(sub.vertices()):
                sub.remove_vertex(v)
        # Input untouched, and a rerun gives the same answer.
        again = enumerate_kvccs(two_cliques_shared_edge, 3)
        assert len(again) == 2

    def test_results_do_not_alias_each_other(self, two_cliques_shared_edge):
        a, b = enumerate_kvccs(two_cliques_shared_edge, 3)
        shared = a.vertex_set() & b.vertex_set()
        assert shared  # overlapped vertices exist
        v = next(iter(shared))
        a.remove_vertex(v)
        assert v in b  # b must own its own adjacency


class TestDegenerateInputs:
    def test_graph_of_isolated_vertices(self):
        g = Graph(vertices=range(5))
        assert enumerate_kvccs(g, 1) == []

    def test_two_vertex_components(self):
        g = Graph([(0, 1), (2, 3)])
        assert len(enumerate_kvccs(g, 1)) == 2
        assert enumerate_kvccs(g, 2) == []

    def test_very_large_k(self, k5):
        assert enumerate_kvccs(k5, 100) == []

    def test_star_graph(self):
        g = Graph((0, i) for i in range(1, 8))
        assert vertex_set_family(enumerate_kvccs(g, 1)) == {
            frozenset(range(8))
        }
        assert enumerate_kvccs(g, 2) == []

    def test_self_healing_star_plus_cycle(self):
        # A cycle with a pendant star: k=2 keeps only the cycle.
        g = cycle_graph(6)
        for i in range(7, 10):
            g.add_edge(0, i)
        got = vertex_set_family(enumerate_kvccs(g, 2))
        assert got == {frozenset(range(6))}
