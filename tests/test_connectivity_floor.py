"""The connectivity-floor rule of the multi-k level loops.

:func:`~repro.core.engine.connectivity_floor` proves, once per k-VCC,
the highest level up to which the component stays its own k-VCC, and
:meth:`~repro.core.engine.SerialEngine.run_level` passes such a
component through those levels without an engine call.  The rule must
be invisible in every output.  The reference here is the same code
with the probe patched to return the level the component was found at
(no floor), which is what the level loops did before the rule.
"""

from __future__ import annotations

import os
import random
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import engine
from repro.core.engine import connectivity_floor
from repro.core.hierarchy import build_hierarchy_csr
from repro.core.ksweep import enumerate_kvccs_sweep
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.datasets import apply_mutations
from repro.graph.generators import complete_graph
from repro.graph.graph import Graph
from repro.index import IndexUpdater, build_index, delta_log_path

from helpers import random_connected_graph


@contextmanager
def floor_free():
    """Patch the probe to prove nothing: every level runs the engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            engine, "connectivity_floor", lambda view, k, *rest: k
        )
        yield


@contextmanager
def bounds_tried(calls):
    """Record the threshold of every GLOBAL-CUT the engine module runs."""
    original = engine.global_cut

    def spy(graph, k, *args, **kwargs):
        calls.append(k)
        return original(graph, k, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "global_cut", spy)
        yield


def clustered_graph(seed: int, blocks: int, size: int, overlap: int) -> Graph:
    """Dense blocks chained with overlaps, plus a few random chords.

    Dense blocks give components whose minimum degree exceeds the level
    they are found at, so probes succeed, descend, and fail.
    """
    rng = random.Random(seed)
    edges = []
    start = 0
    for _ in range(blocks):
        members = range(start, start + size)
        edges.extend(
            (u, v)
            for u in members
            for v in members
            if u < v and rng.random() < 0.85
        )
        start += size - overlap
    n = start + overlap
    for _ in range(blocks):
        edges.append(tuple(rng.sample(range(n), 2)))
    return Graph(edges)


def two_cliques_sharing(size: int, shared: int) -> Graph:
    """Two K_size whose vertex sets share ``shared`` vertices."""
    second = range(size - shared, 2 * size - shared)
    edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges += [(u, v) for u in second for v in second if u < v]
    return Graph(edges)


def read_log(index_path):
    """The delta log's bytes, or ``None`` while it does not exist."""
    path = delta_log_path(index_path)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


def node_list(hierarchy):
    """The hierarchy as an ordered, exact comparison form."""
    return [
        (node.k, sorted(node.vertices), node.parent, node.children)
        for node in hierarchy.nodes
    ]


graphs = st.one_of(
    st.builds(
        random_connected_graph,
        st.integers(6, 16),
        st.floats(0.2, 0.9),
        st.integers(0, 10_000),
    ),
    st.builds(
        clustered_graph,
        st.integers(0, 10_000),
        st.integers(1, 4),
        st.integers(4, 8),
        st.integers(0, 3),
    ),
)


class TestSameAnswersAsFloorFree:
    @settings(max_examples=40, deadline=None)
    @given(graph=graphs, max_k=st.sampled_from([None, 2, 3, 5]))
    def test_hierarchy_node_lists(self, graph, max_k):
        base = graph.to_csr()
        stats = RunStats()
        probed = build_hierarchy_csr(base, max_k=max_k, stats=stats)
        with floor_free():
            reference = build_hierarchy_csr(base, max_k=max_k)
        assert node_list(probed) == node_list(reference)
        assert probed.max_k == reference.max_k
        assert stats.kvccs_found == len(probed)

    @settings(max_examples=40, deadline=None)
    @given(
        graph=graphs,
        ks=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    )
    def test_sweep_results(self, graph, ks):
        stats = RunStats()
        probed = enumerate_kvccs_sweep(graph, ks, stats=stats)
        with floor_free():
            reference = enumerate_kvccs_sweep(graph, ks)
        assert list(probed) == list(reference)
        for k in probed:
            assert [sorted(c) for c in probed[k]] == [
                sorted(c) for c in reference[k]
            ], k
        assert stats.kvccs_found == sum(map(len, probed.values()))

    @settings(max_examples=20, deadline=None)
    @given(graph=graphs, seed=st.integers(0, 10_000))
    def test_delta_records(self, graph, seed):
        """Every record of a random batch stream is byte-equal."""
        with tempfile.TemporaryDirectory() as workdir:
            paths = [os.path.join(workdir, f"{s}.kvccidx") for s in "ab"]
            for path in paths:
                build_index(graph).save_atomic(path)
            probed = IndexUpdater(paths[0], graph=graph)
            reference = IndexUpdater(paths[1], graph=graph)
            mirror = graph.copy()
            rng = random.Random(seed)
            for _ in range(4):
                vertices = sorted(mirror.vertices())
                edges = sorted(tuple(sorted(e)) for e in mirror.edges())
                batch = []
                for _ in range(3):
                    if rng.random() < 0.5 and edges:
                        u, v = edges.pop(rng.randrange(len(edges)))
                        batch.append({"op": "delete", "u": u, "v": v})
                    else:
                        u, v = rng.sample(vertices, 2)
                        if not mirror.has_edge(u, v):
                            batch.append({"op": "insert", "u": u, "v": v})
                apply_mutations(mirror, batch)
                probed.apply(batch)
                with floor_free():
                    reference.apply(batch)
                # Both bases are the same bytes, so the log headers
                # (which carry the base digest) match too.  No log
                # exists until a batch applies an edge.
                logs = [read_log(path) for path in paths]
                assert logs[0] == logs[1]
                assert probed.index == reference.index


class TestConstructedCases:
    def test_complete_graph_proves_once(self):
        """K_8's level-1 component is proven 7-connected by one
        GLOBAL-CUT, so levels 2-7 run none (the parent ran six)."""
        base = complete_graph(8).to_csr()
        stats = RunStats()
        hierarchy = build_hierarchy_csr(base, stats=stats)
        assert stats.global_cut_calls == 1
        assert hierarchy.max_k == 7
        assert [node.k for node in hierarchy.nodes] == list(range(1, 8))
        assert stats.kvccs_found == 7
        with floor_free():
            reference = build_hierarchy_csr(base)
        assert node_list(hierarchy) == node_list(reference)

    def test_probe_descends_to_a_found_cut(self):
        """Two K_7 sharing three vertices: delta = 6 but kappa = 3, so
        the probe finds the 3-cut at bound 6 and proves bound 3."""
        view = two_cliques_sharing(7, 3).to_csr().full_view()
        stats = RunStats()
        calls = []
        with bounds_tried(calls):
            floor = connectivity_floor(view, 1, 2, None, KVCCOptions(), stats)
        assert floor == 3
        assert calls == [6, 3]
        assert stats.global_cut_calls == 2

    def test_descending_hierarchy_matches_reference(self):
        base = two_cliques_sharing(7, 3).to_csr()
        stats = RunStats()
        hierarchy = build_hierarchy_csr(base, stats=stats)
        with floor_free():
            reference_stats = RunStats()
            reference = build_hierarchy_csr(base, stats=reference_stats)
        assert node_list(hierarchy) == node_list(reference)
        assert [node.k for node in hierarchy.nodes] == [1, 2, 3, 4, 4, 5, 5, 6, 6]
        # Probes: 6 then 3 on the whole graph, 6 on each clique; the
        # engine: one cut plus two proofs at level 4.
        assert stats.global_cut_calls == 7
        assert reference_stats.global_cut_calls == 9

    def test_probe_gives_up_below_the_next_level(self):
        """A cut smaller than the next needed level ends the probe."""
        view = two_cliques_sharing(7, 3).to_csr().full_view()
        calls = []
        with bounds_tried(calls):
            floor = connectivity_floor(
                view, 2, 5, 5, KVCCOptions(), RunStats()
            )
        assert floor == 2
        assert calls == [5]

    def test_no_probe_without_a_next_level_or_headroom(self):
        view = complete_graph(5).to_csr().full_view()
        calls = []
        with bounds_tried(calls):
            assert connectivity_floor(
                view, 3, None, None, KVCCOptions(), RunStats()
            ) == 3
            # delta = 4 = k: nothing above k to prove.
            assert connectivity_floor(
                view, 4, 5, None, KVCCOptions(), RunStats()
            ) == 4
        assert calls == []

    def test_max_k_caps_the_probe(self):
        """max_k = 4 below delta = 7: the probe runs at 4, not 7."""
        base = complete_graph(8).to_csr()
        stats = RunStats()
        calls = []
        with bounds_tried(calls):
            hierarchy = build_hierarchy_csr(base, max_k=4, stats=stats)
        assert calls == [4]
        assert hierarchy.max_k == 4
        assert [node.k for node in hierarchy.nodes] == [1, 2, 3, 4]
        with floor_free():
            reference = build_hierarchy_csr(base, max_k=4)
        assert node_list(hierarchy) == node_list(reference)

    @pytest.mark.parametrize(
        "ks, probed_calls, reference_calls",
        [([2, 5], [2, 5], [2, 5]), ([2, 5, 6], [2, 6], [2, 5, 6])],
    )
    def test_sweep_gap_levels(self, ks, probed_calls, reference_calls):
        """K_8 over a gapped sweep: the probe at the level cap proves
        every later level, so none of them runs GLOBAL-CUT."""
        graph = complete_graph(8)
        calls = []
        with bounds_tried(calls):
            probed = enumerate_kvccs_sweep(graph, ks)
        assert calls == probed_calls
        calls.clear()
        with bounds_tried(calls), floor_free():
            reference = enumerate_kvccs_sweep(graph, ks)
        assert calls == reference_calls
        assert probed == reference
        assert all(probed[k] == [set(range(8))] for k in ks)

    def test_sweep_gap_with_a_descending_component(self):
        """Two K_7 sharing three vertices over [2, 5]: the level-2
        probe at 5 finds the 3-cut and gives up (5 is the next level),
        and level 5 splits the graph through the engine as before."""
        graph = two_cliques_sharing(7, 3)
        probed = enumerate_kvccs_sweep(graph, [2, 5])
        with floor_free():
            reference = enumerate_kvccs_sweep(graph, [2, 5])
        assert probed == reference
        assert sorted(map(sorted, probed[5])) == [
            list(range(7)), list(range(4, 11))
        ]

    def test_stage_rows_include_the_probes(self):
        """Probes run inside the engine's accounting."""
        stats = RunStats()
        build_hierarchy_csr(two_cliques_sharing(7, 3).to_csr(), stats=stats)
        assert sum(stats.stage_seconds.values()) == pytest.approx(
            stats.elapsed_seconds, rel=1e-9, abs=1e-12
        )
