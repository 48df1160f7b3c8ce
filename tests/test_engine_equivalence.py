"""Serial/parallel execution-engine equivalence (repro.core.engine).

The contract under test: for any graph, k, input representation and
worker count, the enumeration returns

* the identical family of k-VCC vertex sets,
* in the identical order (the parallel engine re-sorts leaves by their
  recursion-tree path to reproduce the serial LIFO emission order),
* with identical deterministic ``RunStats`` counters
  (:meth:`RunStats.counters`), and per-task stats that merge cleanly.

Graphs come from the shared seeded generators (``tests/helpers.py`` and
``repro.graph.generators``); every case enters both through
``enumerate_kvccs`` on a dict-of-sets ``Graph`` and through
``enumerate_kvccs_csr`` on a prebuilt CSR base.  Process pools are real
(no mocks), so these tests also cover the pickle paths of
:mod:`repro.graph.csr`.
"""

from __future__ import annotations

import pickle

import pytest
from helpers import random_connected_graph, vertex_set_family

from repro.core.engine import (
    ProcessPoolEngine,
    SerialEngine,
    create_engine,
    expand_work_item,
)
from repro.core.kvcc import (
    enumerate_kvccs,
    enumerate_kvccs_csr,
    kvcc_vertex_sets,
)
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.graph.generators import (
    overlapping_cliques_graph,
    planted_kvcc_graph,
    ring_of_cliques,
    web_graph,
)

#: How the input reaches the engine: a CSR base handed to
#: ``enumerate_kvccs_csr``, or a dict-of-sets ``Graph`` interned at the
#: ``enumerate_kvccs`` boundary.
INPUTS = ("csr", "dict")

#: Small, structurally diverse seeded graphs: overlap-heavy,
#: partition-heavy, hub-heavy, and plain random-connected shapes.
GRAPH_CASES = {
    "ring4x6": lambda: ring_of_cliques(num_cliques=4, clique_size=6),
    "overlap3x7": lambda: overlapping_cliques_graph(
        clique_size=7, num_cliques=3, overlap=3
    ),
    "planted": lambda: planted_kvcc_graph(
        k=4, num_blocks=4, block_size=7, overlap=2, bridge_edges=1, seed=3
    )[0],
    "web120": lambda: web_graph(120, out_degree=6, seed=11),
    "gnp40": lambda: random_connected_graph(40, 0.2, seed=5),
    "gnp25-dense": lambda: random_connected_graph(25, 0.45, seed=9),
}


def _ordered_families(components):
    """The result as an ordered list of vertex tuples (order-sensitive)."""
    return [tuple(sorted(c.vertices(), key=str)) for c in components]


def _run(graph, k, entry, workers):
    stats = RunStats(k=k)
    options = KVCCOptions(workers=workers)
    if entry == "csr":
        components = enumerate_kvccs_csr(graph.to_csr(), k, options, stats)
    else:
        components = enumerate_kvccs(graph, k, options, stats)
    return components, stats


@pytest.mark.parametrize("entry", INPUTS)
@pytest.mark.parametrize("name", sorted(GRAPH_CASES))
def test_serial_parallel_identical(name, entry):
    """Same family, same order, same counters for every k in 2..6."""
    graph = GRAPH_CASES[name]()
    for k in range(2, 7):
        serial, s_stats = _run(graph, k, entry, workers=1)
        parallel, p_stats = _run(graph, k, entry, workers=2)
        assert _ordered_families(serial) == _ordered_families(parallel), (
            f"{name} entry={entry} k={k}: order or family differs"
        )
        assert s_stats.counters() == p_stats.counters(), (
            f"{name} entry={entry} k={k}: counters differ"
        )
        # The parallel engine really ran every step through the pool.
        assert p_stats.parallel_tasks >= p_stats.kvccs_found
        assert s_stats.parallel_tasks == 0


@pytest.mark.parametrize("seed", range(6))
def test_property_random_graphs(seed):
    """Property check over the seeded random-graph family (CSR base input).

    For each seed: the parallel family equals the serial family as a
    set *and* element-for-element in order, k-VCCs are induced k-cores
    of the input, and counters agree.
    """
    graph = random_connected_graph(30 + 3 * seed, 0.18 + 0.02 * seed, seed)
    for k in (2, 3, 4):
        serial, s_stats = _run(graph, k, "csr", workers=1)
        parallel, p_stats = _run(graph, k, "csr", workers=2)
        assert vertex_set_family(serial) == vertex_set_family(parallel)
        assert _ordered_families(serial) == _ordered_families(parallel)
        assert s_stats.counters() == p_stats.counters()
        for sub in parallel:
            assert sub.num_vertices > k
            assert min(sub.degree(v) for v in sub.vertices()) >= k


def test_parallel_returns_independent_graphs():
    """Returned k-VCCs own their adjacency (Property 1 overlap safety)."""
    graph = overlapping_cliques_graph(clique_size=5, num_cliques=2, overlap=2)
    a, b = enumerate_kvccs(graph, 4, KVCCOptions(workers=2))
    shared = set(a.vertices()) & set(b.vertices())
    assert shared  # the duplicated cut vertices
    v = next(iter(shared))
    before = set(b.neighbors(v))
    a.remove_vertex(v)
    assert set(b.neighbors(v)) == before


def test_stats_mergeable_across_runs():
    """Per-run stats from both engines merge into a consistent sweep."""
    graph = ring_of_cliques(num_cliques=4, clique_size=6)
    total = RunStats()
    per_run = []
    for k in (3, 4, 5):
        _, stats = _run(graph, k, "csr", workers=2)
        per_run.append(stats)
        total.merge(stats)
    assert total.kvccs_found == sum(s.kvccs_found for s in per_run)
    assert total.partitions == sum(s.partitions for s in per_run)
    assert total.parallel_tasks == sum(s.parallel_tasks for s in per_run)
    assert total.peak_resident_vertices == max(
        s.peak_resident_vertices for s in per_run
    )


def test_workers_zero_auto_sizes():
    """workers=0 sizes the pool to the machine and still matches serial."""
    graph = ring_of_cliques(num_cliques=3, clique_size=5)
    serial, _ = _run(graph, 4, "csr", workers=1)
    parallel, stats = _run(graph, 4, "csr", workers=0)
    assert _ordered_families(serial) == _ordered_families(parallel)
    assert stats.parallel_tasks > 0


def test_create_engine_selection():
    assert isinstance(create_engine(KVCCOptions(workers=1)), SerialEngine)
    assert isinstance(create_engine(KVCCOptions(workers=2)), ProcessPoolEngine)
    assert create_engine(KVCCOptions(workers=2)).workers == 2
    auto = create_engine(KVCCOptions(workers=0))
    assert isinstance(auto, ProcessPoolEngine) and auto.workers >= 1
    with pytest.raises(ValueError):
        create_engine(KVCCOptions(workers=-1))
    with pytest.raises(ValueError):
        ProcessPoolEngine(workers=-2)


def test_expand_work_item_leaf_and_split():
    """The shared single-step used by both engines, exercised directly."""
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


def test_empty_after_peel_skips_pool():
    """A graph with no k-core returns [] without touching a pool."""
    graph = random_connected_graph(12, 0.1, seed=1)
    stats = RunStats(k=8)
    result = enumerate_kvccs(graph, 8, KVCCOptions(workers=4), stats)
    assert result == []
    assert stats.parallel_tasks == 0


def test_vccs_containing_parallel():
    """The case-study query accepts engine-configured options."""
    from repro.core.kvcc import vccs_containing

    graph = ring_of_cliques(num_cliques=4, clique_size=6)
    v = next(iter(graph.vertices()))
    serial = vccs_containing(graph, 5, v, KVCCOptions())
    parallel = vccs_containing(graph, 5, v, KVCCOptions(workers=2))
    assert _ordered_families(serial) == _ordered_families(parallel)


class TestRunMany:
    """Multi-root draining: the level-at-a-time API of the hierarchy."""

    def test_grouped_results_match_individual_runs(self):
        graph = ring_of_cliques(num_cliques=3, clique_size=6)
        base = graph.to_csr()
        parts = [list(range(0, 12)), list(range(12, 18))]
        options = KVCCOptions()
        grouped = SerialEngine().run_many(
            [base.view_from_members(p) for p in parts],
            3,
            options,
            RunStats(k=3),
        )
        for part, group in zip(parts, grouped):
            solo = SerialEngine().run(
                base.view_from_members(part), 3, options, RunStats(k=3)
            )
            assert _ordered_families(group) == _ordered_families(solo)

    def test_serial_and_pool_grouping_identical(self):
        graph = ring_of_cliques(num_cliques=3, clique_size=6)
        base = graph.to_csr()
        parts = [list(range(0, 12)), list(range(12, 18)), [0, 1]]
        options = KVCCOptions()
        make = lambda: [base.view_from_members(p) for p in parts]
        serial = SerialEngine().run_many(
            make(), 3, options, RunStats(k=3)
        )
        pooled = ProcessPoolEngine(workers=2).run_many(
            make(), 3, options, RunStats(k=3)
        )
        assert len(serial) == len(pooled) == len(parts)
        for s_group, p_group in zip(serial, pooled):
            assert _ordered_families(s_group) == _ordered_families(p_group)
        assert serial[2] == []  # too small to host a 3-VCC

    def test_materialize_false_returns_sorted_ids(self):
        graph = ring_of_cliques(num_cliques=3, clique_size=5)
        base = graph.to_csr()
        options = KVCCOptions()
        for engine in (SerialEngine(), ProcessPoolEngine(workers=2)):
            groups = engine.run_many(
                [base.full_view()], 4, options, RunStats(k=4),
                materialize=False,
            )
            assert len(groups) == 1
            for members in groups[0]:
                assert members == sorted(members)
                assert all(isinstance(v, int) for v in members)

    def test_empty_works_list(self):
        options = KVCCOptions()
        assert SerialEngine().run_many([], 3, options, RunStats()) == []
        assert ProcessPoolEngine(workers=2).run_many(
            [], 3, options, RunStats()
        ) == []

    def test_pool_rejects_foreign_bases(self):
        graph = ring_of_cliques(num_cliques=2, clique_size=5)
        options = KVCCOptions()
        with pytest.raises(ValueError, match="share"):
            ProcessPoolEngine(workers=2).run_many(
                [graph.to_csr().full_view(), graph.to_csr().full_view()],
                3,
                options,
                RunStats(),
            )


class TestCSRPickle:
    """The wire formats the pool relies on (and general pickling)."""

    def test_csr_graph_round_trip(self):
        graph = web_graph(80, seed=2)
        csr = graph.to_csr()
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.n == csr.n
        assert clone.indptr == csr.indptr
        assert clone.indices == csr.indices
        assert clone.rows == csr.rows  # derived state rebuilt
        assert clone.interner.labels == csr.interner.labels

    def test_view_round_trip_after_peel(self):
        graph = web_graph(80, seed=2)
        view = graph.to_csr().full_view()
        view.peel(4)
        clone = pickle.loads(pickle.dumps(view))
        assert clone.vertex_set() == view.vertex_set()
        assert [clone.degree(v) for v in clone.vertices()] == [
            view.degree(v) for v in view.vertices()
        ]
        assert clone.num_edges == view.num_edges

    def test_views_share_base_in_one_payload(self):
        view = ring_of_cliques(4, 5).to_csr().full_view()
        parts = [view.restrict(set(list(view.vertices())[:10])),
                 view.restrict(set(list(view.vertices())[5:15]))]
        a, b = pickle.loads(pickle.dumps(parts))
        assert a.base is b.base  # memoized: base serialized once

    def test_view_from_mask_rejects_bad_length(self):
        csr = ring_of_cliques(3, 5).to_csr()
        with pytest.raises(ValueError):
            csr.view_from_mask(b"\x01\x01")

    def test_materialized_results_equal_across_engines(self):
        """Full Graph equality (adjacency, not just vertex sets)."""
        graph, _ = planted_kvcc_graph(
            k=3, num_blocks=3, block_size=6, overlap=1, bridge_edges=1, seed=3
        )
        serial = enumerate_kvccs(graph, 3, KVCCOptions())
        parallel = enumerate_kvccs(graph, 3, KVCCOptions(workers=2))
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.vertex_set() == b.vertex_set()
            for v in a.vertices():
                assert a.neighbors(v) == b.neighbors(v)


def test_kvcc_vertex_sets_parallel_matches_serial():
    graph = web_graph(150, out_degree=7, seed=4)
    assert kvcc_vertex_sets(graph, 4) == kvcc_vertex_sets(
        graph, 4, KVCCOptions(workers=2)
    )


# ----------------------------------------------------------------------
# Seeded stress tests (marked slow): the parallel engine against the
# golden regression fixtures on the full dataset stand-ins.
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_stress_parallel_matches_golden_counts(workers):
    """Every golden (dataset, k) count holds under every pool size."""
    from test_regression_golden import GOLDEN_COUNTS

    from repro.datasets.registry import load_dataset

    for (dataset, k), expected in sorted(GOLDEN_COUNTS.items()):
        graph = load_dataset(dataset)
        components = kvcc_vertex_sets(graph, k, KVCCOptions(workers=workers))
        assert len(components) == expected, (
            f"{dataset} k={k} workers={workers}: "
            f"{len(components)} != {expected}"
        )


@pytest.mark.slow
def test_stress_web_standin_workers_sweep():
    """The mid-size web stand-in: exact family + order per pool size."""
    from repro.datasets.registry import load_dataset

    graph = load_dataset("cnr")
    k = 6
    serial = enumerate_kvccs(graph, k, KVCCOptions())
    reference = _ordered_families(serial)
    for workers in (1, 2, 4):
        stats = RunStats(k=k)
        parallel = enumerate_kvccs(
            graph, k, KVCCOptions(workers=workers), stats
        )
        assert _ordered_families(parallel) == reference
        if workers > 1:
            assert stats.parallel_tasks >= stats.kvccs_found
