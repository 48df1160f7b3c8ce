"""Property-based parity: the numpy kernels must equal the reference.

The kernel seam (``repro.kernels``) promises *identical observable
results* from both implementations - only wall-clock may differ.  This
suite drives random graphs through every kernel entry point under each
implementation and asserts exact agreement: max-flow values and the
full residual capacity state, min vertex cut sets, peel survivor masks
and active degrees, scan-first forests edge-for-edge, segment sorts,
certificate adjacency fills, and the end-to-end enumeration with its
deterministic counters.

The numpy kernel hands inputs below its ``_SCALAR_*`` size crossovers
to the python reference, and hypothesis inputs are small, so an
autouse fixture sets every crossover to 0: each case compares numpy's
array code, at every size, with the reference.  (The production
crossovers are checked in ``tests/test_flow.py``.)

The numpy half of every comparison is skipped when numpy is not
installed (CI runs the tier-1 suite both ways); the shared-memory
``MaskPool`` tests at the bottom are kernel-independent.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import example, given, settings, strategies as st
from networkx.algorithms.connectivity import local_node_connectivity

import repro.core.mask_pool as mask_pool
import repro.kernels as kernels
from repro.core.kvcc import enumerate_kvccs
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.flow.dinic import max_flow_min_k
from repro.flow.flow_network import build_flow_network
from repro.flow.min_cut import local_vertex_cut
from repro.graph.csr import CSRGraph, IntAdjacency
from repro.graph.graph import Graph

from helpers import random_connected_graph, vertex_set_family

requires_numpy = pytest.mark.skipif(
    "numpy" not in kernels.available(), reason="numpy not installed"
)

#: Hypothesis inputs shared by most parity cases.
GRAPH_ARGS = dict(
    n=st.integers(min_value=5, max_value=24),
    p=st.floats(min_value=0.15, max_value=0.75),
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=2, max_value=5),
)

#: ``GRAPH_ARGS`` plus a view stride: 1 is the full view, ``s > 1``
#: drops every ``s``-th base id, so kernels also see a view that is a
#: strict subset of its base.
VIEW_ARGS = dict(GRAPH_ARGS, stride=st.integers(min_value=1, max_value=4))


@pytest.fixture(autouse=True)
def array_code_at_every_size(monkeypatch):
    """Force numpy's array programs on for inputs of any size."""
    if "numpy" not in kernels.available():
        return
    from repro.kernels import numpy_impl

    for name in vars(numpy_impl).copy():
        if name.startswith("_SCALAR_"):
            monkeypatch.setattr(numpy_impl, name, 0)


def strided_view(g, stride: int):
    """A view of ``g``'s CSR base on the ids kept by ``stride``."""
    base = CSRGraph.from_graph(g)
    return base.view_from_members(
        v for v in range(base.n) if stride == 1 or v % stride
    )


def flow_states(g, k: int, pairs, reset: bool = True):
    """``(flow, cap, touched)`` after each query of ``pairs`` on one network.

    ``touched`` lists the arcs of every augmenting path pushed so far,
    in push order, so equal states mean the same paths in the same
    order.  ``reset=False`` starts each query from the previous one's
    residual state.
    """
    net = build_flow_network(CSRGraph.from_graph(g).full_view(), k)
    states = []
    for u, v in pairs:
        flow = max_flow_min_k(net, net.node_out(u), net.node_in(v), k)
        states.append((flow, list(net.cap), list(net._touched)))
        if reset:
            net.reset()
    return states


def per_kernel(fn):
    """Run ``fn(kernel_name)`` under each kernel; returns its results."""
    out = {}
    for name in ("python", "numpy"):
        with kernels.use(name):
            out[name] = fn(name)
    return out["python"], out["numpy"]


@requires_numpy
class TestFlowParity:
    @settings(max_examples=25, deadline=None)
    @given(**GRAPH_ARGS)
    def test_max_flow_value_and_residual_state(self, n, p, seed, k):
        g = random_connected_graph(n, p, seed)
        verts = sorted(g.vertices())
        pairs = [
            (u, v)
            for u in verts[:4]
            for v in verts[-4:]
            if u != v and not g.has_edge(u, v)
        ][:4]

        def run(_name):
            view = CSRGraph.from_graph(g).full_view()
            net = build_flow_network(view, k)
            states = []
            for u, v in pairs:
                flow = max_flow_min_k(
                    net, net.node_out(u), net.node_in(v), k
                )
                states.append((flow, list(net.cap)))
                net.reset()
            return states

        py, np_ = per_kernel(run)
        assert py == np_

    def check_interleaved_sources(self, n, p, seed, k):
        """Both kernels agree on every query, and the flow is kappa.

        Three sources take turns over three sinks with a reset between
        queries, so each source's cached first phase is reused.
        """
        g = random_connected_graph(n, p, seed)
        verts = sorted(g.vertices())
        pairs = [
            (u, v)
            for v in verts[-3:]
            for u in verts[:3]
            if not g.has_edge(u, v)
        ]
        py, np_ = per_kernel(lambda _name: flow_states(g, k, pairs))
        assert py == np_
        nxg = g.to_networkx()
        for (u, v), (flow, _cap, _touched) in zip(pairs, py):
            assert flow == min(k, local_node_connectivity(nxg, u, v))
        return py

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=30, max_value=60),
        p=st.floats(min_value=0.08, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=2, max_value=8),
    )
    def test_interleaved_sources_with_resets(self, n, p, seed, k):
        self.check_interleaved_sources(n, p, seed, k)

    def test_later_phases_cancel_through_reverse_arcs(self):
        states = self.check_interleaved_sources(40, 0.15, 2, 8)
        # Odd arc ids are reverse arcs: pushing one cancels earlier flow.
        assert any(
            arc & 1 for _flow, _cap, touched in states for arc in touched
        )

    @settings(max_examples=25, deadline=None)
    @given(**GRAPH_ARGS)
    # Reusing a source's cached first phase here picks other paths.
    @example(n=10, p=0.4, seed=3, k=3)
    def test_queries_without_reset(self, n, p, seed, k):
        # Each query starts from the previous one's residual state, in
        # which flow pushed from the other source can shorten paths, so
        # its first phase must come from a fresh BFS, not the cache.
        g = random_connected_graph(n, p, seed)
        verts = sorted(g.vertices())
        pairs = [
            (u, v)
            for u in verts[:2]
            for v in verts[-2:]
            if not g.has_edge(u, v)
        ]
        pairs += pairs[::-1]
        py, np_ = per_kernel(
            lambda _name: flow_states(g, k, pairs, reset=False)
        )
        assert py == np_

    def test_disconnected_pair_has_zero_flow(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        pairs = [(0, 3), (3, 0), (0, 5)]
        py, np_ = per_kernel(lambda _name: flow_states(g, 2, pairs))
        assert py == np_
        assert [flow for flow, _cap, _touched in py] == [0, 0, 0]

    @settings(max_examples=25, deadline=None)
    @given(**GRAPH_ARGS)
    def test_min_cut_sets(self, n, p, seed, k):
        g = random_connected_graph(n, p, seed)
        verts = sorted(g.vertices())
        pairs = [(verts[0], v) for v in verts[1:6]]

        def run(_name):
            view = CSRGraph.from_graph(g).full_view()
            net = build_flow_network(view, k)
            return [
                local_vertex_cut(view, net, u, v, k) for u, v in pairs
            ]

        py, np_ = per_kernel(run)
        assert py == np_


@requires_numpy
class TestViewKernelParity:
    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS)
    def test_peel_mask_degrees_and_active_ids(self, n, p, seed, k, stride):
        g = random_connected_graph(n, p, seed)

        def run(_name):
            view = strided_view(g, stride)
            removed = view.peel(k)
            kern = kernels.select()
            # deg entries of removed vertices are unobservable scratch
            # (every consumer checks the mask first), so compare
            # degrees only where the mask is set.
            live_deg = [
                d for d, m in zip(view.deg, view.mask) if m
            ]
            return (
                removed,
                bytes(view.mask),
                live_deg,
                kern.active_ids(view.mask),
                kern.active_degrees(
                    view.base, view.mask, kern.active_ids(view.mask)
                ),
            )

        py, np_ = per_kernel(run)
        assert py == np_

    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS)
    def test_scan_first_forests_edge_for_edge(self, n, p, seed, k, stride):
        g = random_connected_graph(n, p, seed)

        def run(_name):
            view = strided_view(g, stride)
            return kernels.select().scan_first_forests(view, k)

        py, np_ = per_kernel(run)
        assert py == np_

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=40),
                max_size=12,
            ),
            min_size=1,
            max_size=20,
        )
    )
    # An empty input reaches numpy's argsort path once it is forced on.
    @example(rows=[[]])
    def test_sort_segments(self, rows):
        indptr = [0]
        flat = []
        for row in rows:
            flat.extend(row)
            indptr.append(len(flat))

        def run(_name):
            return kernels.select().sort_segments(
                array("l", indptr), list(flat)
            )

        py, np_ = per_kernel(run)
        assert list(py) == list(np_)

    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS)
    def test_fill_forest_adjacency(self, n, p, seed, k, stride):
        g = random_connected_graph(n, p, seed)
        view = strided_view(g, stride)
        base = view.base
        with kernels.use("python"):
            forests = kernels.select().scan_first_forests(view, k)

        def run(_name):
            cert = IntAdjacency(base.n, view.active_list())
            kernels.select().fill_forest_adjacency(cert, forests)
            net = build_flow_network(cert, k)
            return (
                [list(cert.neighbors(v)) for v in range(base.n)],
                (net.head, net.cap, net.tails, net.to_index),
            )

        py, np_ = per_kernel(run)
        assert py == np_


@requires_numpy
class TestEndToEndParity:
    @settings(max_examples=20, deadline=None)
    @given(**GRAPH_ARGS)
    def test_enumerate_results_and_counters(self, n, p, seed, k):
        g = random_connected_graph(n, p, seed)

        def run(_name):
            stats = RunStats(k=k)
            fam = vertex_set_family(
                enumerate_kvccs(g, k, KVCCOptions(), stats)
            )
            return fam, stats.counters()

        py, np_ = per_kernel(run)
        assert py == np_


@pytest.mark.skipif(
    not mask_pool.available(), reason="shared memory unavailable"
)
class TestMaskPool:
    def test_round_trip_and_slot_reuse(self):
        with mask_pool.MaskPool(8, slots_per_segment=2) as pool:
            a = pool.put(b"\x01" * 8)
            b = pool.put(b"\x02" * 8)
            c = pool.put(b"\x03" * 8)  # forces a second segment
            assert mask_pool.read_mask(*a, 8) == b"\x01" * 8
            assert mask_pool.read_mask(*b, 8) == b"\x02" * 8
            assert mask_pool.read_mask(*c, 8) == b"\x03" * 8
            pool.free(*b)
            d = pool.put(b"\x04" * 8)
            assert d == b  # LIFO reuse of the freed slot
            assert mask_pool.read_mask(*d, 8) == b"\x04" * 8
        mask_pool.detach_all()

    def test_put_validates_length(self):
        with mask_pool.MaskPool(4) as pool:
            with pytest.raises(ValueError):
                pool.put(b"\x00" * 5)

    def test_close_is_idempotent_and_unlinks(self):
        pool = mask_pool.MaskPool(4)
        name, _ = pool.put(b"\x00" * 4)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.put(b"\x00" * 4)
