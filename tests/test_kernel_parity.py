"""Property-based parity: the numpy kernels must equal the reference.

The kernel seam (``repro.kernels``) promises *identical observable
results* from both implementations - only wall-clock may differ.  This
suite drives random graphs through every kernel entry point under each
implementation and asserts exact agreement: max-flow values and the
full residual capacity state, min vertex cut sets, peel survivor masks
and active degrees, scan-first forests edge-for-edge, component
families, segment sorts, certificate adjacency fills, and the
end-to-end enumeration with its deterministic counters.

The numpy half of every comparison is skipped when numpy is not
installed (CI runs the tier-1 suite both ways); the shared-memory
``MaskPool`` tests at the bottom are kernel-independent.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.mask_pool as mask_pool
import repro.kernels as kernels
from repro.core.kvcc import enumerate_kvccs
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.flow.dinic import max_flow_min_k
from repro.flow.flow_network import build_flow_network
from repro.flow.min_cut import local_vertex_cut
from repro.graph.csr import CSRGraph, IntAdjacency

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


def strided_view(g, stride: int):
    """A view of ``g``'s CSR base on the ids kept by ``stride``."""
    base = CSRGraph.from_graph(g)
    return base.view_from_members(
        v for v in range(base.n) if stride == 1 or v % stride
    )


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
    @given(**GRAPH_ARGS)
    def test_components_after_removal(self, n, p, seed, k):
        g = random_connected_graph(n, p, seed)
        removed = set(list(sorted(g.vertices()))[::3][:k])

        def run(_name):
            view = CSRGraph.from_graph(g).full_view()
            return kernels.select().components(view, removed)

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
