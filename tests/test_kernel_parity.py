"""Property-based parity: the c kernel must equal the python reference.

The kernel seam (``repro.kernels``) promises *identical observable
results* from both implementations - only wall-clock may differ.  This
suite drives random graphs through every kernel entry point under each
implementation and asserts exact agreement with the python reference:
max-flow values and the full residual capacity state with the order of
pushed arcs, min vertex cut sets, flow arenas, peel survivor masks and
active degrees, certificates (forests edge for edge, rows in fill
order, side-groups in order), components, the phase-1 order, strong
side-vertices, segment sorts, and the end-to-end enumeration with its
deterministic counters.  Sets are compared as lists, so their iteration
order (which follows insertion order) must agree too.

The c kernel reads CSR bases in place, so the view cases run on both
kinds of base the workloads hand out: an in-process
``CSRGraph.from_graph`` (8-byte ``array('l')`` rows) and a mapped KVCCG
file (read-only int32 ``memoryview`` sections).

The comparisons are skipped when the c kernel cannot be built (no
``cc`` on ``PATH``); CI runs the tier-1 suite under each kernel.
"""

from __future__ import annotations

import os
import tempfile
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st
from networkx.algorithms.connectivity import local_node_connectivity

import repro.kernels as kernels
from repro.certificate.side_groups import side_groups_from_forest
from repro.certificate.sparse_certificate import sparse_certificate
from repro.core.engine import SerialEngine
from repro.core.global_cut import _phase1_order
from repro.core.kvcc import enumerate_kvccs, enumerate_kvccs_csr
from repro.core.options import KVCCOptions
from repro.core.side_vertex import strong_side_vertices
from repro.core.stats import RunStats
from repro.flow.dinic import max_flow_min_k
from repro.flow.flow_network import build_flow_network
from repro.flow.min_cut import local_vertex_cut
from repro.graph.connectivity import (
    components_after_removal,
    connected_components,
)
from repro.graph.csr import CSRGraph, IntAdjacency, SubgraphView
from repro.graph.graph import Graph
from repro.index import IndexUpdater, build_index

from helpers import random_connected_graph, vertex_set_family

#: The kernels compared with the python reference here.
OTHER_KERNELS = tuple(n for n in kernels.available() if n != "python")

requires_other = pytest.mark.skipif(
    not OTHER_KERNELS, reason="no C compiler available"
)

#: Hypothesis inputs shared by most parity cases.
GRAPH_ARGS = dict(
    n=st.integers(min_value=5, max_value=24),
    p=st.floats(min_value=0.15, max_value=0.75),
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=2, max_value=5),
)

#: ``GRAPH_ARGS`` plus the base kind and a view stride: 1 is the full
#: view, ``s > 1`` drops every ``s``-th base id, so kernels also see a
#: view that is a strict subset of its base.  ``isolated`` appends
#: that many edgeless vertices to the graph.
VIEW_ARGS = dict(
    GRAPH_ARGS,
    stride=st.integers(min_value=1, max_value=4),
    mapped=st.booleans(),
    isolated=st.integers(min_value=0, max_value=3),
)


def make_base(g, mapped: bool) -> CSRGraph:
    """``g``'s CSR base, in process or through a mapped KVCCG file."""
    base = CSRGraph.from_graph(g)
    if not mapped:
        return base
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.kvccg")
        base.save(path)
        # The mapping outlives the file's name.
        loaded = CSRGraph.load(path)
    assert isinstance(loaded.indices, memoryview)
    return loaded


def with_isolated(g, count: int):
    g = g.copy()
    top = max(g.vertices()) + 1
    for v in range(top, top + count):
        g.add_vertex(v)
    return g


def strided_view(g, stride: int, mapped: bool = False):
    """A view of ``g``'s CSR base on the ids kept by ``stride``."""
    base = make_base(g, mapped)
    return base.view_from_members(
        v for v in range(base.n) if stride == 1 or v % stride
    )


def view_case(n, p, seed, stride, mapped, isolated):
    return strided_view(
        with_isolated(random_connected_graph(n, p, seed), isolated),
        stride, mapped,
    )


def certificate_state(view, k):
    """Everything observable about a certificate, sets as lists."""
    cert = sparse_certificate(view, k)
    graph = cert.graph
    return (
        cert.forests,
        [list(graph.neighbors(v)) for v in graph.vertices()],
        graph.num_edges,
        [list(group) for group in side_groups_from_forest(cert, k)],
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


def arena(net):
    return (list(net.head), list(net.cap), list(net.initial_cap),
            net.to_index, net.to_vertex)


def per_kernel(fn):
    """Run ``fn(kernel_name)`` under the reference, then under every
    other kernel that loads; each result must equal the reference's,
    which is returned."""
    with kernels.use("python"):
        expected = fn("python")
    for name in OTHER_KERNELS:
        with kernels.use(name):
            assert fn(name) == expected, f"{name} differs from python"
    return expected


@requires_other
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
                states.append((flow, list(net.cap), list(net._touched)))
                net.reset()
            return states

        per_kernel(run)

    def check_interleaved_sources(self, n, p, seed, k):
        """Every kernel agrees on every query, and the flow is kappa.

        Three sources take turns over three sinks with a reset between
        queries.
        """
        g = random_connected_graph(n, p, seed)
        verts = sorted(g.vertices())
        pairs = [
            (u, v)
            for v in verts[-3:]
            for u in verts[:3]
            if not g.has_edge(u, v)
        ]
        py = per_kernel(lambda _name: flow_states(g, k, pairs))
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
    @example(n=10, p=0.4, seed=3, k=3)
    def test_queries_without_reset(self, n, p, seed, k):
        # Each query starts from the previous one's residual state, in
        # which flow pushed from the other source can shorten paths.
        g = random_connected_graph(n, p, seed)
        verts = sorted(g.vertices())
        pairs = [
            (u, v)
            for u in verts[:2]
            for v in verts[-2:]
            if not g.has_edge(u, v)
        ]
        pairs += pairs[::-1]
        per_kernel(lambda _name: flow_states(g, k, pairs, reset=False))

    def test_flow_of_k_n_minus_1_on_a_dense_graph(self):
        # K_12 minus two edges, at k = n - 1: ten three-arc paths per
        # query, more pushes than the c kernel's first push log holds,
        # so the log has to grow mid-call.  (The missing edges keep
        # first-seen order, so CSR ids equal the labels.)
        n = 12
        missing = {(0, n - 1), (1, n - 2)}
        g = Graph(
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in missing
        )
        pairs = [(0, n - 1), (1, n - 2), (n - 1, 0)]
        for reset in (True, False):
            states = per_kernel(
                lambda _name: flow_states(g, n - 1, pairs, reset=reset)
            )
            assert states[0][0] == n - 2
        if "c" in OTHER_KERNELS:
            with kernels.use("c"):
                view = CSRGraph.from_graph(g).full_view()
                net = build_flow_network(view, n - 1)
                cut = local_vertex_cut(view, net, 0, n - 1, n - 1)
                assert cut == set(range(1, n - 1))
                assert len(net._kern_state["c"]["log"]) > net.num_nodes

    def test_disconnected_pair_has_zero_flow(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        pairs = [(0, 3), (3, 0), (0, 5)]
        py = per_kernel(lambda _name: flow_states(g, 2, pairs))
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

        per_kernel(run)

    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS)
    def test_arena_from_a_view(self, n, p, seed, k, stride, mapped,
                               isolated):
        view = view_case(n, p, seed, stride, mapped, isolated)
        per_kernel(lambda _name: arena(build_flow_network(view, k)))


@requires_other
class TestViewKernelParity:
    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS)
    def test_peel_mask_degrees_and_active_ids(self, n, p, seed, k, stride,
                                              mapped, isolated):
        g = with_isolated(random_connected_graph(n, p, seed), isolated)

        def run(_name):
            view = strided_view(g, stride, mapped)
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
                view.base.view_from_members(view.active_list()).deg,
            )

        per_kernel(run)

    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS)
    def test_scan_first_forests_edge_for_edge(self, n, p, seed, k, stride,
                                              mapped, isolated):
        view = view_case(n, p, seed, stride, mapped, isolated)
        forests, _rows, _m, groups = per_kernel(
            lambda _name: certificate_state(view, k)
        )
        assert forests and len(forests) <= k
        assert all(len(group) > k for group in groups)

    def test_k_beyond_the_last_forest(self):
        # A path has one non-empty forest; the second comes back empty
        # and ends the extraction, so F_k is empty: no side-groups.
        view = strided_view(Graph([(0, 1), (1, 2), (2, 3)]), 1)
        forests, rows, m, groups = per_kernel(
            lambda _name: certificate_state(view, 5)
        )
        assert [len(f) for f in forests] == [3, 0]
        assert m == 3 and groups == []
        assert rows == [[1], [0, 2], [1, 3], [2]]

    @pytest.mark.parametrize("mapped", [False, True])
    def test_empty_view(self, mapped):
        base = make_base(Graph([(0, 1), (1, 2)]), mapped)

        def run(_name):
            view = base.view_from_members([])
            return (
                certificate_state(view, 3),
                connected_components(view),
                strong_side_vertices(view, 2),
                arena(build_flow_network(view, 2)),
                kernels.select().active_ids(view.mask),
            )

        state = per_kernel(run)
        assert state[0] == ([[]], [], 0, [])

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

        per_kernel(run)

    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS)
    def test_fill_forest_adjacency(self, n, p, seed, k, stride, mapped,
                                   isolated):
        """Certificate rows, and the flow arena built from them."""
        view = view_case(n, p, seed, stride, mapped, isolated)

        def run(_name):
            cert = sparse_certificate(view, k)
            return (
                [list(cert.graph.neighbors(v))
                 for v in range(view.base.n)],
                arena(build_flow_network(cert.graph, k)),
            )

        per_kernel(run)

    def test_hand_built_rows(self):
        # Rows that no certificate wrote (so the c kernel converts them)
        # and members out of id order.
        graph = IntAdjacency(9, [7, 2, 5, 0])
        graph.add_edges([(7, 0), (2, 5), (0, 2), (5, 7)])

        def run(_name):
            return (arena(build_flow_network(graph, 3)),
                    kernels.select().farthest_first(graph, 5))

        per_kernel(run)

    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS, cut=st.lists(st.integers(-3, 40), max_size=4))
    def test_components(self, n, p, seed, k, stride, mapped, isolated,
                        cut):
        # ``cut`` mixes active ids, ids outside the view and ids outside
        # the base.
        view = view_case(n, p, seed, stride, mapped, isolated)

        def run(_name):
            return (
                [list(c) for c in connected_components(view)],
                [list(c) for c in components_after_removal(view, cut)],
            )

        per_kernel(run)

    def test_components_share_the_active_lists_ints(self):
        # Results hold the root view's int objects, not fresh boxes:
        # perfbench keeps every enumerate pass's results, so boxing ids
        # per call would grow its peak RSS with the number of passes.
        base = CSRGraph.from_graph(Graph((v, v + 1) for v in range(400)))
        with kernels.use("c"):
            view = base.full_view()
            [comp] = connected_components(view)
            assert base.full_view().active_list()[300] is view.active_list()[300]
        by_value = {v: v for v in view.active_list()}
        assert all(v is by_value[v] for v in comp)

    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS)
    def test_phase1_order(self, n, p, seed, k, stride, mapped, isolated):
        view = view_case(n, p, seed, stride, mapped, isolated)
        opts = KVCCOptions()

        def run(_name):
            cert = sparse_certificate(view, k)
            sources = view.active_list()[:: max(1, view.num_vertices // 3)]
            return [
                (_phase1_order(cert.graph, s, opts),
                 _phase1_order(view, s, opts))
                for s in sources
            ]

        per_kernel(run)

    @settings(max_examples=25, deadline=None)
    @given(**VIEW_ARGS, extra=st.lists(st.integers(-3, 40), max_size=4))
    def test_strong_side_vertices(self, n, p, seed, k, stride, mapped,
                                  isolated, extra):
        view = view_case(n, p, seed, stride, mapped, isolated)
        candidates = view.active_list()[::2] + extra

        def run(_name):
            return (
                list(strong_side_vertices(view, k)),
                list(strong_side_vertices(view, k, candidates)),
                list(strong_side_vertices(view, k, set(candidates))),
            )

        per_kernel(run)

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_strong_scan_through_a_hub(self, mapped, seed):
        """Base id 0 is a hub whose row outgrows 64 times the pairs left
        at it (``KVCC_SEARCH_RATIO``) at most of its neighbors, so the c
        kernel binary-searches that row; the random graphs above only
        ever merge."""
        g = random_connected_graph(400, 0.008, seed)
        hubbed = Graph()
        hubbed.add_vertex(-1)
        for v in list(g.vertices())[seed::2]:
            hubbed.add_edge(-1, v)
        for u, v in g.edges():
            hubbed.add_edge(u, v)
        base = make_base(hubbed, mapped)
        assert base.indptr[1] - base.indptr[0] == 200 - seed // 2

        def run(_name):
            return [list(strong_side_vertices(view, k))
                    for view in (base.full_view(),
                                 base.view_from_members(range(0, 400, 3)))
                    for k in (2, 3)]

        per_kernel(run)

    def test_arrays_that_do_not_match_n_are_rejected(self):
        # C indexes indptr by base id and indices by indptr: a base
        # whose arrays are shorter than n claims must not reach it.
        base = CSRGraph(4, array("l", [0, 1, 2]), array("l", [1, 0]))
        mask = b"\x01\x01\x00\x00"
        view = SubgraphView(base, bytearray(mask), [1, 1, 0, 0], 2, [0, 1])
        with kernels.use("c"):
            with pytest.raises(ValueError, match="match"):
                connected_components(view)
            with pytest.raises(ValueError, match="match"):
                base.view_from_members([0, 1])

    def test_region_base_with_empty_rows(self, tmp_path):
        """An ``IndexUpdater`` batch base: rows only for its region."""
        g = random_connected_graph(30, 0.2, 4)
        path = os.path.join(str(tmp_path), "g.kvccidx")
        build_index(g).save_atomic(path)
        updater = IndexUpdater(path, graph=g)
        region = list(range(5, 25))
        base = updater._build_csr(region)
        assert base.indptr[5] == 0 and base.indptr[25] == len(base.indices)

        def run(_name):
            view = base.view_from_members(region)
            return (
                certificate_state(view, 3),
                [list(c) for c in connected_components(view)],
                list(strong_side_vertices(view, 3)),
                arena(build_flow_network(view, 3)),
                _phase1_order(view, region[0], KVCCOptions()),
                SerialEngine().run_many(
                    [view], 3, KVCCOptions(), RunStats(k=3),
                    materialize=False,
                ),
            )

        per_kernel(run)


def hand_view(base, members):
    """A view of ``base`` on ``members`` built without a kernel call
    (``view_from_members`` counts degrees in the kernel)."""
    mask = bytearray(base.n)
    for v in members:
        mask[v] = 1
    return SubgraphView(base, mask, [0] * base.n, len(members), members)


#: The view-reading kernel calls of GLOBAL-CUT, as ``call(view)``.
VIEW_CALLS = (
    connected_components,
    lambda view: sparse_certificate(view, 2),
    lambda view: strong_side_vertices(view, 2),
    lambda view: build_flow_network(view, 2),
)


@requires_other
class TestCorruptInputUnderC:
    """The c kernel reads bases in place and trusts none of their
    values: where an unchecked read would leave a buffer, the call
    raises ``ValueError``.  The python reference reads the rows
    ``CSRGraph.rows`` boxes, which checks every row when it builds
    them, so a corrupt middle offset fails there too instead of being
    clamped into a wrong row."""

    MID = 6

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("value, vertex", [
        (0, MID - 1),       # row MID - 1 runs backwards
        (-3, MID),          # row MID starts below 0
        ("past", MID - 1),  # row MID - 1 ends past the indices
    ])
    def test_corrupt_middle_indptr_entry(self, tmp_path, mapped, value,
                                         vertex):
        """A base whose indptr endpoints are intact, so a mapped KVCCG
        passes the load (which checks only those), at both widths:
        int32 sections of the mapped file, or an in-process 8-byte
        ``array('l')`` base.  Every kernel refuses it."""
        good = CSRGraph.from_graph(random_connected_graph(12, 0.4, 3))
        if value == "past":
            value = len(good.indices) + 5
        indptr = array("l", good.indptr)
        indptr[self.MID] = value
        bad = CSRGraph(good.n, indptr, array("l", good.indices))
        if mapped:
            path = tmp_path / "g.kvccg"
            bad.save(path)
            bad = CSRGraph.load(path)
        assert bad.indptr[self.MID] == value
        for name in ("python",) + OTHER_KERNELS:
            with kernels.use(name):
                with pytest.raises(ValueError, match="outside the base"):
                    bad.view_from_members([vertex])
                for view in (bad.full_view(), hand_view(bad, [vertex])):
                    for call in VIEW_CALLS:
                        with pytest.raises(ValueError,
                                           match="outside the base"):
                            call(view)

    @pytest.mark.parametrize("value, vertex", [(-3, MID), ("past", MID - 1)])
    def test_row_outside_the_indices_among_valid_ids(self, value, vertex):
        # The indices are a slice of a longer buffer padded on both
        # sides with the valid (and inactive) id 0, so only the row
        # bound checks can catch the overrun.
        base = CSRGraph.from_graph(random_connected_graph(12, 0.4, 3))
        nnz = len(base.indices)
        indptr = array("l", base.indptr)
        indptr[self.MID] = nnz + 5 if value == "past" else value
        pad = array("l", [0] * 8)
        padded = pad + array("l", base.indices) + pad
        bad = CSRGraph(base.n, indptr, memoryview(padded)[8:8 + nnz])
        with kernels.use("c"):
            for call in VIEW_CALLS:
                with pytest.raises(ValueError, match="outside the base"):
                    call(hand_view(bad, [vertex]))

    def test_common_neighbor_outside_the_base(self):
        # Rows 1 and 2 share the id 99, which the strong scan meets
        # while counting the common neighbors of 1 and 2.
        base = CSRGraph(4, array("l", [0, 2, 4, 6, 6]),
                        array("l", [1, 2, 0, 99, 0, 99]))
        with kernels.use("c"):
            with pytest.raises(ValueError, match="outside the base"):
                strong_side_vertices(hand_view(base, [0, 1, 2]), 2, [0])

    def test_view_whose_mask_and_ids_disagree(self):
        # The mask marks every vertex, the ids list only vertex 0.
        base = CSRGraph.from_graph(random_connected_graph(8, 0.5, 1))
        view = SubgraphView(base, bytearray(b"\x01" * base.n),
                            [0] * base.n, 1, [0])
        with kernels.use("c"):
            for call in VIEW_CALLS[:2] + VIEW_CALLS[3:]:
                with pytest.raises(ValueError, match="disagree"):
                    call(view)


@requires_other
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

        per_kernel(run)

    @settings(max_examples=10, deadline=None)
    @given(**GRAPH_ARGS)
    def test_enumerate_on_a_mapped_base(self, n, p, seed, k):
        base = make_base(random_connected_graph(n, p, seed), mapped=True)

        def run(_name):
            stats = RunStats(k=k)
            out = enumerate_kvccs_csr(base, k, KVCCOptions(), stats,
                                      materialize=False)
            return [list(c) for c in out], stats.counters()

        per_kernel(run)
