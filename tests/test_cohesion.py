"""Tests for the multi-measure cohesion index (``KVCCCOH``).

Covers the container format (round trips, mmap loads, corruption
rejection, sniffing), the per-measure forests against the offline
:mod:`repro.baselines` enumerators (the acceptance bar: served k-ECC /
k-core answers must equal the reference implementations), the derived
and query products.
"""

import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.kcore_cc import k_core_components
from repro.baselines.kecc import k_ecc_components
from repro.baselines.stoer_wagner import global_min_edge_cut
from repro.graph.generators import ring_of_cliques
from repro.graph.graph import Graph
from repro.index import (
    HierarchyQueryService,
    MEASURES,
    build_index,
    load_any_index,
    sniff_measures,
)
from repro.index.cohesion import (
    COHESION_FORMAT_VERSION,
    COHESION_MAGIC,
    CohesionIndex,
    CohesionQueryService,
    build_cohesion_index,
    build_measure_hierarchy,
    load_cohesion_index,
)
from repro.index.mincut import min_edge_cut

from helpers import random_connected_graph


def level_components(index, k):
    """All level-k component member sets of one measure's index."""
    return {
        frozenset(index.member_labels(node))
        for node in range(index.num_nodes)
        if index.node_k[node] == k
    }


def baseline_components(measure, graph, k):
    """The offline reference answer for one measure at level k."""
    if measure == "kecc":
        components = k_ecc_components(graph, k)
    else:
        components = k_core_components(graph, k)
    return {frozenset(c) for c in components}


@pytest.fixture(scope="module")
def ring():
    return ring_of_cliques(3, 5)


@pytest.fixture(scope="module")
def cohesion(ring):
    return build_cohesion_index(ring)


class TestBuildMeasureHierarchy:
    @pytest.mark.parametrize("measure", ["kecc", "kcore"])
    def test_levels_match_baselines(self, ring, measure):
        hierarchy = build_measure_hierarchy(ring, measure)
        assert hierarchy.max_k >= 1
        for k in range(1, hierarchy.max_k + 1):
            got = {
                frozenset(node.vertices)
                for node in hierarchy.nodes
                if node.k == k
            }
            assert got == baseline_components(measure, ring, k)

    def test_forest_nesting(self, ring):
        hierarchy = build_measure_hierarchy(ring, "kecc")
        for node in hierarchy.nodes:
            if node.parent is not None:
                parent = hierarchy.nodes[node.parent]
                assert node.vertices <= parent.vertices
                assert parent.k == node.k - 1

    def test_max_k_caps_depth(self, ring):
        hierarchy = build_measure_hierarchy(ring, "kcore", max_k=2)
        assert hierarchy.max_k == 2

    def test_unknown_measure_rejected(self, ring):
        with pytest.raises(ValueError, match="unknown cohesion measure"):
            build_measure_hierarchy(ring, "kclique")

    @pytest.mark.parametrize("measure", ["kecc", "kcore"])
    @pytest.mark.parametrize("max_k", [0, -1])
    def test_max_k_below_one_rejected(self, ring, measure, max_k):
        with pytest.raises(ValueError, match="at least 1"):
            build_measure_hierarchy(ring, measure, max_k=max_k)


class TestCohesionIndexContainer:
    def test_measures_canonical_order(self, cohesion):
        assert cohesion.measures == MEASURES
        # Construction order does not leak into the container.
        shuffled = CohesionIndex(
            {
                "kcore": cohesion.index_for("kcore"),
                "kvcc": cohesion.index_for("kvcc"),
            }
        )
        assert shuffled.measures == ("kvcc", "kcore")

    def test_rejects_empty_and_unknown(self, cohesion):
        with pytest.raises(ValueError, match="at least one measure"):
            CohesionIndex({})
        with pytest.raises(ValueError, match="unknown cohesion measure"):
            CohesionIndex({"ktruss": cohesion.index_for("kvcc")})

    def test_round_trip_mmap(self, cohesion, tmp_path):
        path = str(tmp_path / "g.kvcccoh")
        cohesion.save_atomic(path)
        loaded = load_cohesion_index(path)
        assert all(loaded.index_for(m).is_mmap for m in loaded.measures)
        assert loaded == cohesion

    def test_to_bytes_deterministic(self, ring, cohesion, tmp_path):
        rebuilt = build_cohesion_index(ring)
        assert rebuilt.to_bytes() == cohesion.to_bytes()
        path = str(tmp_path / "g.kvcccoh")
        cohesion.save(path)
        with open(path, "rb") as handle:
            assert handle.read() == cohesion.to_bytes()

    def test_save_atomic_leaves_no_litter(self, cohesion, tmp_path):
        path = str(tmp_path / "g.kvcccoh")
        cohesion.save_atomic(path)
        assert os.listdir(tmp_path) == ["g.kvcccoh"]
        assert load_cohesion_index(path) == cohesion


class TestContainerValidation:
    @pytest.fixture
    def saved(self, cohesion, tmp_path):
        path = str(tmp_path / "g.kvcccoh")
        cohesion.save(path)
        with open(path, "rb") as handle:
            return path, bytearray(handle.read())

    def _write(self, path, blob):
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

    def test_bad_magic(self, saved):
        path, blob = saved
        blob[:7] = b"NOTCOHX"
        self._write(path, blob)
        with pytest.raises(ValueError, match="bad magic"):
            load_cohesion_index(path)

    def test_bad_version(self, saved):
        path, blob = saved
        blob[7] = COHESION_FORMAT_VERSION + 9
        self._write(path, blob)
        with pytest.raises(ValueError, match="unsupported cohesion format"):
            load_cohesion_index(path)

    def test_truncated_header(self, saved):
        path, _ = saved
        self._write(path, COHESION_MAGIC + b"\x01")
        with pytest.raises(ValueError, match="truncated cohesion index"):
            load_cohesion_index(path)

    def test_truncated_directory(self, saved):
        path, blob = saved
        self._write(path, blob[:14])
        with pytest.raises(ValueError, match="truncated cohesion index"):
            load_cohesion_index(path)

    def test_corrupt_directory_json(self, saved):
        path, blob = saved
        import struct

        dir_blob = b"not json at all!"
        self._write(
            path,
            COHESION_MAGIC
            + bytes([COHESION_FORMAT_VERSION])
            + struct.pack("<I", len(dir_blob))
            + dir_blob,
        )
        with pytest.raises(ValueError, match="corrupt cohesion index"):
            load_cohesion_index(path)

    def test_out_of_range_entry(self, saved):
        path, blob = saved
        import struct

        dir_blob = json.dumps(
            [{"name": "kvcc", "offset": 0, "length": 1 << 30}]
        ).encode()
        self._write(
            path,
            COHESION_MAGIC
            + bytes([COHESION_FORMAT_VERSION])
            + struct.pack("<I", len(dir_blob))
            + dir_blob
            + b"\x00" * 32,
        )
        with pytest.raises(ValueError, match="directory entry"):
            load_cohesion_index(path)

    def test_embedded_stream_validated(self, saved):
        """Corrupting a measure's payload trips KVCCIDX validation."""
        import struct

        path, blob = saved
        (dir_len,) = struct.unpack_from("<I", blob, 8)
        directory = json.loads(bytes(blob[12 : 12 + dir_len]))
        # Stomp the second measure's embedded KVCCIDX magic.
        start = 12 + dir_len + directory[1]["offset"]
        blob[start : start + 7] = b"XXXXXXX"
        self._write(path, blob)
        with pytest.raises(ValueError):
            load_cohesion_index(path)


class TestSniffAndDispatch:
    def test_sniff_cohesion(self, cohesion, tmp_path):
        path = str(tmp_path / "g.kvcccoh")
        cohesion.save(path)
        assert sniff_measures(path) == MEASURES

    def test_sniff_plain(self, ring, tmp_path):
        path = str(tmp_path / "g.kvccidx")
        build_index(ring).save(path)
        assert sniff_measures(path) == ("kvcc",)

    def test_sniff_garbage_and_missing(self, tmp_path):
        garbage = str(tmp_path / "noise.bin")
        with open(garbage, "wb") as handle:
            handle.write(b"definitely not an index")
        assert sniff_measures(garbage) is None
        assert sniff_measures(str(tmp_path / "missing")) is None

    def test_load_any_index_dispatch(self, ring, cohesion, tmp_path):
        plain = str(tmp_path / "g.kvccidx")
        multi = str(tmp_path / "g.kvcccoh")
        build_index(ring).save(plain)
        cohesion.save(multi)
        from repro.index import HierarchyIndex

        assert isinstance(load_any_index(plain), HierarchyIndex)
        assert isinstance(load_any_index(multi), CohesionIndex)


class TestCohesionQueryService:
    @pytest.fixture(scope="class")
    def service(self, cohesion):
        return CohesionQueryService(cohesion)

    def test_measure_protocol(self, service):
        assert service.measures == MEASURES
        for measure in MEASURES:
            per = service.measure_service(measure)
            assert isinstance(per, HierarchyQueryService)
        with pytest.raises(KeyError):
            service.measure_service("ktruss")

    def test_plain_service_speaks_protocol_too(self, ring):
        plain = HierarchyQueryService(build_index(ring))
        assert plain.measures == ("kvcc",)
        assert plain.measure_service("kvcc") is plain
        with pytest.raises(KeyError):
            plain.measure_service("kecc")

    def test_delegates_to_kvcc(self, ring, service):
        plain = HierarchyQueryService(build_index(ring))
        for v in (0, 5, "missing"):
            assert service.vcc_number(v) == plain.vcc_number(v)
        assert service.same_kvcc(0, 1, 4) == plain.same_kvcc(0, 1, 4)
        assert service.index == service.cohesion_index.index_for("kvcc")

    def test_private_attributes_do_not_delegate(self, service):
        with pytest.raises(AttributeError):
            service._not_a_real_attribute

    def test_from_file(self, cohesion, tmp_path):
        path = str(tmp_path / "g.kvcccoh")
        cohesion.save(path)
        service = CohesionQueryService.from_file(path)
        assert service.measures == MEASURES

    def test_strength_ordering_kvcc_kecc_kcore(self, ring, service):
        """Theorem 3 nesting: every k-VCC sits inside a k-ECC inside
        the k-core, so pair strength is monotone across measures."""
        vertices = list(ring.vertices())
        for u in vertices[:6]:
            for v in vertices[6:12]:
                kvcc = service.measure_service("kvcc").max_shared_level(u, v)
                kecc = service.measure_service("kecc").max_shared_level(u, v)
                kcore = service.measure_service("kcore").max_shared_level(
                    u, v
                )
                assert kvcc <= kecc <= kcore


class TestDerivedQueries:
    @pytest.fixture(scope="class")
    def service(self, cohesion):
        return CohesionQueryService(cohesion)

    def test_top_communities_ranked_and_truncated(self, service):
        all_levels = service.top_communities(0, 100)
        assert [k for k, _ in all_levels] == sorted(
            (k for k, _ in all_levels), reverse=True
        )
        top2 = service.top_communities(0, 2)
        assert top2 == all_levels[:2]
        for _, members in top2:
            assert 0 in members
            assert members == sorted(members, key=str)

    def test_top_communities_edges(self, service):
        assert service.top_communities("missing", 3) == []
        with pytest.raises(ValueError, match="at least 1"):
            service.top_communities(0, 0)

    def test_critical_vertices_semantics(self, cohesion, service):
        """Re-derive the answer naively from the raw index arrays: a
        member of one of v's level-k components is critical iff it
        lies in != 1 of that component's level-(k+1) children."""
        kvcc = service.measure_service("kvcc")
        index = cohesion.index_for("kvcc")
        members_of = [
            set(index.member_labels(node))
            for node in range(index.num_nodes)
        ]
        for v in (0, 5, 10):
            for k in (1, 2, 3):
                expected = set()
                for node in range(index.num_nodes):
                    if index.node_k[node] != k or v not in members_of[node]:
                        continue
                    for w in members_of[node]:
                        hits = sum(
                            1
                            for child in range(index.num_nodes)
                            if index.node_k[child] == k + 1
                            and index.node_parent[child] == node
                            and w in members_of[child]
                        )
                        if hits != 1:
                            expected.add(w)
                assert kvcc.critical_vertices(v, k) == sorted(
                    expected, key=str
                ), (v, k)

    def test_critical_vertices_edges(self, service):
        assert service.critical_vertices("missing", 2) == []
        with pytest.raises(ValueError, match="at least 1"):
            service.critical_vertices(0, 0)


class TestServedMatchesBaselines:
    """The acceptance bar: index answers == offline baselines."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_kecc_and_kcore_levels_match(self, seed):
        graph = random_connected_graph(9, 0.45, seed=seed)
        cohesion = build_cohesion_index(graph)
        for measure in ("kecc", "kcore"):
            index = cohesion.index_for(measure)
            for k in range(1, index.max_k + 1):
                assert level_components(index, k) == baseline_components(
                    measure, graph, k
                ), (measure, k, seed)
            # And nothing exists beyond the recorded max level.
            assert baseline_components(measure, graph, index.max_k + 1) == (
                set()
            )

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_max_shared_level_matches_baseline(self, seed):
        graph = random_connected_graph(8, 0.5, seed=seed)
        service = CohesionQueryService(build_cohesion_index(graph))
        vertices = sorted(graph.vertices())
        for measure in ("kecc", "kcore"):
            per = service.measure_service(measure)
            for u in vertices[:4]:
                for v in vertices[4:]:
                    want = 0
                    k = 1
                    while True:
                        comps = baseline_components(measure, graph, k)
                        if not comps:
                            break
                        if any(u in c and v in c for c in comps):
                            want = k
                        k += 1
                    assert per.max_shared_level(u, v) == want, (
                        measure, u, v, seed,
                    )


@st.composite
def tenant_unions(draw):
    """Graphs of 30-80 vertices: 2-4 disjoint random tenants, 1-2 dense
    blocks each joined to the rest by fewer edges than its own edge
    connectivity, and 0-2 isolated vertices; labels are ints or
    strings (whose string order differs from their numeric order)."""
    graph = Graph()
    named = draw(st.booleans())

    def label(i):
        return f"v{i}" if named else i

    offset = 0
    for _ in range(draw(st.integers(2, 4))):
        size = draw(st.integers(12, 16))
        tenant = random_connected_graph(
            size, draw(st.floats(0.15, 0.7)), seed=draw(st.integers(0, 9999))
        )
        for u, v in tenant.edges():
            graph.add_edge(label(u + offset), label(v + offset))
        offset += size
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(6, 7))
        block = range(offset, offset + size)
        for i in block:
            for j in block:
                if i < j:
                    graph.add_edge(label(i), label(j))
        # Fewer than size - 1 edges, the block's edge connectivity, so
        # the block is a k-ECC of its own from some level on.
        for _ in range(draw(st.integers(1, size - 2))):
            inside = draw(st.sampled_from(list(block)))
            outside = draw(st.integers(0, offset - 1))
            graph.add_edge(label(inside), label(outside))
        offset += size
    for i in range(draw(st.integers(0, 2))):
        graph.add_vertex(label(offset + i))
    return graph


class TestNestedForests:
    """The nested CSR forests against the baselines on bigger graphs."""

    @settings(max_examples=25, deadline=None)
    @given(graph=tenant_unions())
    def test_levels_match_baselines(self, graph):
        assert 30 <= graph.num_vertices <= 80
        cohesion = build_cohesion_index(graph)
        for measure in ("kecc", "kcore"):
            index = cohesion.index_for(measure)
            for k in range(1, index.max_k + 1):
                assert level_components(index, k) == baseline_components(
                    measure, graph, k
                ), (measure, k)
            assert baseline_components(measure, graph, index.max_k + 1) == (
                set()
            ), measure
            for node in range(index.num_nodes):
                parent = index.node_parent[node]
                if parent >= 0:
                    assert index.node_k[parent] == index.node_k[node] - 1
                    assert set(index.member_labels(node)) <= set(
                        index.member_labels(parent)
                    )

    @pytest.mark.parametrize("measure", ["kecc", "kcore"])
    def test_csr_base_and_graph_give_the_same_forest(self, ring, measure):
        from_graph = build_measure_hierarchy(ring, measure)
        from_base = build_measure_hierarchy(ring.to_csr(), measure)
        assert [(n.k, n.vertices, n.parent) for n in from_graph.nodes] == [
            (n.k, n.vertices, n.parent) for n in from_base.nodes
        ]
        assert from_graph.max_k == from_base.max_k

    def test_builds_without_the_baselines_or_a_dict_graph(self, monkeypatch):
        """The cohesion build never materializes the base as a dict
        ``Graph`` and never runs the baseline enumerators."""
        import repro.baselines.kcore_cc
        import repro.baselines.kecc
        import repro.baselines.stoer_wagner
        from repro.graph.csr import CSRGraph

        graph = ring_of_cliques(4, 6)
        graph.add_edge(0, 12)  # a second edge between two cliques
        base = graph.to_csr()
        expected = build_cohesion_index(base).to_bytes()

        def forbidden(*args, **kwargs):
            raise AssertionError("the cohesion build ran a baseline path")

        monkeypatch.setattr(CSRGraph, "to_graph", forbidden)
        monkeypatch.setattr(
            repro.baselines.stoer_wagner, "_stoer_wagner", forbidden
        )
        monkeypatch.setattr(repro.baselines.kecc, "k_ecc_components", forbidden)
        monkeypatch.setattr(
            repro.baselines.kcore_cc, "k_core_components", forbidden
        )
        assert build_cohesion_index(base).to_bytes() == expected


def _crossing_edges(graph, side):
    side = set(side)
    return sum(1 for u, v in graph.edges() if (u in side) != (v in side))


class TestMinEdgeCut:
    """``min_edge_cut`` against the Stoer-Wagner oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        p=st.floats(0.05, 0.9),
        seed=st.integers(0, 10_000),
    )
    def test_matches_stoer_wagner(self, n, p, seed):
        graph = random_connected_graph(n, p, seed=seed)
        base = graph.to_csr()
        weight, side = min_edge_cut(base.rows, range(base.n))
        assert weight == global_min_edge_cut(graph)[0]
        assert side == sorted(side) and 0 < len(side) < base.n
        labels = {base.interner.label(v) for v in side}
        assert _crossing_edges(graph, labels) == weight

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 12), min_size=2, max_size=4),
        bridges=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_members_of_a_larger_base(self, sizes, bridges, seed):
        """The cut is of the subgraph the members induce, not the base:
        joined tenants form the members, and a further tenant attached
        by many edges lies outside them."""
        rng = random.Random(seed)
        graph = Graph()
        offset = 0
        for t, size in enumerate(sizes):
            tenant = random_connected_graph(size, 0.6, seed=seed + t)
            for u, v in tenant.edges():
                graph.add_edge(u + offset, v + offset)
            if offset:
                for _ in range(bridges):
                    graph.add_edge(
                        rng.randrange(offset), offset + rng.randrange(size)
                    )
            offset += size
        inside = list(range(offset))
        for v in range(offset, offset + 5):
            for u in rng.sample(inside, min(6, offset)):
                graph.add_edge(u, v)
        base = graph.to_csr()
        members = sorted(base.interner[v] for v in inside)
        weight, side = min_edge_cut(base.rows, members)
        induced = graph.induced_subgraph(inside)
        assert weight == global_min_edge_cut(induced)[0]
        assert set(side) < set(members) and side
        labels = {base.interner.label(v) for v in side}
        assert _crossing_edges(induced, labels) == weight

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError, match="two vertices"):
            min_edge_cut([[]], [0])
