"""Tests for the persistent hierarchy index and the query service."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import build_hierarchy, vcc_number
from repro.core.kvcc import kvcc_vertex_sets
from repro.graph.generators import (
    complete_graph,
    gnp_random_graph,
    overlapping_cliques_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph
from repro.index import (
    FORMAT_VERSION,
    HierarchyIndex,
    HierarchyQueryService,
    build_index,
    load_any_index,
    load_index,
)
from repro.index.store import MAGIC

from helpers import vertex_set_family


class TestBuildIndex:
    def test_shape_matches_hierarchy(self):
        g = ring_of_cliques(3, 5)
        index = build_index(g)
        hierarchy = build_hierarchy(g)
        assert index.num_nodes == len(hierarchy)
        assert index.max_k == hierarchy.max_k
        assert index.num_vertices == g.num_vertices

    def test_members_match_components(self):
        for seed in range(5):
            g = gnp_random_graph(14, 0.4, seed=seed * 11)
            index = build_index(g)
            hierarchy = build_hierarchy(g)
            for k in range(1, index.max_k + 1):
                got = [set(index.member_labels(n)) for n in index.nodes_at(k)]
                assert vertex_set_family(got) == vertex_set_family(
                    hierarchy.components_at(k)
                ), (seed, k)

    def test_vcc_numbers_match(self):
        g = gnp_random_graph(15, 0.35, seed=3)
        index = build_index(g)
        numbers = vcc_number(g)
        for v in g.vertices():
            assert index.vcc_number_of(v) == numbers[v]

    def test_covers_isolated_vertices(self):
        g = Graph([(0, 1), (1, 2), (0, 2)], vertices=[9])
        index = build_index(g)
        assert index.num_vertices == 4
        assert index.vcc_number_of(9) == 0

    def test_unknown_label_is_zero(self):
        index = build_index(complete_graph(4))
        assert index.vcc_number_of("nope") == 0
        assert index.id_of("nope") is None

    def test_parent_pointers_nest(self):
        g = ring_of_cliques(3, 5)
        index = build_index(g)
        for node in range(index.num_nodes):
            parent = index.node_parent[node]
            if parent < 0:
                assert index.node_k[node] == 1
            else:
                assert index.node_k[parent] == index.node_k[node] - 1
                child = set(index.members(node))
                assert child <= set(index.members(parent))

    def test_max_k_cap(self):
        index = build_index(complete_graph(6), max_k=2)
        assert index.max_k == 2
        assert index.nodes_at(3) == []

    def test_levels_match_flat_enumeration(self):
        """Every level of the index equals KVCC-ENUM run flat at that k."""
        g = ring_of_cliques(3, 4)
        index = build_index(g)
        for k in range(1, index.max_k + 2):
            assert vertex_set_family(
                set(index.member_labels(n)) for n in index.nodes_at(k)
            ) == vertex_set_family(kvcc_vertex_sets(g, k)), k

    def test_unsorted_hierarchy_rejected(self):
        from repro.core.hierarchy import HierarchyNode, KVCCHierarchy

        bad = KVCCHierarchy(
            nodes=[
                HierarchyNode(k=2, vertices={0, 1, 2}),
                HierarchyNode(k=1, vertices={0, 1, 2}),
            ],
            max_k=2,
        )
        with pytest.raises(ValueError, match="level by level"):
            HierarchyIndex.from_hierarchy(bad)


class TestSaveLoad:
    def test_round_trip_equality(self, tmp_path):
        for seed in range(4):
            g = gnp_random_graph(13, 0.4, seed=seed * 7 + 1)
            index = build_index(g)
            path = tmp_path / f"g{seed}.kvccidx"
            index.save(path)
            assert load_index(path) == index

    def test_round_trip_answers_all_queries(self, tmp_path):
        g = overlapping_cliques_graph(
            clique_size=5, num_cliques=2, overlap=2
        )
        path = tmp_path / "g.kvccidx"
        build_index(g).save(path)
        service = HierarchyQueryService.from_file(path)
        fresh = HierarchyQueryService(build_index(g))
        verts = list(g.vertices())
        for u in verts:
            assert service.vcc_number(u) == fresh.vcc_number(u)
            for v in verts:
                assert service.max_shared_level(u, v) == (
                    fresh.max_shared_level(u, v)
                )
                for k in range(1, 6):
                    assert service.same_kvcc(u, v, k) == fresh.same_kvcc(
                        u, v, k
                    )
                    assert service.components_of(u, k) == fresh.components_of(
                        u, k
                    )

    def test_tuple_labels_rejected(self, tmp_path):
        """Non-scalar labels fail loudly at save time - JSON would turn
        a tuple into an unhashable list and break every later query."""
        g = Graph([((0, "a"), (1, "b")), ((1, "b"), (2, "c")),
                   ((2, "c"), (0, "a"))])
        index = build_index(g)
        with pytest.raises(TypeError, match="tuple"):
            index.save(tmp_path / "g.kvccidx")

    def test_string_labels_round_trip(self, tmp_path):
        g = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        index = build_index(g)
        path = tmp_path / "g.kvccidx"
        index.save(path)
        loaded = load_index(path)
        assert loaded == index
        assert HierarchyQueryService(loaded).vcc_number("a") == 2

    def test_empty_graph_round_trip(self, tmp_path):
        index = build_index(Graph())
        path = tmp_path / "empty.kvccidx"
        index.save(path)
        loaded = load_index(path)
        assert loaded.num_nodes == 0
        assert loaded.max_k == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not_an_index"
        path.write_bytes(b"hello world, definitely not an index")
        with pytest.raises(ValueError, match="bad magic"):
            load_index(path)

    def test_wrong_version_rejected(self, tmp_path):
        """A future-version file fails loudly, naming both versions."""
        g = complete_graph(4)
        path = tmp_path / "g.kvccidx"
        build_index(g).save(path)
        blob = bytearray(path.read_bytes())
        assert blob[len(MAGIC)] == FORMAT_VERSION
        blob[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError) as excinfo:
            load_index(path)
        message = str(excinfo.value)
        assert f"version {FORMAT_VERSION + 1}" in message
        assert f"version {FORMAT_VERSION}" in message
        assert "rebuild" in message

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "g.kvccidx"
        build_index(complete_graph(4)).save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(ValueError, match="truncated"):
            load_index(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "g.kvccidx"
        path.write_bytes(MAGIC + bytes([FORMAT_VERSION]) + b"\x01\x02")
        with pytest.raises(ValueError, match="truncated"):
            load_index(path)

    def test_header_is_little_endian_and_versioned(self, tmp_path):
        path = tmp_path / "g.kvccidx"
        index = build_index(complete_graph(4))
        index.save(path)
        blob = path.read_bytes()
        assert blob.startswith(MAGIC)
        assert blob[len(MAGIC)] == FORMAT_VERSION
        n_vertices = struct.unpack_from("<I", blob, len(MAGIC) + 1)[0]
        assert n_vertices == 4


class TestMmapLoad:
    """``load_index`` maps the file; the rejection cases here go through
    ``load_any_index``, the serving registry's entry point, which must
    refuse the same files."""

    def test_load_equals_built(self, tmp_path):
        for seed in range(4):
            g = gnp_random_graph(13, 0.4, seed=seed * 7 + 1)
            path = tmp_path / f"g{seed}.kvccidx"
            index = build_index(g)
            index.save(path)
            mapped = load_index(path)
            assert mapped.is_mmap and not index.is_mmap
            assert mapped == index

    def test_query_parity_with_built(self, tmp_path):
        g = overlapping_cliques_graph(
            clique_size=5, num_cliques=2, overlap=2
        )
        path = tmp_path / "g.kvccidx"
        build_index(g).save(path)
        mapped = HierarchyQueryService.from_file(path)
        built = HierarchyQueryService(build_index(g))
        verts = list(g.vertices()) + ["missing"]
        for u in verts:
            assert mapped.vcc_number(u) == built.vcc_number(u)
            for v in verts:
                assert mapped.max_shared_level(u, v) == (
                    built.max_shared_level(u, v)
                )
                for k in range(1, 6):
                    assert mapped.same_kvcc(u, v, k) == built.same_kvcc(
                        u, v, k
                    )
                    assert mapped.components_of(u, k) == built.components_of(
                        u, k
                    )

    def test_lazy_labels_not_decoded_at_load(self, tmp_path):
        path = tmp_path / "g.kvccidx"
        build_index(ring_of_cliques(3, 5)).save(path)
        mapped = load_index(path)
        assert mapped._labels is None  # nothing decoded yet
        assert mapped.num_vertices == 15  # header-only shape query
        assert mapped.vcc_number_of(0) == 4  # first label access decodes
        assert mapped._labels is not None

    def test_string_labels(self, tmp_path):
        g = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        path = tmp_path / "g.kvccidx"
        build_index(g).save(path)
        mapped = load_index(path)
        assert mapped.vcc_number_of("a") == 2
        assert mapped.vcc_number_of("d") == 1

    def test_save_round_trip_from_mmap(self, tmp_path):
        """An mmap-backed index can be re-persisted unchanged."""
        index = build_index(ring_of_cliques(3, 4))
        first = tmp_path / "a.kvccidx"
        second = tmp_path / "b.kvccidx"
        index.save(first)
        mapped = load_index(first)
        mapped.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.kvccidx"
        build_index(Graph()).save(path)
        mapped = load_index(path)
        assert mapped.num_nodes == 0
        assert mapped.max_k == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not_an_index"
        path.write_bytes(b"hello world, definitely not an index")
        with pytest.raises(ValueError, match="bad magic"):
            load_any_index(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="truncated"):
            load_any_index(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "g.kvccidx"
        path.write_bytes(MAGIC + bytes([FORMAT_VERSION]) + b"\x01\x02")
        with pytest.raises(ValueError, match="truncated"):
            load_any_index(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "g.kvccidx"
        build_index(complete_graph(4)).save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(ValueError, match="truncated"):
            load_any_index(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "g.kvccidx"
        build_index(complete_graph(4)).save(path)
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported"):
            load_any_index(path)

    def test_corrupt_run_table_rejected(self, tmp_path):
        """Right length, nonsense run table: caught by the O(1) check."""
        path = tmp_path / "g.kvccidx"
        build_index(complete_graph(4)).save(path)
        blob = bytearray(path.read_bytes())
        # The run_offsets section starts after header + labels + 2 node
        # sections; stomp its first entry (must be 0).
        header = struct.unpack_from("<IIIiI", blob, len(MAGIC) + 1)
        n_vertices, n_nodes, n_run_pairs, _, labels_len = header
        offset = len(MAGIC) + 1 + 20 + labels_len + 8 * n_nodes
        struct.pack_into("<i", blob, offset, 7)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="corrupt"):
            load_any_index(path)


class TestBatchQueries:
    def test_vcc_numbers_matches_scalar(self):
        g = gnp_random_graph(15, 0.4, seed=19)
        service = HierarchyQueryService(build_index(g))
        verts = list(g.vertices()) + ["missing", -1]
        assert service.vcc_numbers(verts) == [
            service.vcc_number(v) for v in verts
        ]

    def test_vcc_numbers_empty(self):
        service = HierarchyQueryService(build_index(complete_graph(4)))
        assert service.vcc_numbers([]) == []

    def test_vcc_numbers_one_shot_iterator(self):
        """A generator input must survive the fast-path retry intact."""
        service = HierarchyQueryService(build_index(complete_graph(4)))
        verts = [0, "missing", 1, 2]
        assert service.vcc_numbers(v for v in verts) == [3, 0, 3, 3]

    def test_same_kvcc_many_matches_scalar(self):
        g = overlapping_cliques_graph(
            clique_size=5, num_cliques=3, overlap=2
        )
        service = HierarchyQueryService(build_index(g))
        verts = list(g.vertices())
        pairs = [(u, v) for u in verts[:8] for v in verts[:8]]
        for k in range(1, service.index.max_k + 2):
            assert service.same_kvcc_many(pairs, k) == [
                service.same_kvcc(u, v, k) for u, v in pairs
            ]

    def test_max_shared_levels_matches_scalar(self):
        g = ring_of_cliques(4, 5)
        service = HierarchyQueryService(build_index(g))
        verts = list(g.vertices()) + ["missing"]
        pairs = [(u, v) for u in verts for v in verts]
        assert service.max_shared_levels(pairs) == [
            service.max_shared_level(u, v) for u, v in pairs
        ]

    def test_same_kvcc_many_invalid_k(self):
        service = HierarchyQueryService(build_index(complete_graph(4)))
        with pytest.raises(ValueError, match="at least 1"):
            service.same_kvcc_many([(0, 1)], 0)

    # One service per class, not per example: the index is immutable
    # and hypothesis only varies the query stream.
    _PROPERTY_SERVICE = None

    @classmethod
    def _service(cls):
        if cls._PROPERTY_SERVICE is None:
            g = gnp_random_graph(18, 0.35, seed=5)
            cls._PROPERTY_SERVICE = HierarchyQueryService(build_index(g))
        return cls._PROPERTY_SERVICE

    @settings(deadline=None, max_examples=60)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=20),
                st.integers(min_value=-3, max_value=20),
            ),
            max_size=30,
        ),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_property_batch_equals_scalar(self, pairs, k):
        """Batch answers == scalar answers for arbitrary query streams,
        including out-of-graph vertex ids."""
        service = self._service()
        assert service.same_kvcc_many(pairs, k) == [
            service.same_kvcc(u, v, k) for u, v in pairs
        ]
        assert service.max_shared_levels(pairs) == [
            service.max_shared_level(u, v) for u, v in pairs
        ]
        flat = [v for pair in pairs for v in pair]
        assert service.vcc_numbers(flat) == [
            service.vcc_number(v) for v in flat
        ]


class TestQueryService:
    def test_vcc_number_matches_recompute(self):
        g = gnp_random_graph(15, 0.4, seed=19)
        service = HierarchyQueryService(build_index(g))
        numbers = vcc_number(g)
        for v in g.vertices():
            assert service.vcc_number(v) == numbers[v]
        assert service.vcc_number("missing") == 0

    def test_components_of_matches_flat_enumeration(self):
        for seed in range(4):
            g = gnp_random_graph(13, 0.45, seed=seed * 13 + 2)
            service = HierarchyQueryService(build_index(g))
            for k in range(1, service.index.max_k + 2):
                flat = kvcc_vertex_sets(g, k)
                for v in g.vertices():
                    expected = vertex_set_family(
                        c for c in flat if v in c
                    )
                    assert vertex_set_family(
                        service.components_of(v, k)
                    ) == expected, (seed, k, v)

    def test_same_kvcc_matches_flat_enumeration(self):
        g = overlapping_cliques_graph(
            clique_size=5, num_cliques=3, overlap=2
        )
        service = HierarchyQueryService(build_index(g))
        verts = list(g.vertices())
        for k in range(1, service.index.max_k + 2):
            flat = kvcc_vertex_sets(g, k)
            for u in verts:
                for v in verts:
                    expected = any(u in c and v in c for c in flat)
                    assert service.same_kvcc(u, v, k) == expected, (k, u, v)

    def test_max_shared_level_is_threshold(self):
        g = ring_of_cliques(4, 5)
        service = HierarchyQueryService(build_index(g))
        verts = list(g.vertices())
        for u in verts[:8]:
            for v in verts[:8]:
                level = service.max_shared_level(u, v)
                if level:
                    assert service.same_kvcc(u, v, level)
                    assert not service.same_kvcc(u, v, level + 1)
                else:
                    assert not service.same_kvcc(u, v, 1)

    def test_same_vertex_shares_its_vcc_number(self):
        g = ring_of_cliques(3, 5)
        service = HierarchyQueryService(build_index(g))
        for v in g.vertices():
            assert service.max_shared_level(v, v) == service.vcc_number(v)

    def test_unknown_vertices(self):
        service = HierarchyQueryService(build_index(complete_graph(4)))
        assert service.components_of("x", 2) == []
        assert service.max_shared_level("x", 0) == 0
        assert not service.same_kvcc("x", "y", 1)

    def test_same_kvcc_invalid_k(self):
        service = HierarchyQueryService(build_index(complete_graph(4)))
        with pytest.raises(ValueError, match="at least 1"):
            service.same_kvcc(0, 1, 0)

    def test_components_of_invalid_k(self):
        service = HierarchyQueryService(build_index(complete_graph(4)))
        with pytest.raises(ValueError, match="at least 1"):
            service.components_of(0, 0)
