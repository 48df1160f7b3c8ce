"""Tests for the KVCCG binary graph format (repro.data.format)."""

import struct
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.format import (
    FORMAT_VERSION,
    MAGIC,
    LazyLabelInterner,
    load_csr,
    save_csr,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import ring_of_cliques, web_graph


def _assert_same_graph(a: CSRGraph, b: CSRGraph):
    assert a.n == b.n
    assert list(a.indptr) == list(b.indptr)
    assert list(a.indices) == list(b.indices)
    if a.interner is None:
        assert b.interner is None
    else:
        assert a.interner.labels == b.interner.labels


@pytest.fixture
def csr():
    return web_graph(120, seed=5).to_csr()


class TestRoundTrip:
    def test_parity_with_in_memory(self, csr, tmp_path):
        path = tmp_path / "g.kvccg"
        csr.save(path)
        back = CSRGraph.load(path)
        _assert_same_graph(csr, back)
        # Behavioral spot checks through the graph protocol.
        assert back.num_edges == csr.num_edges
        assert back.max_degree() == csr.max_degree()
        for v in range(0, csr.n, 17):
            assert back.neighbors(v) == csr.neighbors(v)
            assert back.degree(v) == csr.degree(v)
        assert back.has_edge(0, 1) == csr.has_edge(0, 1)

    def test_unlabeled_graph(self, tmp_path):
        base = CSRGraph(
            3,
            array("l", [0, 1, 3, 4]),
            array("l", [1, 0, 2, 1]),
            interner=None,
        )
        path = tmp_path / "bare.kvccg"
        base.save(path)
        back = CSRGraph.load(path)
        _assert_same_graph(base, back)
        assert back.label_of(2) == 2

    def test_empty_graph(self, tmp_path):
        base, _ = CSRGraph.from_edges([])
        path = tmp_path / "empty.kvccg"
        base.save(path)
        back = CSRGraph.load(path)
        assert back.n == 0 and back.num_edges == 0

    def test_string_labels(self, tmp_path):
        base, _ = CSRGraph.from_edges([("a", "b"), ("b", "c")])
        path = tmp_path / "s.kvccg"
        base.save(path)
        back = CSRGraph.load(path)
        assert back.interner.labels == ["a", "b", "c"]
        assert back.label_of(0) == "a"
        assert back.interner["c"] == 2

    def test_mmap_load_is_usable_end_to_end(self, csr, tmp_path):
        """An mmap-loaded base drives the full enumeration stack."""
        from repro.core.kvcc import enumerate_kvccs_csr

        base = ring_of_cliques(4, 5).to_csr()
        path = tmp_path / "ring.kvccg"
        base.save(path)
        loaded = CSRGraph.load(path)
        leaves = enumerate_kvccs_csr(loaded, 4, materialize=False)
        expected = enumerate_kvccs_csr(base, 4, materialize=False)
        assert leaves == expected
        assert len(leaves) == 4

    def test_non_scalar_labels_rejected(self, tmp_path):
        base, _ = CSRGraph.from_edges([((1, 2), "x")])
        with pytest.raises(TypeError, match="JSON scalars"):
            base.save(tmp_path / "bad.kvccg")


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "nope.kvccg"
        path.write_bytes(b"JUNKFILE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_csr(path)

    def test_wrong_version(self, tmp_path, csr):
        path = tmp_path / "v.kvccg"
        save_csr(csr, path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="format version"):
            load_csr(path)

    @pytest.mark.parametrize("keep", [0, 3, 6, 20])
    def test_truncated(self, tmp_path, csr, keep):
        path = tmp_path / "t.kvccg"
        save_csr(csr, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        with pytest.raises(ValueError, match="truncated"):
            load_csr(path)

    def test_truncated_body(self, tmp_path, csr):
        path = tmp_path / "tb.kvccg"
        save_csr(csr, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="truncated graph body"):
            load_csr(path)

    def test_corrupt_indptr_endpoints(self, tmp_path, csr):
        path = tmp_path / "c.kvccg"
        save_csr(csr, path)
        raw = bytearray(path.read_bytes())
        body_start = len(MAGIC) + 2 + 20  # magic+version+flags+<IQQ>
        raw[body_start : body_start + 4] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="indptr endpoints"):
            load_csr(path)

    def test_corrupt_middle_row_rejected_where_rows_are_built(
        self, tmp_path, csr
    ):
        """The load checks only indptr's endpoints, so a middle entry
        that runs a row backwards gets through it; building the rows
        must then refuse, or a slice would clamp the row and the active
        kernel would answer from it."""
        from repro.core.kvcc import enumerate_kvccs_csr

        path = tmp_path / "m.kvccg"
        save_csr(ring_of_cliques(3, 4).to_csr(), path)
        raw = bytearray(path.read_bytes())
        at = len(MAGIC) + 2 + 20 + 4 * 6  # indptr[6]
        raw[at : at + 4] = struct.pack("<i", 0)
        path.write_bytes(bytes(raw))
        bad = load_csr(path)
        with pytest.raises(ValueError, match="row 5 spans"):
            bad.rows
        with pytest.raises(ValueError, match="outside the base"):
            bad.prepare_rows([0])
        with pytest.raises(ValueError, match="outside the base"):
            enumerate_kvccs_csr(bad, 2, materialize=False)

    def test_host_without_little_endian_int32_is_refused(
        self, tmp_path, csr, monkeypatch
    ):
        """Every format is viewed in place as native C ints; a host
        whose ints differ gets one clear error, not misread sections."""
        from repro.index import (
            build_cohesion_index,
            build_index,
            load_cohesion_index,
            load_index,
        )

        graph = ring_of_cliques(3, 4)
        files = [
            (tmp_path / "g.kvccg", csr.save, load_csr),
            (tmp_path / "g.kvccidx", build_index(graph).save, load_index),
            (
                tmp_path / "g.kvcccoh",
                build_cohesion_index(graph).save,
                load_cohesion_index,
            ),
        ]
        for path, save, _ in files:
            save(path)
        monkeypatch.setattr(sys, "byteorder", "big")
        for path, _, load in files:
            with pytest.raises(ValueError, match="native C int"):
                load(path)


class TestLazyInterner:
    def test_defers_decode_until_label_access(self, csr, tmp_path):
        path = tmp_path / "g.kvccg"
        csr.save(path)
        loaded = CSRGraph.load(path)
        interner = loaded.interner
        assert isinstance(interner, LazyLabelInterner)
        assert interner._labels is None  # not yet decoded
        assert len(interner) == csr.n  # header count, still undecoded
        assert interner._labels is None
        assert interner.label(0) == csr.interner.label(0)  # decodes
        assert interner._labels is not None

    def test_rejects_new_labels(self, csr, tmp_path):
        path = tmp_path / "g.kvccg"
        csr.save(path)
        loaded = CSRGraph.load(path)
        with pytest.raises(TypeError, match="loaded from disk"):
            loaded.interner.intern("brand-new-vertex")

    def test_contains_and_lookup(self, tmp_path):
        base, _ = CSRGraph.from_edges([("a", "b")])
        path = tmp_path / "g.kvccg"
        base.save(path)
        interner = CSRGraph.load(path).interner
        assert "a" in interner and "zz" not in interner
        assert interner.intern("b") == interner["b"] == 1


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
            lambda e: e[0] != e[1]
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_random_graph_round_trip(tmp_path_factory, edges):
    """Hypothesis: arbitrary simple graphs survive save/load bit-exactly."""
    base, interner = CSRGraph.from_edges(edges)
    path = tmp_path_factory.mktemp("kvccg") / "g.kvccg"
    base.save(path)
    back = CSRGraph.load(path)
    _assert_same_graph(base, back)
    assert back.to_graph() == base.to_graph()
