"""Tests for JSON persistence of decompositions."""

import json

import pytest

from repro.core.kvcc import enumerate_kvccs
from repro.graph.generators import figure1_graph
from repro.graph.graph import Graph
from repro.graph.serialization import (
    decomposition_to_dict,
    load_decomposition,
    save_decomposition,
)


class TestRoundTrip:
    def test_components_only(self, tmp_path):
        g, _ = figure1_graph()
        comps = enumerate_kvccs(g, 4)
        path = tmp_path / "d.json"
        save_decomposition(path, comps, 4)
        loaded = load_decomposition(path)
        assert loaded["k"] == 4
        assert {frozenset(c) for c in loaded["components"]} == {
            frozenset(c.vertices()) for c in comps
        }
        assert "graph" not in loaded

    def test_with_graph(self, tmp_path):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        path = tmp_path / "d.json"
        save_decomposition(path, [{0, 1, 2}], 2, graph=g)
        loaded = load_decomposition(path)
        assert loaded["graph"] == g

    def test_accepts_sets_and_graphs(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        from_graphs = decomposition_to_dict(enumerate_kvccs(g, 2), 2)
        from_sets = decomposition_to_dict([{0, 1, 2}], 2)
        assert from_graphs["components"] == from_sets["components"]

    def test_json_is_plain(self, tmp_path):
        path = tmp_path / "d.json"
        save_decomposition(path, [{1, 2, 3}], 2)
        raw = json.loads(path.read_text())
        assert raw == {"k": 2, "components": [[1, 2, 3]]}


class TestValidation:
    def test_missing_keys_raise(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"something": 1}')
        with pytest.raises(ValueError):
            load_decomposition(path)

    def test_non_dict_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_decomposition(path)
