"""Tests for dataset resolution and the on-disk graph cache."""

import os

import pytest

from repro.data import resolver as resolver_mod
from repro.data.resolver import (
    default_cache_dir,
    load_graph,
    load_graph_csr,
    resolve_dataset,
)
from repro.graph.generators import web_graph
from repro.graph.io import read_edge_list, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "web.txt"
    write_edge_list(web_graph(150, seed=2), path)
    return path


class TestGrammar:
    def test_bare_path(self, graph_file):
        ds = resolve_dataset(str(graph_file))
        assert ds.kind == "file" and ds.source == str(graph_file)
        assert ds.name == "web"

    def test_file_prefix(self, graph_file):
        ds = resolve_dataset(f"file:{graph_file}")
        assert ds.kind == "file" and ds.source == str(graph_file)

    def test_name_prefix(self):
        ds = resolve_dataset("name:youtube")
        assert ds.kind == "name" and ds.source == "youtube"
        assert ds.name == "youtube"

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="available:.*youtube"):
            resolve_dataset("name:snapchat")

    def test_missing_file_mentions_name_grammar(self, tmp_path):
        with pytest.raises(ValueError, match="name:NAME"):
            resolve_dataset(str(tmp_path / "gone.txt"))

    def test_gz_stem(self, tmp_path):
        (tmp_path / "g.txt.gz").write_bytes(b"")
        assert resolve_dataset(str(tmp_path / "g.txt.gz")).name == "g"


class TestCache:
    def test_miss_builds_then_hit_loads(self, graph_file, tmp_path):
        cache = tmp_path / "cache"
        ds = resolve_dataset(str(graph_file))
        entry = ds.cached_path(cache)
        assert not entry.exists()
        a = ds.load(cache_dir=cache)
        assert entry.exists()
        stamp = entry.stat().st_mtime_ns
        b = ds.load(cache_dir=cache)
        assert entry.stat().st_mtime_ns == stamp  # hit: not rewritten
        assert list(a.indices) == list(b.indices)
        assert a.to_graph() == read_edge_list(graph_file)

    def test_hit_does_not_reparse(self, graph_file, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        ds = resolve_dataset(str(graph_file))
        ds.load(cache_dir=cache)

        def boom(*a, **k):
            raise AssertionError("cache hit must not re-parse the text")

        monkeypatch.setattr(resolver_mod, "read_edge_list_csr", boom)
        ds.load(cache_dir=cache)

    def test_touch_keeps_content_address(self, graph_file, tmp_path):
        """mtime change with identical bytes re-hashes but maps to the
        same content-addressed entry."""
        cache = tmp_path / "cache"
        ds = resolve_dataset(str(graph_file))
        before = ds.cached_path(cache)
        ds.load(cache_dir=cache)
        os.utime(graph_file, ns=(1, 1))
        assert ds.cached_path(cache) == before

    def test_content_change_invalidates(self, graph_file, tmp_path):
        cache = tmp_path / "cache"
        ds = resolve_dataset(str(graph_file))
        first = ds.cached_path(cache)
        ds.load(cache_dir=cache)
        with open(graph_file, "a") as handle:
            handle.write("9998 9999\n")
        second = ds.cached_path(cache)
        assert second != first
        reloaded = ds.load(cache_dir=cache)
        assert reloaded.to_graph() == read_edge_list(graph_file)

    def test_refresh_rebuilds(self, graph_file, tmp_path):
        cache = tmp_path / "cache"
        ds = resolve_dataset(str(graph_file))
        ds.load(cache_dir=cache)
        entry = ds.cached_path(cache)
        stamp = entry.stat().st_mtime_ns
        ds.load(cache_dir=cache, refresh=True)
        assert entry.stat().st_mtime_ns != stamp

    def test_corrupt_entry_rebuilt(self, graph_file, tmp_path):
        cache = tmp_path / "cache"
        ds = resolve_dataset(str(graph_file))
        ds.load(cache_dir=cache)
        entry = ds.cached_path(cache)
        entry.write_bytes(b"corruption, not a KVCCG file")
        again = ds.load(cache_dir=cache)
        assert again.to_graph() == read_edge_list(graph_file)

    def test_cache_false_bypasses_disk(self, graph_file, tmp_path):
        cache = tmp_path / "cache"
        ds = resolve_dataset(str(graph_file))
        ds.load(cache_dir=cache, cache=False)
        assert not ds.cached_path(cache).exists()

    def test_named_dataset_round_trip(self, tmp_path):
        from repro.datasets.registry import DATASETS

        cache = tmp_path / "cache"
        built = load_graph("name:youtube", cache_dir=cache)
        assert built == DATASETS["youtube"].build()
        # Second load comes off disk and agrees exactly.
        again = load_graph("name:youtube", cache_dir=cache)
        assert again == built

    def test_env_override(self, graph_file, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        load_graph_csr(str(graph_file))
        assert any((tmp_path / "envcache" / "graphs").iterdir())


class TestFingerprint:
    def test_name_fingerprint_is_stable(self, tmp_path):
        ds = resolve_dataset("name:dblp")
        assert ds.fingerprint(tmp_path) == ds.fingerprint(tmp_path)

    def test_distinct_sources_distinct_fingerprints(self, tmp_path):
        a = resolve_dataset("name:dblp").fingerprint(tmp_path)
        b = resolve_dataset("name:youtube").fingerprint(tmp_path)
        assert a != b

    def test_file_fingerprint_is_content_hash(self, tmp_path):
        """Two paths with identical bytes share one cache entry."""
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        p1.write_text("0 1\n1 2\n")
        p2.write_text("0 1\n1 2\n")
        cache = tmp_path / "cache"
        f1 = resolve_dataset(str(p1)).fingerprint(cache)
        f2 = resolve_dataset(str(p2)).fingerprint(cache)
        assert f1 == f2


class TestRegistryIntegration:
    def test_load_dataset_uses_disk_cache(self, tmp_path, monkeypatch):
        from repro.datasets import registry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(registry, "_CACHE", {})
        g = registry.load_dataset("youtube")
        entry_dir = tmp_path / "cache" / "graphs"
        assert any(entry_dir.iterdir())
        # The cached copy is the generated graph, exactly.
        assert g == registry.DATASETS["youtube"].build()
