"""Out-of-core data path: external-sort ingest + component-at-a-time driver.

Two byte-level contracts anchor this suite:

* external-sort ingest at any budget produces a ``KVCCG`` file
  **byte-identical** to ``read_edge_list_csr`` + ``save_csr`` on the
  same input - hypothesis drives random edge lists (mixed int/str
  labels, duplicates, reverse duplicates) at tiny budgets that force
  3+ spill runs;
* ``enumerate_kvccs_outofcore`` returns exactly the k-VCC family of
  ``enumerate_kvccs_csr`` on every component at several k (order may
  differ: the component driver goes largest-component-first).

Plus units for the budget grammar, the dense-int interner fast path,
the streaming component sweep, the partial row cache and madvise
release hooks, RSS tracking, and the resolver/CLI wiring.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kvcc import enumerate_kvccs_csr
from repro.core.outofcore import (
    enumerate_kvccs_outofcore,
    streaming_components,
)
from repro.core.stats import RssTracker, RunStats, max_rss_bytes
from repro.data.external import (
    MEM_BUDGET_ENV,
    _IntTable,
    _SparseIds,
    ingest_edge_list_kvccg,
    parse_mem_budget,
    resolve_mem_budget,
)
from repro.data.format import load_csr, save_csr
from repro.data.ingest import read_edge_list_csr
from repro.data.resolver import resolve_dataset
from repro.graph.csr import CSRGraph
from repro.graph.generators import web_graph


def write_edges(path, edges):
    """One whitespace edge line per pair, with a comment header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# test fixture\n")
        for u, v in edges:
            handle.write(f"{u} {v}\n")


def reference_bytes(path, tmp_path):
    """The in-memory pipeline's KVCCG bytes for an edge-list file."""
    csr, _ = read_edge_list_csr(path)
    ref = tmp_path / "ref.kvccg"
    save_csr(csr, ref)
    return ref.read_bytes()


class TestBudgetGrammar:
    def test_none_and_zero_mean_unbounded(self):
        assert parse_mem_budget(None) is None
        assert parse_mem_budget(0) is None
        assert parse_mem_budget("0") is None
        assert parse_mem_budget("") is None
        assert parse_mem_budget("  ") is None

    def test_plain_bytes_and_suffixes(self):
        assert parse_mem_budget(12345) == 12345
        assert parse_mem_budget("1048576") == 1 << 20
        assert parse_mem_budget("256M") == 256 << 20
        assert parse_mem_budget("256MB") == 256 << 20
        assert parse_mem_budget("256MiB") == 256 << 20
        assert parse_mem_budget("2g") == 2 << 30
        assert parse_mem_budget("512K") == 512 << 10
        assert parse_mem_budget("1T") == 1 << 40

    def test_rejects_garbage(self):
        for bad in ("1.5G", "-1", "lots", "M", "12Q"):
            with pytest.raises(ValueError):
                parse_mem_budget(bad)
        with pytest.raises(ValueError):
            parse_mem_budget(-1)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.delenv(MEM_BUDGET_ENV, raising=False)
        assert resolve_mem_budget(None) is None
        monkeypatch.setenv(MEM_BUDGET_ENV, "4M")
        assert resolve_mem_budget(None) == 4 << 20
        # An explicit value wins over the environment.
        assert resolve_mem_budget("1M") == 1 << 20


class TestIntTable:
    def test_dense_ids_first_seen_order(self):
        table = _IntTable()
        assert [table.intern(x) for x in (7, 3, 7, 0, 3)] == [0, 1, 0, 2, 1]
        assert list(table.labels) == [7, 3, 0]

    def test_grows_past_initial_capacity(self):
        table = _IntTable()
        for raw in range(3000):
            assert table.intern(raw) == raw

    def test_sparse_ids_raise(self):
        table = _IntTable()
        table.intern(1)
        with pytest.raises(_SparseIds):
            table.intern(10**9)


class TestIngestParity:
    def test_fast_path_without_budget(self, tmp_path):
        src = tmp_path / "e.txt"
        write_edges(src, [(0, 1), (1, 2), (2, 0)])
        out = tmp_path / "out.kvccg"
        report = ingest_edge_list_kvccg(src, out, mem_budget=None)
        assert not report.external and report.spill_runs == 0
        assert out.read_bytes() == reference_bytes(src, tmp_path)

    def test_tiny_budget_forces_spill_runs(self, tmp_path):
        graph = web_graph(120, out_degree=4, seed=5)
        src = tmp_path / "e.txt"
        write_edges(src, list(graph.edges()))
        out = tmp_path / "out.kvccg"
        report = ingest_edge_list_kvccg(src, out, mem_budget=256)
        assert report.external and report.spill_runs >= 3
        assert out.read_bytes() == reference_bytes(src, tmp_path)
        loaded = load_csr(out)
        ref, _ = read_edge_list_csr(src)
        assert list(loaded.indptr) == list(ref.indptr)
        assert list(loaded.indices) == list(ref.indices)

    def test_string_budget_and_gz(self, tmp_path):
        import gzip

        graph = web_graph(80, out_degree=3, seed=9)
        src = tmp_path / "e.txt.gz"
        with gzip.open(src, "wt", encoding="utf-8") as handle:
            for u, v in graph.edges():
                handle.write(f"{u} {v}\n")
        out = tmp_path / "out.kvccg"
        report = ingest_edge_list_kvccg(src, out, mem_budget="1K")
        assert report.external and report.mem_budget == 1024
        csr, _ = read_edge_list_csr(src)
        ref = tmp_path / "ref.kvccg"
        save_csr(csr, ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_empty_and_comment_only_file(self, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("# nothing here\n")
        out = tmp_path / "out.kvccg"
        report = ingest_edge_list_kvccg(src, out, mem_budget=100)
        assert report.n == 0 and report.nnz == 0
        assert out.read_bytes() == reference_bytes(src, tmp_path)

    def test_report_num_edges(self, tmp_path):
        src = tmp_path / "e.txt"
        write_edges(src, [(0, 1), (1, 2), (1, 0)])  # one dup collapses
        out = tmp_path / "out.kvccg"
        report = ingest_edge_list_kvccg(src, out, mem_budget=64)
        assert report.num_edges == 2 and report.nnz == 4

    # Non-numeric string alphabet: a numeric string would int-parse at
    # read time and collide with int labels into accidental self loops.
    LABELS = st.one_of(
        st.integers(min_value=0, max_value=60),
        st.sampled_from(["a", "b", "c", "xx", "yz", "n-1", "v_2"]),
    )

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(LABELS, LABELS).filter(lambda e: e[0] != e[1]),
            min_size=12,
            max_size=60,
        ),
        budget=st.integers(min_value=64, max_value=2048),
    )
    def test_hypothesis_byte_parity(self, tmp_path_factory, edges, budget):
        tmp_path = tmp_path_factory.mktemp("ooc")
        src = tmp_path / "e.txt"
        write_edges(src, edges)
        out = tmp_path / "out.kvccg"
        report = ingest_edge_list_kvccg(src, out, mem_budget=budget)
        assert report.external
        if budget <= 96:  # a run holds at most a few arcs at this size
            assert report.spill_runs >= 3
        assert out.read_bytes() == reference_bytes(src, tmp_path)


class TestStreamingComponents:
    def multi_component_base(self):
        edges = []
        for t, size in enumerate((40, 25, 60)):
            graph = web_graph(size, out_degree=3, seed=t)
            shift = 1000 * t
            edges += [(u + shift, v + shift) for u, v in graph.edges()]
        base, _ = CSRGraph.from_edges(edges)
        return base

    def test_partitions_all_vertices(self):
        base = self.multi_component_base()
        comps = streaming_components(base)
        assert sorted(v for comp in comps for v in comp) == list(range(base.n))
        assert sorted(len(c) for c in comps) == [25, 40, 60]
        for comp in comps:
            assert comp == sorted(comp)

    def test_min_size_filters(self):
        base = self.multi_component_base()
        assert [len(c) for c in streaming_components(base, min_size=30)] == [
            40, 60,
        ]

    def test_empty_graph(self):
        base = CSRGraph(0, [0], [])
        assert streaming_components(base) == []

    def test_matches_reference_components(self):
        from repro.graph.connectivity import connected_components

        base = self.multi_component_base()
        expected = sorted(
            sorted(c) for c in connected_components(base.full_view())
        )
        got = sorted(streaming_components(base))
        assert got == expected


class TestDriverParity:
    def canonical(self, leaves):
        return sorted(tuple(sorted(leaf)) for leaf in leaves)

    def test_multi_component_all_k(self):
        edges = []
        for t in range(3):
            graph = web_graph(60 + 15 * t, out_degree=4, seed=t)
            shift = 500 * t
            edges += [(u + shift, v + shift) for u, v in graph.edges()]
        base, _ = CSRGraph.from_edges(edges)
        for k in (1, 2, 3, 4, 5):
            resident = enumerate_kvccs_csr(base, k, materialize=False)
            ooc = enumerate_kvccs_outofcore(base, k, materialize=False)
            assert self.canonical(resident) == self.canonical(ooc), k

    def test_mmap_backed_base(self, tmp_path):
        base, _ = CSRGraph.from_edges(web_graph(120, seed=3).edges())
        path = tmp_path / "g.kvccg"
        save_csr(base, path)
        mapped = load_csr(path)
        assert mapped._mm is not None
        for k in (2, 3):
            resident = enumerate_kvccs_csr(base, k, materialize=False)
            ooc = enumerate_kvccs_outofcore(mapped, k, materialize=False)
            assert self.canonical(resident) == self.canonical(ooc)
        # The driver must leave no partial row cache behind.
        assert mapped._rows is None and not mapped._rows_partial

    def test_materialized_results(self):
        base, _ = CSRGraph.from_edges(web_graph(80, seed=1).edges())
        resident = enumerate_kvccs_csr(base, 3, materialize=True)
        ooc = enumerate_kvccs_outofcore(base, 3, materialize=True)
        assert sorted(
            tuple(sorted(g.vertices(), key=str)) for g in resident
        ) == sorted(tuple(sorted(g.vertices(), key=str)) for g in ooc)

    def test_largest_component_first(self):
        edges = [(0, 1), (1, 2), (2, 0)]  # triangle (3 vertices)
        edges += [
            (10 + u, 10 + v)
            for u, v in web_graph(30, out_degree=3, seed=2).edges()
        ]
        base, _ = CSRGraph.from_edges(edges)
        leaves = enumerate_kvccs_outofcore(base, 2, materialize=False)
        assert len(leaves[0]) > 3  # big component's answers come first

    def test_validates_inputs(self):
        base, _ = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_kvccs_outofcore(base, 0)
        with pytest.raises(ValueError, match="budget"):
            enumerate_kvccs_outofcore(base, 2, mem_budget="nonsense")

    def test_records_rss_and_counters(self):
        base, _ = CSRGraph.from_edges(web_graph(60, seed=4).edges())
        stats = RunStats(k=3)
        enumerate_kvccs_outofcore(base, 3, stats=stats, materialize=False)
        assert stats.peak_rss_bytes >= 0
        assert stats.kvccs_found >= 1

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=24),
        p=st.floats(min_value=0.2, max_value=0.7),
        seed=st.integers(min_value=0, max_value=5000),
        k=st.integers(min_value=2, max_value=4),
    )
    def test_hypothesis_parity(self, n, p, seed, k):
        from helpers import random_connected_graph

        graph = random_connected_graph(n, p, seed)
        base = graph.to_csr()
        resident = enumerate_kvccs_csr(base, k, materialize=False)
        ooc = enumerate_kvccs_outofcore(base, k, materialize=False)
        assert self.canonical(resident) == self.canonical(ooc)


class TestRowCacheHooks:
    def test_prepare_then_release_subset(self):
        base, _ = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        base.prepare_rows([1, 2])
        assert base._rows_partial
        assert base._rows[1] == [0, 2] and base._rows[3] is None
        base.release_rows([1])
        assert base._rows[1] is None and base._rows[2] is not None
        base.release_rows()
        assert base._rows is None and not base._rows_partial

    def test_full_cache_is_never_corrupted(self):
        base, _ = CSRGraph.from_edges([(0, 1), (1, 2)])
        full = base.rows
        base.prepare_rows([0])  # no-op on a full cache
        base.release_rows([0])
        base.release_rows()
        assert base._rows is full and full[0] == [1]

    def test_partial_rows_serve_prepared_queries(self):
        base, _ = CSRGraph.from_edges(web_graph(40, seed=6).edges())
        members = [0, 1, 2, 3, 4]
        base.prepare_rows(members)
        view = base.view_from_members(members)
        for v in view.active_list():
            assert all(w in members for w in view.neighbors(v))

    def test_mmap_release_advises_without_error(self, tmp_path):
        base, _ = CSRGraph.from_edges(web_graph(100, seed=8).edges())
        path = tmp_path / "g.kvccg"
        save_csr(base, path)
        mapped = load_csr(path)
        mapped.prepare_rows(range(50))
        assert list(mapped._rows[10]) == base.rows[10]
        mapped.release_rows(range(50))  # exercises the madvise path
        mapped.release_rows()  # whole-range advise
        assert list(mapped.indices) == list(base.indices)  # refaults fine


class TestRssTracking:
    def test_max_rss_is_positive_on_posix(self):
        assert max_rss_bytes() > 0

    def test_tracker_records_nonnegative_delta(self):
        stats = RunStats()
        with RssTracker(stats):
            blob = bytearray(4 << 20)  # force measurable growth
            blob[::4096] = b"x" * len(blob[::4096])
        assert stats.peak_rss_bytes >= 0

    def test_merge_takes_max(self):
        a, b = RunStats(), RunStats()
        a.peak_rss_bytes = 10
        b.peak_rss_bytes = 25
        a.merge(b)
        assert a.peak_rss_bytes == 25


class TestResolverBudget:
    def test_budgeted_cache_entry_is_byte_identical(self, tmp_path):
        graph = web_graph(100, out_degree=4, seed=12)
        src = tmp_path / "web.txt"
        write_edges(src, list(graph.edges()))
        ds = resolve_dataset(str(src))

        plain_cache = tmp_path / "cache-a"
        budget_cache = tmp_path / "cache-b"
        a = ds.load(cache_dir=plain_cache)
        b = ds.load(cache_dir=budget_cache, mem_budget=512)
        assert list(a.indptr) == list(b.indptr)
        assert list(a.indices) == list(b.indices)
        entry_a = ds.cached_path(plain_cache).read_bytes()
        entry_b = ds.cached_path(budget_cache).read_bytes()
        assert entry_a == entry_b

    def test_env_budget_routes_external(self, tmp_path, monkeypatch):
        import repro.data.external as external_mod

        graph = web_graph(60, out_degree=3, seed=13)
        src = tmp_path / "web.txt"
        write_edges(src, list(graph.edges()))
        monkeypatch.setenv(MEM_BUDGET_ENV, "1K")
        calls = {}
        original = external_mod.ingest_edge_list_kvccg

        def spy(*args, **kwargs):
            calls["hit"] = True
            return original(*args, **kwargs)

        monkeypatch.setattr(
            external_mod, "ingest_edge_list_kvccg", spy
        )
        ds = resolve_dataset(str(src))
        loaded = ds.load(cache_dir=tmp_path / "cache")
        assert calls.get("hit") and loaded.n == graph.num_vertices

    def test_hash_chunking_matches_one_shot(self, tmp_path, monkeypatch):
        import hashlib

        from repro.data import resolver as resolver_mod

        blob = os.urandom(3 * 1024 + 17)
        path = tmp_path / "big.bin"
        path.write_bytes(blob)
        # Shrink the chunk so the file spans several reads, then check
        # the streamed digest equals the one-shot digest of all bytes.
        monkeypatch.setattr(resolver_mod, "HASH_CHUNK_BYTES", 1024)
        assert resolver_mod._hash_file(path) == hashlib.sha256(
            blob
        ).hexdigest()

    def test_sidecar_still_honored_with_budget(self, tmp_path, monkeypatch):
        graph = web_graph(50, out_degree=3, seed=14)
        src = tmp_path / "web.txt"
        write_edges(src, list(graph.edges()))
        ds = resolve_dataset(str(src))
        cache = tmp_path / "cache"
        ds.load(cache_dir=cache, mem_budget=1024)
        from repro.data import resolver as resolver_mod

        def boom(path):
            raise AssertionError("warm start must use the stat sidecar")

        monkeypatch.setattr(resolver_mod, "_hash_file", boom)
        again = ds.load(cache_dir=cache, mem_budget=1024)
        assert again.n == graph.num_vertices


class TestCli:
    def run_cli(self, *argv, env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )

    def test_kvcc_with_mem_budget_matches_resident(self, tmp_path):
        graph = web_graph(80, out_degree=4, seed=15)
        src = tmp_path / "web.txt"
        write_edges(src, list(graph.edges()))
        cache = tmp_path / "cache"
        base = ["kvcc", str(src), "-k", "3", "--cache-dir", str(cache)]
        plain = self.run_cli(*base)
        budgeted = self.run_cli(*base, "--mem-budget", "64K")
        assert plain.returncode == 0, plain.stderr
        assert budgeted.returncode == 0, budgeted.stderr
        assert "component-at-a-time" in budgeted.stdout

        def families(out):
            rows = [
                line.split(":", 1)[1].strip()
                for line in out.splitlines()
                if line.strip().startswith("[")
            ]
            return sorted(rows)

        assert families(plain.stdout) == families(budgeted.stdout)

    def test_rejects_malformed_budget(self, tmp_path):
        src = tmp_path / "web.txt"
        write_edges(src, [(0, 1), (1, 2), (2, 0)])
        result = self.run_cli(
            "kvcc", str(src), "-k", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--mem-budget", "banana",
        )
        assert result.returncode == 2
        assert "memory budget" in result.stderr


def test_out_of_core_json_decomposition(tmp_path):
    """--out files from the budgeted path carry the same components."""
    graph = web_graph(60, out_degree=4, seed=16)
    src = tmp_path / "web.txt"
    write_edges(src, list(graph.edges()))
    cache = tmp_path / "cache"
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    runner = TestCli()
    a = runner.run_cli(
        "kvcc", str(src), "-k", "3", "--cache-dir", str(cache),
        "--out", str(out_a),
    )
    b = runner.run_cli(
        "kvcc", str(src), "-k", "3", "--cache-dir", str(cache),
        "--mem-budget", "32K", "--out", str(out_b),
    )
    assert a.returncode == 0 and b.returncode == 0, (a.stderr, b.stderr)
    fam_a = sorted(
        sorted(map(str, comp))
        for comp in json.loads(out_a.read_text())["components"]
    )
    fam_b = sorted(
        sorted(map(str, comp))
        for comp in json.loads(out_b.read_text())["components"]
    )
    assert fam_a == fam_b
