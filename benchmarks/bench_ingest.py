"""Ingest benchmark: text edge-list parse vs cached binary mmap load.

The question this answers: what does the ``repro.data`` layer buy a
cold process that just wants a mine-ready graph?  Two load paths over
the *same* production-scale graph:

* **text parse** - the streaming CSR reader
  (:func:`repro.data.ingest.read_edge_list_csr`) over the edge-list
  file: O(m) tokenizing + interning + counting sort on every start;
* **mmap KVCCG** - ``CSRGraph.load(path)`` (the cache's hot path):
  O(header) validation over zero-copy int32 views.

Gated: the mmap load must be **>= 20x** faster than the text parse on
the tiled production-scale graph (in practice it is orders of magnitude
beyond the bar - the gate just keeps the cache from quietly regressing
into a re-parse).

Production scale without hours of generation: like the serving bench's
``tile_index``, the web stand-in is replicated into ``TILE_COPIES``
disjoint shards by pure text emission - the honest way to get a
many-hundred-thousand-line *file* for a load-path benchmark.

Run directly (plain script, stdlib only)::

    PYTHONPATH=src python benchmarks/bench_ingest.py
    PYTHONPATH=src python benchmarks/bench_ingest.py --smoke
    PYTHONPATH=src python benchmarks/bench_ingest.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import tempfile
import time
from typing import Callable, Dict

from repro.data import load_graph_csr, read_edge_list_csr
from repro.graph.csr import CSRGraph
from repro.graph.generators import web_graph

#: Disjoint shards in the production-scale stand-in file.
TILE_COPIES = 64

#: Acceptance bar: cached mmap load vs text parse.
COLD_START_BAR = 20


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (noise-robust point)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def write_tiled_edge_list(graph, copies: int, path: str) -> int:
    """Write ``copies`` disjoint label-shifted shards of ``graph``.

    Pure text emission - no graph surgery needed: shard t's vertex
    ``v`` becomes ``v + t * n``.  Returns the number of edge lines.
    """
    n = graph.num_vertices
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# tiled web stand-in: {copies} x n={n}\n")
        for t in range(copies):
            shift = t * n
            for u, v in edges:
                handle.write(f"{u + shift} {v + shift}\n")
                lines += 1
    return lines


def bench(smoke: bool, json_path: str) -> None:
    """Run the comparison, print the report, enforce the bar."""
    n = 600 if smoke else 2400
    graph = web_graph(n, seed=7)
    metrics: Dict[str, dict] = {}

    def record(name: str, value: float, unit: str) -> None:
        metrics[f"ingest.{name}"] = {
            "metric": name,
            "value": round(value, 6),
            "unit": unit,
            "n": n * TILE_COPIES,
            "k": 0,
        }

    with tempfile.TemporaryDirectory() as workdir:
        text_path = os.path.join(workdir, "tiled.txt")
        lines = write_tiled_edge_list(graph, TILE_COPIES, text_path)
        size_mb = os.path.getsize(text_path) / 1e6
        print(
            f"tiled stand-in: {TILE_COPIES} shards, "
            f"{graph.num_vertices * TILE_COPIES} vertices, "
            f"{lines} edge lines, {size_mb:.1f} MB text"
        )

        # ------------------------------------------------------ text parse
        start = time.perf_counter()
        csr, _ = read_edge_list_csr(text_path)
        t_text = time.perf_counter() - start
        print(
            f"text parse:        {t_text * 1e3:10.1f} ms "
            f"({lines / t_text:12.0f} lines/s)"
        )
        record("text_parse_ms", t_text * 1e3, "ms")

        # gzip ingest, reported for the trend (decompression tax).
        gz_path = text_path + ".gz"
        with open(text_path, "rb") as src, gzip.open(
            gz_path, "wb", compresslevel=1
        ) as dst:
            dst.write(src.read())
        start = time.perf_counter()
        gz_csr, _ = read_edge_list_csr(gz_path)
        t_gz = time.perf_counter() - start
        assert list(gz_csr.indptr) == list(csr.indptr), "gz parse parity"
        print(f"gzip text parse:   {t_gz * 1e3:10.1f} ms")
        record("gzip_parse_ms", t_gz * 1e3, "ms")

        # ------------------------------------------------- binary formats
        kvccg_path = os.path.join(workdir, "tiled.kvccg")
        start = time.perf_counter()
        csr.save(kvccg_path)
        t_save = time.perf_counter() - start
        kvccg_mb = os.path.getsize(kvccg_path) / 1e6
        print(
            f"KVCCG save:        {t_save * 1e3:10.1f} ms "
            f"({kvccg_mb:.1f} MB on disk)"
        )
        record("kvccg_save_ms", t_save * 1e3, "ms")

        repeats = 5 if smoke else 9
        t_mmap = best_of(lambda: CSRGraph.load(kvccg_path), repeats)
        speedup = t_text / t_mmap
        print(
            f"KVCCG mmap load:   {t_mmap * 1e3:10.3f} ms   "
            f"(vs text parse: {speedup:9.0f}x)"
        )
        record("kvccg_mmap_load_ms", t_mmap * 1e3, "ms")
        record("mmap_vs_text_speedup", speedup, "x")

        # A deferred load must still answer correctly.
        lazy = CSRGraph.load(kvccg_path)
        shift = (TILE_COPIES - 1) * graph.num_vertices
        for v in range(0, graph.num_vertices, 97):
            assert lazy.neighbors(v + shift) == [
                w + shift for w in csr.neighbors(v)
            ], "mmap-loaded tiled graph disagrees with the parsed base"

        # ------------------------------------------- resolver cache path
        cache_dir = os.path.join(workdir, "cache")
        start = time.perf_counter()
        load_graph_csr(text_path, cache_dir=cache_dir)
        t_cold = time.perf_counter() - start
        t_warm = best_of(
            lambda: load_graph_csr(text_path, cache_dir=cache_dir), repeats
        )
        print(
            f"resolver cold:     {t_cold * 1e3:10.1f} ms   "
            f"(parse + cache materialize)\n"
            f"resolver warm:     {t_warm * 1e3:10.3f} ms   "
            f"(stat + mmap)"
        )
        record("resolver_cold_ms", t_cold * 1e3, "ms")
        record("resolver_warm_ms", t_warm * 1e3, "ms")

    # ------------------------------------------------------- acceptance
    assert speedup >= COLD_START_BAR, (
        f"acceptance bar: cached mmap load must beat the text parse by "
        f">= {COLD_START_BAR}x on the tiled stand-in, measured "
        f"{speedup:.1f}x"
    )
    print(
        f"\nOK: mmap cold start {speedup:.0f}x over text parse "
        f"(bar: {COLD_START_BAR}x)"
    )

    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"wrote {len(metrics)} metric(s) to {json_path}")


def main() -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixture + fewer repeats (CI mode)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="",
        help="also write the measured metrics as machine-readable JSON",
    )
    args = parser.parse_args()
    bench(args.smoke, args.json)


if __name__ == "__main__":
    main()
