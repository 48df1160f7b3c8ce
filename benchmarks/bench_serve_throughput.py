"""Serving-layer benchmark: cold start, batch amortization, HTTP path.

Three questions about :mod:`repro.service`, each with an acceptance bar
or a recorded trend number:

* **cold start** - how fast does a fresh process go from "index file on
  disk" to "ready to answer"?  ``HierarchyIndex.load(path)`` maps the
  file and defers everything, so it should cost O(header) however large
  the index is.  Gated: the load of the production-scale stand-in index
  must take **<= 5x** the load of the small web index, while the files
  differ about 79x in size (an O(index) load would read 50x or more);
* **batch amortization** - what does vectorizing queries over the flat
  arrays buy over calling the scalar method in a loop?  Gated: batch
  ``vcc_numbers`` must be **>= 3x** the scalar-loop throughput;
* **HTTP serving** - end-to-end requests/s and p50/p99 latency through
  the ``AsyncHTTPServer`` front end ``repro serve`` runs, single-query
  GETs vs 64-query batch GETs (trend numbers, not gated - they measure
  the whole socket + JSON stack, most of which is not ours);
* **v2 cohesion serving** - per-measure requests/s through the
  ``/v2/<ds>/<measure>/<query>`` family over a ``KVCCCOH``
  multi-measure index, plus the derived products (``top-communities``,
  ``critical-vertices``, ``cohesion-strength``).  Trend numbers; the
  load generator doubles as an endpoint correctness check (every
  response must be 200).

The *web stand-in* index (``web_graph``) is small on disk.  To load an
index at production scale without hours of enumeration,
:func:`tile_index` replicates the web hierarchy into many disjoint
shards - exactly the array layout a real multi-community deployment
produces - yielding a multi-megabyte index in milliseconds.  Cold start
is gated on the ratio of the two loads.

Run directly (plain script, stdlib only)::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py \\
        --smoke --json serve_metrics.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import tempfile
import time
from typing import Callable, Dict, List, Tuple

from repro.graph.generators import web_graph
from repro.index import (
    MEASURES,
    HierarchyIndex,
    HierarchyQueryService,
    build_cohesion_index,
    build_index,
)
from repro.service import (
    AsyncHTTPServer,
    IndexRegistry,
    ServerThread,
    registry_dispatch,
)

#: Shards in the production-scale stand-in (~64x the web index file).
TILE_COPIES = 64

#: Queries folded into each batch HTTP request.
HTTP_BATCH = 64


def tile_index(base: HierarchyIndex, copies: int) -> HierarchyIndex:
    """Replicate a hierarchy index into ``copies`` disjoint shards.

    Pure array surgery - no enumeration: shard t's vertices are the
    base ids shifted by ``t * n``, nodes stay ordered level by level
    (shards interleaved within each level) so every
    :class:`HierarchyIndex` invariant holds, and parent pointers are
    remapped shard-locally.  The result is what building the hierarchy
    of ``copies`` disconnected web communities would produce, at a
    millionth of the cost - the honest way to get a production-sized
    *file* for load-path benchmarks.
    """
    n = base.num_vertices
    order: List[Tuple[int, int]] = []
    new_ids: Dict[Tuple[int, int], int] = {}
    for k in range(1, base.max_k + 1):
        for t in range(copies):
            for node in base.nodes_at(k):
                new_ids[(t, node)] = len(order)
                order.append((t, node))
    node_k: List[int] = []
    node_parent: List[int] = []
    run_offsets: List[int] = [0]
    runs: List[int] = []
    for t, node in order:
        node_k.append(base.node_k[node])
        parent = base.node_parent[node]
        node_parent.append(-1 if parent < 0 else new_ids[(t, parent)])
        shift = t * n
        for pair in range(base.run_offsets[node], base.run_offsets[node + 1]):
            runs.append(base.runs[2 * pair] + shift)
            runs.append(base.runs[2 * pair + 1])
        run_offsets.append(len(runs) // 2)
    return HierarchyIndex(
        labels=list(range(copies * n)),
        node_k=node_k,
        node_parent=node_parent,
        run_offsets=run_offsets,
        runs=runs,
        vcc_numbers=list(base.vcc_numbers) * copies,
        max_k=base.max_k,
    )


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (noise-robust point)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def percentile(sorted_values: List[float], q: float) -> float:
    """The q-quantile of an ascending list (nearest-rank)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def bench_cold_start(path: str, label: str, repeats: int) -> float:
    """Best-of mapped load time for one index file, printed."""
    t_load = best_of(lambda: HierarchyIndex.load(path), repeats)
    size_kb = os.path.getsize(path) / 1024
    print(f"cold start [{label}, {size_kb:8.1f} KiB]: {t_load * 1e3:8.3f} ms")
    return t_load


def bench_http(
    paths: List[str], host: str, port: int
) -> Tuple[float, List[float]]:
    """Issue ``paths`` over one keep-alive connection.

    Returns (total seconds, per-request latencies ascending).  Every
    response must be HTTP 200 - the load generator doubles as an
    endpoint correctness check.
    """
    connection = http.client.HTTPConnection(host, port)
    latencies: List[float] = []
    start_all = time.perf_counter()
    for path in paths:
        start = time.perf_counter()
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        latencies.append(time.perf_counter() - start)
        assert response.status == 200, (response.status, body[:200])
    total = time.perf_counter() - start_all
    connection.close()
    latencies.sort()
    return total, latencies


def bench(smoke: bool, json_path: str) -> None:
    """Run all three sections, print the report, enforce the bars."""
    n = 600 if smoke else 2400
    graph = web_graph(n, seed=7)
    print(f"web graph stand-in: n={graph.num_vertices} m={graph.num_edges}")

    start = time.perf_counter()
    index = build_index(graph)
    print(f"index build: {(time.perf_counter() - start) * 1e3:.1f} ms "
          f"({index.num_nodes} components, max level {index.max_k})")
    tiled = tile_index(index, TILE_COPIES)
    print(f"tiled stand-in: {TILE_COPIES} shards, "
          f"{tiled.num_vertices} vertices, {tiled.num_nodes} components")

    metrics: Dict[str, dict] = {}

    def record(name: str, value: float, unit: str, scale: int) -> None:
        metrics[f"serve.{name}"] = {
            "metric": name,
            "value": round(value, 6),
            "unit": unit,
            "n": scale,
            "k": index.max_k,
        }

    with tempfile.TemporaryDirectory() as workdir:
        web_path = os.path.join(workdir, "web.kvccidx")
        xl_path = os.path.join(workdir, "web-xl.kvccidx")
        index.save(web_path)
        tiled.save(xl_path)

        # ------------------------------------------------------ cold start
        repeats = 5 if smoke else 9
        t_web = bench_cold_start(web_path, "web   ", repeats)
        t_xl = bench_cold_start(xl_path, "web-xl", repeats)
        cold_growth = t_xl / t_web
        size_ratio = os.path.getsize(xl_path) / os.path.getsize(web_path)
        print(
            f"cold start growth: {cold_growth:.1f}x for a {size_ratio:.0f}x "
            f"larger file"
        )
        record("cold_start_mmap_ms", t_xl * 1e3, "ms", tiled.num_vertices)
        record("cold_start_growth", cold_growth, "x", tiled.num_vertices)

        # A deferred load must still answer correctly.
        lazy = HierarchyIndex.load(xl_path)
        shift = (TILE_COPIES - 1) * n
        spot = [v for v in sorted(graph.vertices())[:50]]
        assert [lazy.vcc_number_of(v + shift) for v in spot] == [
            index.vcc_number_of(v) for v in spot
        ], "mmap-loaded tiled index disagrees with the in-memory base"

        # ------------------------------------------------ batch vs scalar
        service = HierarchyQueryService(index)
        rng = random.Random(42)
        verts = sorted(graph.vertices())
        n_queries = 5_000 if smoke else 20_000
        queries = [rng.choice(verts) for _ in range(n_queries)]
        pairs = [
            (rng.choice(verts), rng.choice(verts)) for _ in range(n_queries)
        ]
        batch_repeats = 3 if smoke else 5

        t_scalar = best_of(
            lambda: [service.vcc_number(v) for v in queries], batch_repeats
        )
        t_batch = best_of(lambda: service.vcc_numbers(queries), batch_repeats)
        assert service.vcc_numbers(queries) == [
            service.vcc_number(v) for v in queries
        ], "batch vcc_numbers disagrees with the scalar loop"
        batch_speedup = t_scalar / t_batch
        print(
            f"vcc_number x{n_queries}: scalar loop {t_scalar * 1e3:8.2f} ms "
            f"({n_queries / t_scalar:12.0f} q/s)   batch "
            f"{t_batch * 1e3:8.2f} ms ({n_queries / t_batch:12.0f} q/s)   "
            f"speedup {batch_speedup:5.2f}x"
        )
        record("scalar_vcc_number_qps", n_queries / t_scalar, "q/s", n)
        record("batch_vcc_numbers_qps", n_queries / t_batch, "q/s", n)
        record("batch_speedup", batch_speedup, "x", n)

        k_level = max(1, index.max_k - 1)
        t_scalar_pairs = best_of(
            lambda: [service.same_kvcc(u, v, k_level) for u, v in pairs],
            batch_repeats,
        )
        t_batch_pairs = best_of(
            lambda: service.same_kvcc_many(pairs, k_level), batch_repeats
        )
        assert service.same_kvcc_many(pairs, k_level) == [
            service.same_kvcc(u, v, k_level) for u, v in pairs
        ], "batch same_kvcc_many disagrees with the scalar loop"
        print(
            f"same_kvcc  x{n_queries}: scalar loop "
            f"{t_scalar_pairs * 1e3:8.2f} ms   batch "
            f"{t_batch_pairs * 1e3:8.2f} ms   "
            f"speedup {t_scalar_pairs / t_batch_pairs:5.2f}x"
        )
        record(
            "batch_same_kvcc_qps", n_queries / t_batch_pairs, "q/s", n
        )

        # ------------------------------------------------------ HTTP path
        registry = IndexRegistry(capacity=4)
        registry.register("web", web_path)
        registry.register("web-xl", xl_path)
        server = ServerThread(AsyncHTTPServer(registry_dispatch(registry)))
        host, port = server.start()
        try:
            n_single = 300 if smoke else 2_000
            single_paths = [
                f"/v1/web/vcc-number?v={rng.choice(verts)}"
                for _ in range(n_single)
            ]
            # Warm the connection path and the lazy index load.
            bench_http(single_paths[:20], host, port)
            total, latencies = bench_http(single_paths, host, port)
            print(
                f"http single: {n_single} requests in {total:6.2f} s = "
                f"{n_single / total:8.0f} req/s   "
                f"p50 {percentile(latencies, 0.50) * 1e3:6.2f} ms   "
                f"p99 {percentile(latencies, 0.99) * 1e3:6.2f} ms"
            )
            record("http_single_rps", n_single / total, "req/s", n)
            record(
                "http_single_p50_ms",
                percentile(latencies, 0.50) * 1e3, "ms", n,
            )
            record(
                "http_single_p99_ms",
                percentile(latencies, 0.99) * 1e3, "ms", n,
            )

            n_batches = 50 if smoke else 300
            batch_paths = []
            for _ in range(n_batches):
                values = "&".join(
                    f"v={rng.choice(verts)}" for _ in range(HTTP_BATCH)
                )
                batch_paths.append(f"/v1/web/vcc-number?{values}")
            total_b, latencies_b = bench_http(batch_paths, host, port)
            batch_qps = n_batches * HTTP_BATCH / total_b
            print(
                f"http batch({HTTP_BATCH}): {n_batches} requests in "
                f"{total_b:6.2f} s = {batch_qps:8.0f} queries/s   "
                f"p50 {percentile(latencies_b, 0.50) * 1e3:6.2f} ms   "
                f"p99 {percentile(latencies_b, 0.99) * 1e3:6.2f} ms"
            )
            record("http_batch_qps", batch_qps, "q/s", n)
            record(
                "http_batch_p50_ms",
                percentile(latencies_b, 0.50) * 1e3, "ms", n,
            )
            record(
                "http_batch_p99_ms",
                percentile(latencies_b, 0.99) * 1e3, "ms", n,
            )

            # --------------------------------------- v2 cohesion path
            coh_n = 200 if smoke else 400
            coh_graph = web_graph(coh_n, seed=11)
            coh_path = os.path.join(workdir, "coh.kvcccoh")
            build_cohesion_index(coh_graph).save(coh_path)
            registry.register("coh", coh_path)
            coh_verts = sorted(coh_graph.vertices())
            n_v2 = 150 if smoke else 1_000
            for measure in MEASURES:
                paths_m = [
                    f"/v2/coh/{measure}/vcc-number?v={rng.choice(coh_verts)}"
                    for _ in range(n_v2)
                ]
                bench_http(paths_m[:10], host, port)
                total_m, _ = bench_http(paths_m, host, port)
                print(
                    f"http v2 vcc-number [{measure:5s}]: "
                    f"{n_v2} requests = {n_v2 / total_m:8.0f} req/s"
                )
                record(
                    f"http_v2_{measure}_rps", n_v2 / total_m, "req/s", coh_n
                )
            derived = [
                (
                    "top_communities",
                    lambda: f"/v2/coh/kvcc/top-communities"
                    f"?v={rng.choice(coh_verts)}&r=3",
                ),
                (
                    "critical_vertices",
                    lambda: f"/v2/coh/kvcc/critical-vertices"
                    f"?v={rng.choice(coh_verts)}&k=2",
                ),
                (
                    "cohesion_strength",
                    lambda: f"/v2/coh/cohesion-strength"
                    f"?pair={rng.choice(coh_verts)}:{rng.choice(coh_verts)}",
                ),
            ]
            for name, make in derived:
                paths_d = [make() for _ in range(n_v2)]
                bench_http(paths_d[:10], host, port)
                total_d, _ = bench_http(paths_d, host, port)
                print(
                    f"http v2 {name.replace('_', '-')}: "
                    f"{n_v2} requests = {n_v2 / total_d:8.0f} req/s"
                )
                record(
                    f"http_{name}_rps", n_v2 / total_d, "req/s", coh_n
                )
        finally:
            server.stop()

    # ------------------------------------------------------- acceptance
    assert cold_growth <= 5, (
        f"acceptance bar: the mapped load of the tiled web stand-in must "
        f"take <= 5x the load of the web index, measured {cold_growth:.1f}x"
    )
    assert batch_speedup >= 3, (
        f"acceptance bar: batch vcc_numbers must beat the scalar loop by "
        f">= 3x, measured {batch_speedup:.2f}x"
    )
    print(
        f"\nOK: mmap cold start growth {cold_growth:.1f}x (bar: <= 5x), "
        f"batch vcc_numbers {batch_speedup:.2f}x (bar: 3x)"
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
        help="small fixture + fewer requests (CI mode)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="",
        help="also write the measured metrics as machine-readable JSON",
    )
    args = parser.parse_args()
    bench(args.smoke, args.json)


if __name__ == "__main__":
    main()
