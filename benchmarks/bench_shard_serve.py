"""Sharded-serving load harness: shard processes + async router vs one replica.

The question this bench answers: past one interpreter's ceiling, does
``repro serve --shards N`` actually buy throughput?  Both sides serve
the *same* tiled web stand-in index (the production-scale fixture from
``bench_serve_throughput``) to the same concurrent keep-alive client
processes:

* **baseline** - one ordinary serving process (the same
  ``AsyncHTTPServer`` a single ``repro serve`` replica runs, on one
  event loop); the GIL serializes its handler work no matter how many
  client connections pile on;
* **sharded** - N shard worker processes behind the asyncio router
  front end (:mod:`repro.service.aserver`), i.e. exactly what
  ``repro serve --shards N`` boots.

The workload mixes the API's two expensive shapes: ``components-of``
requests (forwarded whole to one shard; the handler decodes and renders
a ~community-sized member list) and 64-token ``vcc-number`` batches
(fanned out across shards and merged).  Recorded per side: aggregate
requests/s and p50/p99 latency; the trend artifact keys are
``shard_serve.*``.

Acceptance (full mode only): on a machine exposing >= 2 CPUs, the
sharded tier must reach **>= 1.5x** the single replica's request rate.
On 1 CPU the bar is physically meaningless and downgrades to a note.

Run directly (plain script, stdlib only)::

    PYTHONPATH=src python benchmarks/bench_shard_serve.py --smoke
    PYTHONPATH=src python benchmarks/bench_shard_serve.py \\
        --shards 4 --clients 8 --json shard_metrics.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import multiprocessing
import os
import random
import sys
import tempfile
import time
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_serve_throughput import (  # noqa: E402
    TILE_COPIES,
    percentile,
    tile_index,
)

from repro.graph.generators import web_graph  # noqa: E402
from repro.index import build_index, ensure_shards, ring_from_manifest  # noqa: E402
from repro.service import (  # noqa: E402
    AsyncHTTPServer,
    RouterDispatch,
    ServerThread,
    ShardCluster,
    ShardRouter,
)

#: Tokens per batch ``vcc-number`` request.
HTTP_BATCH = 64


def _client_worker(host, port, paths, queue) -> None:
    """One load client: every request over a single keep-alive socket."""
    connection = http.client.HTTPConnection(host, port, timeout=60)
    latencies: List[float] = []
    start_all = time.perf_counter()
    for path in paths:
        start = time.perf_counter()
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        latencies.append(time.perf_counter() - start)
        if response.status != 200:
            queue.put((None, f"{path} -> {response.status} {body[:200]!r}"))
            return
    total = time.perf_counter() - start_all
    connection.close()
    queue.put((total, latencies))


def run_load(
    host: str, port: int, clients: int, paths: List[List[str]]
) -> Tuple[float, List[float]]:
    """Drive ``clients`` concurrent keep-alive connections.

    ``paths[c]`` is client ``c``'s request list.  Returns (aggregate
    requests/s over the wall clock of the whole fleet, merged ascending
    latencies).  Any non-200 response fails the bench loudly.
    """
    queue: multiprocessing.Queue = multiprocessing.Queue()
    processes = [
        multiprocessing.Process(
            target=_client_worker, args=(host, port, paths[c], queue),
            daemon=True,
        )
        for c in range(clients)
    ]
    start = time.perf_counter()
    for process in processes:
        process.start()
    merged: List[float] = []
    for _ in processes:
        total, latencies = queue.get(timeout=300)
        if total is None:
            raise AssertionError(f"load client saw an error: {latencies}")
        merged.extend(latencies)
    wall = time.perf_counter() - start
    for process in processes:
        process.join(timeout=30)
    merged.sort()
    requests = sum(len(p) for p in paths)
    return requests / wall, merged


def make_workload(
    rng: random.Random, num_vertices: int, requests: int, clients: int
) -> List[List[str]]:
    """Per-client request lists: heavy components-of + fanned batches."""
    out: List[List[str]] = []
    for _ in range(clients):
        paths = []
        for i in range(requests):
            if i % 2:
                values = "&".join(
                    f"v={rng.randrange(num_vertices)}"
                    for _ in range(HTTP_BATCH)
                )
                paths.append(f"/v1/web/vcc-number?{values}")
            else:
                paths.append(
                    f"/v1/web/components-of"
                    f"?v={rng.randrange(num_vertices)}&k=2"
                )
        out.append(paths)
    return out


def describe(side: str, rps: float, latencies: List[float]) -> None:
    print(
        f"{side:>14}: {rps:8.0f} req/s   "
        f"p50 {percentile(latencies, 0.50) * 1e3:7.2f} ms   "
        f"p99 {percentile(latencies, 0.99) * 1e3:7.2f} ms"
    )


def bench(args) -> int:
    n = 300 if args.smoke else 600
    copies = 16 if args.smoke else TILE_COPIES
    requests = 40 if args.smoke else 150
    graph = web_graph(n, seed=7)
    tiled = tile_index(build_index(graph), copies)
    print(
        f"tiled stand-in: {copies} communities, {tiled.num_vertices} "
        f"vertices, {tiled.num_nodes} components"
    )
    rng = random.Random(42)
    workload = make_workload(
        rng, tiled.num_vertices, requests, args.clients
    )
    total_requests = requests * args.clients
    print(
        f"workload: {args.clients} keep-alive client(s) x {requests} "
        f"requests (components-of / vcc-number x{HTTP_BATCH} mix)"
    )

    metrics: Dict[str, dict] = {}

    def record(name: str, value: float, unit: str) -> None:
        metrics[f"shard_serve.{name}"] = {
            "metric": name,
            "value": round(value, 6),
            "unit": unit,
            "n": tiled.num_vertices,
            "k": tiled.max_k,
        }

    with tempfile.TemporaryDirectory() as workdir:
        index_path = os.path.join(workdir, "web.kvccidx")
        tiled.save(index_path)

        # ------------------------------------------------ single replica
        with ShardCluster([[("web", index_path)]]) as addresses:
            host, port = addresses[0]
            run_load(host, port, 1, [workload[0][:10]])  # warm the load
            base_rps, base_lat = run_load(
                host, port, args.clients, workload
            )
        describe("single replica", base_rps, base_lat)
        record("single_replica_rps", base_rps, "req/s")
        record("single_replica_p99_ms",
               percentile(base_lat, 0.99) * 1e3, "ms")

        # --------------------------------------- shard cluster + router
        manifest, shard_files = ensure_shards(
            index_path, args.shards, workdir
        )
        specs = [[("web", path)] for path in shard_files]
        with ShardCluster(specs) as addresses:
            router = ShardRouter({"web": ring_from_manifest(manifest)})
            dispatch = RouterDispatch(router, addresses)
            with ServerThread(AsyncHTTPServer(dispatch)) as (host, port):
                run_load(host, port, 1, [workload[0][:10]])
                shard_rps, shard_lat = run_load(
                    host, port, args.clients, workload
                )
            dispatch.close()
        describe(f"{args.shards} shards", shard_rps, shard_lat)
        record("sharded_rps", shard_rps, "req/s")
        record("sharded_p99_ms", percentile(shard_lat, 0.99) * 1e3, "ms")

    speedup = shard_rps / base_rps
    record("sharded_speedup", speedup, "x")
    print(
        f"sharded throughput: {speedup:.2f}x the single replica "
        f"({total_requests} requests per side)"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"wrote {len(metrics)} metric(s) to {args.json}")

    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(f"  note: {cpus} CPU exposed - 1.5x bar not applicable")
        return 0
    if not args.smoke and speedup < 1.5:
        print(
            "WARNING: sharded serving below the 1.5x acceptance bar "
            "against the single replica"
        )
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixture + fewer requests (CI trend mode, ungated)",
    )
    parser.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="shard processes behind the router (default 2)",
    )
    parser.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent keep-alive load clients (default 4)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="",
        help="also write the measured metrics as machine-readable JSON",
    )
    args = parser.parse_args()
    return bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
