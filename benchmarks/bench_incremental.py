"""Incremental index maintenance vs rebuild-per-update on a churn stream.

The question this bench answers: when the graph mutates, does the
delta path (:mod:`repro.index.delta`) actually beat the only
alternative a rebuild-only index has - a full KVCC-ENUM re-run plus a
whole-file ``KVCCIDX`` rewrite per update batch?

The fixture is a multi-tenant serving workload: many independent
communities (disjoint ring-of-cliques tenants) in one index.  The churn stream mutates **1% of the edge set** (the paper's
dynamic-graph regime) as a sequence of small batches - the shape
mutation traffic actually arrives in at a ``POST /v1/<ds>/edges``
endpoint.  Per batch:

* **delta** - ``IndexUpdater.apply``: classify against the live
  hierarchy, re-enumerate only the touched communities' mask views,
  append one delta record;
* **rebuild** - what staying fresh costs without the delta path:
  ``build_index`` over the whole mutated graph plus the atomic file
  rewrite.  (Measured on a sample of batches; enumeration work
  dominates and barely varies across them.)

Correctness is asserted in-line: after every delta batch the
maintained index must answer a ``vcc_number`` sweep identically to the
freshly rebuilt index (the full byte-equivalence harness lives in
``tests/test_incremental.py``).

A second row checks that a write costs O(batch), not O(graph): the
same tenant-local 4-edge batches (each inside one community, half
inserts of absent edges and half deletes of present ones, as perfbench's
``serve-write`` stream sends them) are applied to the base fixture and
to one with 8x its communities, alternating between the two updaters.
The churn stream above cannot show this, because its batches cross
communities and merge them, so its per-batch cost is not a function of
the batch size.

Acceptance (full mode only): mean delta-apply time must be **>= 50x**
faster than mean rebuild time, and the 8x fixture's apply p50 must be at
most **2.0x** the base fixture's (``incremental.apply_scale_ratio``).
Trend artifact keys: ``incremental.*``.

Run directly (plain script, stdlib only)::

    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke
    PYTHONPATH=src python benchmarks/bench_incremental.py \\
        --json incremental_metrics.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.datasets import apply_mutations, mutation_stream  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402
from repro.graph.generators import ring_of_cliques  # noqa: E402
from repro.index import IndexUpdater, build_index  # noqa: E402

#: Acceptance bar: delta apply vs full rebuild, mean per batch.
SPEEDUP_BAR = 50.0
#: Acceptance bar: apply p50 at SCALE x the communities over the base's.
SCALE_BAR = 2.0
SCALE = 8
#: Ring-of-cliques shape of one community.
CLIQUES, CLIQUE_SIZE = 3, 6
#: Edges per tenant-local batch (half inserts, half deletes).
TENANT_BATCH_EDGES = 4


def community_graph(communities: int, cliques: int, size: int) -> Graph:
    """``communities`` disjoint ring-of-cliques tenants in one graph."""
    merged = Graph()
    for community in range(communities):
        offset = community * cliques * size
        part = ring_of_cliques(cliques, size)
        for u, v in part.edges():
            merged.add_edge(u + offset, v + offset)
    return merged


def tenant_batches(
    graph: Graph, communities: int, batches: int, seed: int
) -> List[List[dict]]:
    """Batches that each mutate :data:`TENANT_BATCH_EDGES` edges inside
    one community: inserts of absent edges alternate with deletes of
    present ones, and no edge is touched twice in a batch.  The edge
    set is tracked across batches, so every mutation applies."""
    rng = random.Random(seed)
    width = CLIQUES * CLIQUE_SIZE
    present = {(min(u, v), max(u, v)) for u, v in graph.edges()}
    pools: List[List[Tuple[int, int]]] = [[] for _ in range(communities)]
    for edge in sorted(present):
        pools[edge[0] // width].append(edge)
    out = []
    for _ in range(batches):
        community = rng.randrange(communities)
        start, pool = community * width, pools[community]
        touched = set()
        batch = []
        for i in range(TENANT_BATCH_EDGES):
            if i % 2 == 0:
                while True:
                    u, v = rng.sample(range(start, start + width), 2)
                    edge = (min(u, v), max(u, v))
                    if edge not in present and edge not in touched:
                        break
                present.add(edge)
                pool.append(edge)
                batch.append({"op": "insert", "u": edge[0], "v": edge[1]})
            else:
                while True:
                    j = rng.randrange(len(pool))
                    if pool[j] not in touched:
                        break
                edge = pool[j]
                pool[j] = pool[-1]
                pool.pop()
                present.discard(edge)
                batch.append({"op": "delete", "u": edge[0], "v": edge[1]})
            touched.add(edge)
        out.append(batch)
    return out


def scaling_row(workdir: str, communities: int, batches: int) -> Tuple[
    float, float, bool
]:
    """Apply p50 (ms) of tenant-local batches on ``communities`` and on
    ``SCALE`` times as many, and whether both end states still answer
    like a rebuild."""
    fixtures = []
    for count in (communities, SCALE * communities):
        graph = community_graph(count, CLIQUES, CLIQUE_SIZE)
        path = os.path.join(workdir, f"scale-{count}.kvccidx")
        build_index(graph).save_atomic(path)
        fixtures.append(
            (
                IndexUpdater(path, graph=graph),
                graph.copy(),
                tenant_batches(graph, count, batches, seed=7),
                [],
            )
        )
    # Alternate between the fixtures so drift in host speed lands on
    # both sides of the ratio.
    for number in range(batches):
        for updater, mirror, stream, times in fixtures:
            apply_mutations(mirror, stream[number])
            start = time.perf_counter()
            updater.apply(stream[number])
            times.append(time.perf_counter() - start)
    same = True
    for updater, mirror, _, _ in fixtures:
        rebuilt = build_index(mirror)
        same &= [updater.index.vcc_number_of(v) for v in rebuilt.labels] == [
            rebuilt.vcc_number_of(v) for v in rebuilt.labels
        ]
    base_p50, scaled_p50 = (
        statistics.median(times) * 1e3 for _, _, _, times in fixtures
    )
    return base_p50, scaled_p50, same


def bench(args) -> int:
    with tempfile.TemporaryDirectory(prefix="bench-incremental-") as workdir:
        return run_bench(args, workdir)


def run_bench(args, workdir: str) -> int:
    communities = 12 if args.smoke else 96
    batches = 4 if args.smoke else 24
    rebuild_samples = 2 if args.smoke else 4
    graph = community_graph(communities, CLIQUES, CLIQUE_SIZE)
    num_edges = graph.num_edges
    print(
        f"fixture: {communities} communities, {graph.num_vertices} "
        f"vertices, {num_edges} edges"
    )

    index_path = os.path.join(workdir, "communities.kvccidx")
    build_index(graph).save_atomic(index_path)
    updater = IndexUpdater(index_path, graph=graph)
    mirror = graph.copy()

    # 1% of the edge set, spread over the batch stream.
    batch_edges = max(1, round(0.01 * num_edges / batches))
    stream = list(
        mutation_stream(
            graph, batches=batches, batch_edges=batch_edges, seed=42
        )
    )
    total_mutations = sum(len(batch) for batch in stream)
    print(
        f"workload: {total_mutations} mutations "
        f"({100.0 * total_mutations / num_edges:.2f}% churn) in "
        f"{batches} batch(es) of ~{batch_edges}"
    )

    delta_times: List[float] = []
    rebuild_times: List[float] = []
    sample_every = max(1, batches // rebuild_samples)
    for number, batch in enumerate(stream):
        apply_mutations(mirror, batch)
        start = time.perf_counter()
        updater.apply(batch)
        delta_times.append(time.perf_counter() - start)
        if number % sample_every == 0:
            start = time.perf_counter()
            rebuilt = build_index(mirror)
            rebuilt.save_atomic(os.path.join(workdir, "rebuilt.kvccidx"))
            rebuild_times.append(time.perf_counter() - start)
            service_answers = [
                updater.index.vcc_number_of(label)
                for label in rebuilt.labels
            ]
            rebuilt_answers = [
                rebuilt.vcc_number_of(label) for label in rebuilt.labels
            ]
            if service_answers != rebuilt_answers:
                print("ERROR: delta-maintained index diverged from rebuild")
                return 1

    delta_mean = statistics.fmean(delta_times)
    rebuild_mean = statistics.fmean(rebuild_times)
    speedup = rebuild_mean / delta_mean
    print(
        f"delta apply : {delta_mean * 1e3:9.2f} ms/batch mean "
        f"(p50 {statistics.median(delta_times) * 1e3:.2f} ms, "
        f"{len(delta_times)} batches)"
    )
    print(
        f"full rebuild: {rebuild_mean * 1e3:9.2f} ms/batch mean "
        f"({len(rebuild_times)} sampled)"
    )
    print(f"speedup     : {speedup:10.1f}x (bar: >= {SPEEDUP_BAR:.0f}x)")

    base_p50, scaled_p50, same = scaling_row(
        workdir, communities, 8 if args.smoke else 60
    )
    if not same:
        print("ERROR: tenant-local batches diverged from rebuild")
        return 1
    scale_ratio = scaled_p50 / base_p50
    print(
        f"tenant-local: {base_p50:9.2f} ms p50 at {communities} "
        f"communities, {scaled_p50:.2f} ms at {SCALE * communities}"
    )
    print(
        f"scale ratio : {scale_ratio:10.2f}x (bar: <= {SCALE_BAR:.1f}x)"
    )

    metrics: Dict[str, dict] = {}

    def record(name: str, value: float, unit: str) -> None:
        metrics[f"incremental.{name}"] = {
            "metric": name,
            "value": round(value, 6),
            "unit": unit,
            "n": graph.num_vertices,
            "k": updater.index.max_k,
        }

    record("delta_apply_ms", delta_mean * 1e3, "ms")
    record("full_rebuild_ms", rebuild_mean * 1e3, "ms")
    record("delta_speedup", speedup, "x")
    record("churn_percent", 100.0 * total_mutations / num_edges, "%")
    record("apply_scale_ratio", scale_ratio, "x")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"wrote {len(metrics)} metric(s) to {args.json}")

    failed = False
    if not args.smoke and speedup < SPEEDUP_BAR:
        print(
            f"WARNING: delta maintenance below the {SPEEDUP_BAR:.0f}x "
            f"acceptance bar against full rebuild"
        )
        failed = True
    if not args.smoke and scale_ratio > SCALE_BAR:
        print(
            f"WARNING: tenant-local apply grew {scale_ratio:.2f}x with "
            f"{SCALE}x the communities (bar: <= {SCALE_BAR:.1f}x)"
        )
        failed = True
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixture + fewer batches (CI trend mode, ungated)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="",
        help="also write the measured metrics as machine-readable JSON",
    )
    args = parser.parse_args()
    return bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
