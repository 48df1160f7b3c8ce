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

Acceptance (full mode only): mean delta-apply time must be **>= 50x**
faster than mean rebuild time.  Trend artifact keys: ``incremental.*``.

Run directly (plain script, stdlib only)::

    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke
    PYTHONPATH=src python benchmarks/bench_incremental.py \\
        --json incremental_metrics.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.datasets import apply_mutations, mutation_stream  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402
from repro.graph.generators import ring_of_cliques  # noqa: E402
from repro.index import IndexUpdater, build_index  # noqa: E402

#: Acceptance bar: delta apply vs full rebuild, mean per batch.
SPEEDUP_BAR = 50.0


def community_graph(communities: int, cliques: int, size: int) -> Graph:
    """``communities`` disjoint ring-of-cliques tenants in one graph."""
    merged = Graph()
    for community in range(communities):
        offset = community * cliques * size
        part = ring_of_cliques(cliques, size)
        for u, v in part.edges():
            merged.add_edge(u + offset, v + offset)
    return merged


def bench(args) -> int:
    communities = 12 if args.smoke else 96
    batches = 4 if args.smoke else 24
    rebuild_samples = 2 if args.smoke else 4
    graph = community_graph(communities, cliques=3, size=6)
    num_edges = graph.num_edges
    print(
        f"fixture: {communities} communities, {graph.num_vertices} "
        f"vertices, {num_edges} edges"
    )

    workdir = tempfile.mkdtemp(prefix="bench-incremental-")
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

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"wrote {len(metrics)} metric(s) to {args.json}")

    if not args.smoke and speedup < SPEEDUP_BAR:
        print(
            f"WARNING: delta maintenance below the {SPEEDUP_BAR:.0f}x "
            f"acceptance bar against full rebuild"
        )
        return 1
    return 0


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
