"""The k-ECC and k-core forests of a cohesion index: nested build vs baseline.

``repro build-cohesion`` stores three forests in one ``KVCCCOH``
container.  The k-ECC forest used to come from the
:mod:`repro.baselines` enumerator run on the whole graph at every
level (``k_ecc_components`` for k = 1, 2, ... until a level is empty),
so each component paid a full Stoer-Wagner sweep at every level it
survived.  :func:`repro.index.cohesion.build_measure_hierarchy` now
builds each level inside the previous level's components on the CSR
base, and a component is its own child at every level up to its exact
edge connectivity.

The input is perfbench's ``tenant_graph`` (disjoint web, social,
collaboration and citation tenants).  Rows:

* ``cohesion.kecc_forest_s`` - ``build_measure_hierarchy(base, "kecc")``;
* ``cohesion.kecc_baseline_s`` - ``k_ecc_components`` at every level on
  the dict graph, the construction the forest replaced;
* ``cohesion.kecc_speedup`` - the baseline's time over the forest's;
* ``cohesion.build_s`` - ``build_cohesion_index`` on the CSR base (all
  three forests).

Every level of the forest is checked against the baseline's sets
in-line, and the run exits 1 if any differs.  Smoke mode runs the
``serve`` workload's 4x80 tenants once; full mode runs 24x110 tenants,
takes the median of 3 runs, and exits 1 below a 3.0x k-ECC speedup.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cohesion.py --smoke
    PYTHONPATH=src python benchmarks/bench_cohesion.py --json cohesion.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import repro.kernels as kernels  # noqa: E402
from perfbench.inputs import tenant_graph  # noqa: E402
from repro.baselines.kecc import k_ecc_components  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.index.cohesion import (  # noqa: E402
    build_cohesion_index,
    build_measure_hierarchy,
)

#: Acceptance bar (full mode): baseline k-ECC levels over the forest.
SPEEDUP_BAR = 3.0
#: (tenants, tenant size) of the smoke and full inputs.
SMOKE_SHAPE = (4, 80)
FULL_SHAPE = (24, 110)
SEED = 1


def baseline_levels(graph) -> List[Set[frozenset]]:
    """``k_ecc_components`` at k = 1, 2, ... until a level is empty."""
    levels = []
    k = 1
    while True:
        level = {frozenset(c) for c in k_ecc_components(graph, k)}
        if not level:
            return levels
        levels.append(level)
        k += 1


def forest_levels(hierarchy) -> List[Set[frozenset]]:
    """The forest's component sets, one set per level."""
    levels: List[Set[frozenset]] = [set() for _ in range(hierarchy.max_k)]
    for node in hierarchy.nodes:
        levels[node.k - 1].add(frozenset(node.vertices))
    return levels


def timed(fn, repeat: int):
    """``(median seconds, last result)`` of ``repeat`` calls of ``fn``."""
    times = []
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def bench(args: argparse.Namespace) -> int:
    tenants, size = SMOKE_SHAPE if args.smoke else FULL_SHAPE
    repeat = 1 if args.smoke else 3
    edges, _ = tenant_graph(SEED, tenants, size)
    base, _ = CSRGraph.from_edges(edges)
    graph = base.to_graph()
    # Box the rows and import the kernel outside every timed region.
    base.rows
    kernels.select()
    print(
        f"input: tenant_graph(seed={SEED}, {tenants}x{size}): "
        f"{base.n} vertices, {base.num_edges} edges"
    )

    forest_s, forest = timed(lambda: build_measure_hierarchy(base, "kecc"), repeat)
    baseline_s, levels = timed(lambda: baseline_levels(graph), repeat)
    if forest_levels(forest) != levels:
        print("ERROR: the k-ECC forest differs from the baseline's levels")
        return 1
    build_s, _ = timed(lambda: build_cohesion_index(base), repeat)
    speedup = baseline_s / forest_s
    print(f"k-ECC forest   : {forest_s:8.3f} s ({forest.max_k} levels)")
    print(f"k-ECC baseline : {baseline_s:8.3f} s (every level, whole graph)")
    print(f"speedup        : {speedup:8.1f}x (bar: >= {SPEEDUP_BAR:.1f}x)")
    print(f"cohesion build : {build_s:8.3f} s (all three forests)")

    metrics: Dict[str, dict] = {}

    def record(name: str, value: float, unit: str) -> None:
        metrics[f"cohesion.{name}"] = {
            "metric": name,
            "value": round(value, 6),
            "unit": unit,
            "n": base.n,
            "k": forest.max_k,
        }

    record("kecc_forest_s", forest_s, "s")
    record("kecc_baseline_s", baseline_s, "s")
    record("kecc_speedup", speedup, "x")
    record("build_s", build_s, "s")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"wrote {len(metrics)} metric(s) to {args.json}")

    if not args.smoke and speedup < SPEEDUP_BAR:
        print(
            f"WARNING: the k-ECC forest is below the {SPEEDUP_BAR:.1f}x "
            f"bar against the baseline levels"
        )
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="serve's 4x80 input, one run each (CI trend mode, ungated)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default="",
        help="also write the measured metrics as machine-readable JSON",
    )
    args = parser.parse_args()
    return bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
