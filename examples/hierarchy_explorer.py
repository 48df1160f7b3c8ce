"""Explore the k-VCC hierarchy of a collaboration network, then serve it.

Extension beyond the paper: instead of a single k, build the full
nesting forest of k-VCCs for k = 1..max (every (k+1)-VCC lies inside
exactly one k-VCC), and derive each author's *vcc-number* - the largest
k at which they still belong to a k-vertex-connected group.  The
vcc-number is to vertex connectivity what the core number is to degree,
and is never larger (Whitney / Theorem 3).

The construction interns the graph once: one shared immutable CSR base,
each level's components re-entered as zero-copy mask views.  The second
half shows the serving pattern: persist the forest as a
:mod:`repro.index` file once, then answer membership queries from the
loaded index in O(1) - no flow computation per query.

Run: ``python examples/hierarchy_explorer.py``
"""

import os
import tempfile
import time
from collections import Counter

from repro import (
    HierarchyIndex,
    HierarchyQueryService,
    build_hierarchy,
    core_number,
    load_index,
)
from repro.experiments.plots import ascii_chart
from repro.graph.csr import VertexInterner
from repro.graph.generators import collaboration_graph


def main() -> None:
    graph = collaboration_graph(400, 700, mean_paper_size=3.0, seed=11)
    print(f"collaboration graph: {graph}\n")

    # One shared CSR base, zero-copy level views.
    hierarchy = build_hierarchy(graph)
    print(f"hierarchy: {len(hierarchy)} components across "
          f"levels 1..{hierarchy.max_k}")
    series = {"#k-VCCs": []}
    for k in range(1, hierarchy.max_k + 1):
        comps = hierarchy.components_at(k)
        sizes = sorted((len(c) for c in comps), reverse=True)
        series["#k-VCCs"].append((k, len(comps)))
        print(f"  k={k}: {len(comps):3d} component(s), largest {sizes[0]}")
    print()
    print(ascii_chart(series, width=40, height=8,
                      title="components per level"))

    numbers = hierarchy.vcc_number_map()
    cores = core_number(graph)
    histogram = Counter(numbers.values())
    print("\nvcc-number histogram (authors per level):")
    for level in sorted(histogram):
        print(f"  {level}: {histogram[level]}")

    # Whitney sanity: vcc-number never exceeds core number.
    assert all(numbers[v] <= cores[v] for v in numbers)
    deep = [v for v, n in numbers.items() if n == hierarchy.max_k]
    print(f"\nauthors in the deepest ({hierarchy.max_k}-connected) group: "
          f"{sorted(deep)[:10]}")

    # ------------------------------------------------------------------
    # Decompose once, serve forever: persist the forest and answer
    # membership queries from the index, never re-running the flows.
    # ------------------------------------------------------------------
    path = os.path.join(tempfile.mkdtemp(), "collaboration.kvccidx")
    index = HierarchyIndex.from_hierarchy(
        hierarchy, VertexInterner(graph.vertices())
    )
    index.save(path)
    print(f"\npersisted index: {path} "
          f"({os.path.getsize(path)} bytes, {index.num_nodes} components)")

    service = HierarchyQueryService(load_index(path))
    a = sorted(deep)[0]
    shallow = min(numbers.values())
    b = min(v for v, n in numbers.items() if n == shallow)
    print(f"query vcc_number({a})        -> {service.vcc_number(a)}")
    print(f"query max_shared_level({a}, {b}) -> "
          f"{service.max_shared_level(a, b)}")
    print(f"query same_kvcc({a}, {b}, k=2)   -> "
          f"{service.same_kvcc(a, b, 2)}")

    queries = 50_000
    start = time.perf_counter()
    for _ in range(queries):
        service.vcc_number(a)
    rate = queries / (time.perf_counter() - start)
    print(f"indexed vcc_number throughput: {rate:,.0f} queries/sec")


if __name__ == "__main__":
    main()
