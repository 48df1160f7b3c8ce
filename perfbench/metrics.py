"""The metric catalog and the per-layer numbers derived from a trace.

``END_TO_END`` is what an untraced run prints, ``PER_LAYER`` what a
traced run prints; both must list the same names, units and directions
as ``BENCHMARK.json`` (a test checks).  Every workload prints every
metric of its mode.  A per-layer metric of a layer the workload does not
exercise reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable

from stats import percentile
from tracing import Summary

#: (name, unit, better) of the end-to-end metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("rss_peak_mb", "MB", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
)

#: (name, unit, better) of the per-layer metrics.
PER_LAYER = (
    ("flow.tests", "count", "lower"),
    ("flow.s", "s", "lower"),
    ("flow.ms_per_test", "ms", "lower"),
    ("flow.build_s", "s", "lower"),
    ("core.sweep.prune_ratio", "ratio", "higher"),
    ("core.sweep.phase2_skip_ratio", "ratio", "higher"),
    ("core.side_vertex.s", "s", "lower"),
    ("core.global_cut.calls", "count", "lower"),
    ("core.global_cut.self_s", "s", "lower"),
    ("core.global_cut.cut_ratio", "ratio", "higher"),
    ("certificate.s", "s", "lower"),
    ("certificate.ms_per_call", "ms", "lower"),
    ("certificate.keep_ratio", "ratio", "lower"),
    ("certificate.side_groups_s", "s", "lower"),
    ("core.engine.items", "count", "lower"),
    ("core.engine.self_s", "s", "lower"),
    ("core.partition.calls", "count", "lower"),
    ("core.partition.s", "s", "lower"),
    ("graph.peel.s", "s", "lower"),
    ("graph.components.s", "s", "lower"),
    ("core.hierarchy.levels", "count", "lower"),
    ("core.hierarchy.s", "s", "lower"),
    ("data.resolver.hash_s", "s", "lower"),
    ("data.ingest.s", "s", "lower"),
    ("data.format.save_s", "s", "lower"),
    ("index.store.flatten_s", "s", "lower"),
    ("index.store.save_s", "s", "lower"),
    ("index.store.bytes", "bytes", "lower"),
    ("service.handlers.us_p50", "us", "lower"),
    ("service.schema.validate_us", "us", "lower"),
    ("index.query.us_p50", "us", "lower"),
    ("service.handlers.render_us", "us", "lower"),
    ("service.registry.get_us", "us", "lower"),
    ("service.registry.hit_ratio", "ratio", "higher"),
    ("service.server.overhead_ms", "ms", "lower"),
    ("service.server.cpu_busy", "ratio", "lower"),
    ("index.delta.apply_ms_p50", "ms", "lower"),
    ("index.delta.nodes_changed", "count", "lower"),
    ("index.delta.log_bytes", "bytes", "lower"),
    ("index.delta.replay_ms", "ms", "lower"),
    ("service.registry.reloads", "count", "lower"),
    ("service.mutation.wait_ms", "ms", "lower"),
    ("index.cohesion.build_s", "s", "lower"),
    ("serve.read_p50_ms", "ms", "lower"),
    ("serve.read_p99_ms", "ms", "lower"),
    ("core.other_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("host.cpu_speed", "ratio", "higher"),
    ("loadgen.cpu_busy", "ratio", "lower"),
    ("loadgen.write_late_p99_ms", "ms", "lower"),
)

def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def p50_us(summary: Summary, name: str) -> float:
    durations = summary.durations_ns.get(name)
    return percentile(durations, 500) / 1e3 if durations else 0.0


def layer_metrics(
    summary: Summary, ops: int, wall_s: float
) -> Dict[str, float]:
    """Span-derived per-layer numbers, per operation (pass or build).

    ``wall_s`` is the traced wall time of the ``ops`` operations; the
    layer self times plus ``core.other_s`` add up to it.
    """
    per = 1.0 / ops
    flow_tests = summary.count("flow.loc_cut")
    flow_s = summary.total_s("flow.loc_cut")
    certificates = summary.count("certificate.sparse")
    certificate_s = summary.total_s("certificate.sparse")
    cuts = summary.count("core.global_cut")
    partitions = summary.count("core.partition")
    # build_hierarchy_csr drains each level with one run_many call.
    hierarchy_ids = {
        span[0] for span in summary.spans if span[1] == "core.hierarchy"
    }
    levels = sum(
        1 for _, name, _, _, parent, _, _ in summary.spans
        if name == "core.engine.run_many" and parent in hierarchy_ids
    )
    return {
        "flow.tests": flow_tests * per,
        "flow.s": flow_s * per,
        "flow.ms_per_test": ratio(flow_s * 1e3, flow_tests),
        "flow.build_s": summary.self_s("flow.build") * per,
        "core.side_vertex.s": summary.self_s("core.side_vertex") * per,
        "core.global_cut.calls": cuts * per,
        "core.global_cut.self_s": summary.self_s("core.global_cut") * per,
        "core.global_cut.cut_ratio": ratio(partitions, cuts),
        "certificate.s": summary.self_s("certificate.sparse") * per,
        "certificate.ms_per_call": ratio(certificate_s * 1e3, certificates),
        "certificate.side_groups_s":
            summary.self_s("certificate.side_groups") * per,
        "core.engine.items": summary.count("core.engine.item") * per,
        "core.engine.self_s": summary.self_s(
            "core.engine.run_many", "core.engine.item", "core.engine.roots"
        ) * per,
        "core.partition.calls": partitions * per,
        "core.partition.s": summary.total_s("core.partition") * per,
        "graph.peel.s": summary.self_s("graph.peel") * per,
        "graph.components.s": summary.self_s("graph.components") * per,
        "core.hierarchy.levels": levels * per,
        "core.hierarchy.s": summary.self_s("core.hierarchy") * per,
        "data.resolver.hash_s": summary.self_s("data.resolver.hash") * per,
        "data.ingest.s": summary.self_s("data.ingest") * per,
        "data.format.save_s": summary.self_s("data.format.save") * per,
        "index.store.flatten_s": summary.self_s("index.store.flatten") * per,
        "index.store.save_s": summary.self_s("index.store.save") * per,
        "core.other_s": (wall_s - summary.self_sum_s()) * per,
        "trace.coverage": ratio(summary.self_sum_s(), wall_s),
    }


def complete(values: Dict[str, float], catalog: Iterable) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every catalog metric, 0 when a
    workload does not exercise it."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in catalog
    }


def result(ctx, attempted: int, failed: int, e2e: Dict[str, float],
           layers: Dict[str, float]) -> dict:
    """The run's JSON result: end-to-end metrics untraced, per-layer
    metrics traced."""
    ctx.log(f"fail_ratio: {failed / attempted:.6f} ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": complete(layers, PER_LAYER) if ctx.trace
        else complete(e2e, END_TO_END),
    }
