"""The offline workloads: ``enumerate`` and ``build``.

Both run unpinned in the benchmark process, so a parallel engine could
use every CPU.  An operation is one pass over the enumerate grid or one
cold build; end-to-end latencies are per operation, at the reference
CPU speed of :mod:`speed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from typing import Dict, List, Tuple

import inputs
import metrics
import speed
import stats
import tracing
from run import vm_hwm_mb

#: Set-ups per run; ``setup_s`` is their median.  A set-up is the
#: program's cold load of the generated files (resolver hash, text
#: ingest, KVCCG cache write) into a fresh cache dir; generating and
#: writing the files happens once per run, untimed.
SETUPS = 5

#: Enumerate grid cells verified with ``verify_kvccs`` per run (the
#: check costs 0.5-20 s a cell, so a seeded few rotate through runs).
VERIFIED_CELLS = 3

#: The ``build`` input: disjoint tenants of this many vertices plus a
#: low-degree fringe.  The fringe adds ingest and level-1 work, but every
#: sparse certificate allocates per *base* vertex, so a larger fringe
#: grows certificates, not ingest (30000 fringe vertices: certificates
#: 67% of a 12 s build, ingest 1%).
BUILD_TENANTS = 40
BUILD_TENANT_SIZE = 100
BUILD_FRINGE = 6000

#: Levels whose index components are compared against enumerate.
BUILD_CHECKED_LEVELS = 2


def family_digest(leaves: List[List[int]]) -> str:
    """Order-free digest of one k-VCC family (sorted member lists)."""
    canonical = sorted(sorted(leaf) for leaf in leaves)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()[:16]


def run(ctx) -> dict:
    if ctx.workload == "enumerate":
        return run_enumerate(ctx)
    return run_build(ctx)


def timed_ops(ctx, op, seconds: float, minimum: int = 1):
    """Call ``op`` until another median-length call would overrun
    ``seconds``, at least ``minimum`` times; returns the durations at
    reference speed and the raw ones."""
    scaled = []
    raws = []
    started = time.perf_counter()
    with speed.Sampler() as sampler:
        while True:
            raw, at_reference = sampler.timed(op)
            raws.append(raw)
            scaled.append(at_reference)
            elapsed = time.perf_counter() - started
            if len(raws) >= minimum and (
                elapsed + stats.median(raws) > seconds
            ):
                break
    _note_unscaled(ctx, sampler)
    return scaled, raws


def timed_setups(ctx, setup):
    """Run ``setup`` :data:`SETUPS` times; returns the last result and
    the set-up times at reference speed."""
    times = []
    results = []
    with speed.Sampler() as sampler:
        for _ in range(SETUPS):
            times.append(
                sampler.timed(lambda: results.append(setup()))[1]
            )
    _note_unscaled(ctx, sampler)
    return results[-1], times


def _note_unscaled(ctx, sampler) -> None:
    if sampler.unscaled:
        ctx.log(f"note: {sampler.unscaled} call(s) used more CPU than the "
                f"main thread; their times are raw, not scaled (speed.py)")


def _measure(ctx, op, install):
    """Untraced operations for the whole window, or, traced, half the
    window untraced and half under the shims.

    Returns ``(untraced, traced, raw untraced, raw traced, tracer)``
    durations, the first two at reference speed.
    """
    if not ctx.trace:
        plain, raw = timed_ops(ctx, op, ctx.seconds, minimum=2)
        return plain, [], raw, [], None
    plain, raw = timed_ops(ctx, op, ctx.seconds / 2)
    tracer = tracing.Tracer()
    install(tracer)
    try:
        traced, raw_traced = timed_ops(ctx, op, ctx.seconds / 2)
    finally:
        tracer.restore()
    return plain, traced, raw, raw_traced, tracer


def _install_offline(tracer) -> None:
    tracer.install(tracing.OFFLINE_FUNCTIONS, tracing.OFFLINE_METHODS)


def _end_to_end(setup_times, durations) -> Dict[str, float]:
    return {
        "setup_s": stats.median(setup_times),
        "rss_peak_mb": vm_hwm_mb(),
        "throughput_per_s": len(durations) / sum(durations),
        "latency_p50_ms": stats.median(durations) * 1e3,
        "latency_tail_ms": stats.tail(durations, 990) * 1e3,
    }


def _report(ctx, e2e, setup_times, durations, raw, counters,
            digest) -> None:
    ctx.log(f"input digest: {digest}")
    ctx.log(f"counters: {json.dumps(counters, sort_keys=True)}")
    ctx.log(f"setups: {', '.join(f'{t:.3f}s' for t in setup_times)}")
    ctx.log(f"operations: {len(durations)}, at reference speed "
            f"{', '.join(f'{d:.3f}s' for d in durations)}; raw "
            f"{', '.join(f'{d:.3f}s' for d in raw)}")
    for name, unit, _ in metrics.END_TO_END:
        ctx.log(f"  {name:20s} {e2e[name]:12.4f} {unit}")


def _traced_layers(ctx, tracer, traced, plain, raw_traced) -> Tuple[
        tracing.Summary, Dict[str, float]]:
    summary = tracing.Summary(tracer.spans)
    wall = sum(raw_traced)
    layers = metrics.layer_metrics(summary, len(traced), wall)
    layers["trace.overhead_ratio"] = (
        stats.median(traced) / stats.median(plain)
    )
    layers["host.cpu_speed"] = stats.median(
        [t / r for t, r in zip(traced, raw_traced)]
    )
    ctx.log(f"per-layer self time over {len(traced)} traced "
            f"operation(s) ({wall:.3f}s wall):")
    for row in summary.table(wall):
        ctx.log(row)
    ctx.write_trace("benchmark", tracer.spans)
    return summary, layers


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------
def run_enumerate(ctx) -> dict:
    from repro.core.kvcc import enumerate_kvccs_csr
    from repro.core.stats import RunStats
    from repro.core.verify import verify_kvccs
    from repro.data import load_graph_csr

    directory = ctx.fresh_dir("enumerate-inputs")
    sources = []
    for name, edges, ks in inputs.stand_ins(ctx.seed):
        path = os.path.join(directory, f"{name}.txt")
        inputs.write_edge_list(path, edges)
        sources.append((name, path, ks))
    digest = inputs.file_digest(*(path for _, path, _ in sources))

    def setup():
        cache = ctx.fresh_dir("enumerate-cache")
        return [(name, load_graph_csr(path, cache_dir=cache), ks)
                for name, path, ks in sources]

    cases, setup_times = timed_setups(ctx, setup)
    cells = [(name, base, k) for name, base, ks in cases for k in ks]

    passes: List[Tuple[List[str], Dict[str, int], list]] = []
    pass_stats: List[RunStats] = []

    def one_pass() -> None:
        total = RunStats()
        families = [
            enumerate_kvccs_csr(base, k, stats=total, materialize=False)
            for _, base, k in cells
        ]
        counters = total.counters()
        del counters["k"]
        passes.append(([family_digest(f) for f in families], counters,
                       families))
        pass_stats.append(total)

    plain, traced, raw, raw_traced, tracer = _measure(
        ctx, one_pass, _install_offline
    )

    # Correctness: every pass gives the same families and counters, and
    # a seeded sample of cells passes the independent verifier.
    attempted = len(passes) * len(cells)
    failed = sum(
        a != b for digests, _, _ in passes[1:]
        for a, b in zip(digests, passes[0][0])
    )
    counters = passes[0][1]
    failed += sum(c != counters for _, c, _ in passes[1:])
    rng = random.Random(ctx.seed)
    lowest = {name: min(ks) for name, _, ks in cases}
    checkable = [i for i, (name, _, k) in enumerate(cells)
                 if k != lowest[name]]
    for i in sorted(rng.sample(checkable, VERIFIED_CELLS)):
        name, base, k = cells[i]
        members = [[base.label_of(v) for v in leaf]
                   for leaf in passes[0][2][i]]
        report = verify_kvccs(base.to_graph(), members, k)
        attempted += 1
        failed += not report.ok
        ctx.log(f"verify {name} k={k}: {len(members)} k-VCC(s) "
                f"{'ok' if report.ok else report.problems[:3]}")

    e2e = _end_to_end(setup_times, plain)
    _report(ctx, e2e, setup_times, plain, raw, counters, digest)
    layers = {}
    if ctx.trace:
        summary, layers = _traced_layers(ctx, tracer, traced, plain,
                                         raw_traced)
        traced_stats = pass_stats[len(plain)]
        pruned = sum(traced_stats.phase1_pruned.values())
        layers["core.sweep.prune_ratio"] = metrics.ratio(
            pruned, traced_stats.phase1_total()
        )
        layers["core.sweep.phase2_skip_ratio"] = metrics.ratio(
            traced_stats.phase2_skipped_group,
            traced_stats.phase2_skipped_group + traced_stats.phase2_tested,
        )
        layers["certificate.keep_ratio"] = metrics.ratio(
            traced_stats.certificate_edges_kept,
            traced_stats.certificate_edges_input,
        )
        ctx.log(f"traced counters: "
                f"{json.dumps(_span_counters(summary, len(traced)))}")
    return metrics.result(ctx, attempted, failed, e2e, layers)


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def run_build(ctx) -> dict:
    from repro import cli
    from repro.core.kvcc import enumerate_kvccs_csr
    from repro.data import load_graph_csr
    from repro.index import load_index

    path = os.path.join(ctx.fresh_dir("build-inputs"), "tenants.txt")
    edges, _ = inputs.tenant_graph(
        ctx.seed, BUILD_TENANTS, BUILD_TENANT_SIZE, BUILD_FRINGE
    )
    inputs.write_edge_list(path, edges)
    digest = inputs.file_digest(path)
    _, setup_times = timed_setups(
        ctx, lambda: load_graph_csr(path,
                                    cache_dir=ctx.fresh_dir("build-cache"))
    )

    builds: List[Tuple[str, str, str]] = []

    def one_build() -> None:
        # Cold: a fresh cache dir, so hash, ingest and the KVCCG write
        # all run, exactly as a first `repro hierarchy` call does.
        directory = ctx.fresh_dir("build")
        cache = os.path.join(directory, "cache")
        index_path = os.path.join(directory, "tenants.kvccidx")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "hierarchy", path, "--save-index", index_path,
                "--cache-dir", cache,
            ])
        if code != 0:
            raise RuntimeError(f"repro hierarchy exited {code}")
        builds.append((index_path, cache, inputs.file_digest(index_path)))

    plain, traced, raw, raw_traced, tracer = _measure(
        ctx, one_build, _install_offline
    )

    # Correctness: byte-identical index files, and the saved index's
    # components and vcc-numbers match enumerate at sampled levels.
    attempted = len(builds)
    failed = sum(d != builds[0][2] for _, _, d in builds)
    index_path, cache, _ = builds[-1]
    index = load_index(index_path)
    base = load_graph_csr(path, cache_dir=cache)
    rng = random.Random(ctx.seed)
    levels = sorted(rng.sample(
        range(max(2, index.max_k // 2), index.max_k + 1),
        BUILD_CHECKED_LEVELS,
    ))
    for k in levels:
        leaves = enumerate_kvccs_csr(base, k, materialize=False)
        expected = {frozenset(base.label_of(v) for v in leaf)
                    for leaf in leaves}
        saved = {frozenset(index.member_labels(node))
                 for node in index.nodes_at(k)}
        members = set().union(*expected) if expected else set()
        sweep = {label for label in index.labels
                 if index.vcc_number_of(label) >= k}
        attempted += 2
        failed += (saved != expected) + (sweep != members)
        verdict = "matches" if (saved, sweep) == (expected, members) \
            else "DIFFERS"
        ctx.log(f"check k={k}: {len(expected)} k-VCC(s), index {verdict}")
    counters = {
        "index_nodes": index.num_nodes,
        "index_vertices": index.num_vertices,
        "max_k": index.max_k,
        "index_bytes": os.path.getsize(index_path),
        "index_digest": builds[0][2],
    }
    e2e = _end_to_end(setup_times, plain)
    _report(ctx, e2e, setup_times, plain, raw, counters, digest)
    layers = {}
    if ctx.trace:
        summary, layers = _traced_layers(ctx, tracer, traced, plain,
                                         raw_traced)
        layers["index.store.bytes"] = counters["index_bytes"]
        ctx.log(f"traced counters: "
                f"{json.dumps(_span_counters(summary, len(traced)))}")
    return metrics.result(ctx, attempted, failed, e2e, layers)


def _span_counters(summary, ops: int) -> Dict[str, float]:
    """Per-operation call counts of the layers whose work is a pure
    function of the input (identical across runs of one seed)."""
    return {
        name: summary.count(name) / ops
        for name in ("core.global_cut", "flow.loc_cut", "certificate.sparse",
                     "core.engine.item", "core.partition")
    }
