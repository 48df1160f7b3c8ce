"""Micro-benchmark: CSR enumeration stages and kernels.

Times the enumeration pipeline on mid-size generator graphs:

* **peel** - k-core peeling (``SubgraphView.peel`` on a fresh view over
  a shared CSR base);
* **enumerate** - the full ``enumerate_kvccs`` pipeline, with the
  per-stage breakdown of its fastest run and one row per kernel;
* **crossover** (``--crossover``, a mode of its own) - every LOC-CUT
  query and peel call of one enumerate pass over perfbench's seven
  stand-ins at their ``scaled_k_values`` and of one hierarchy build over
  perfbench's ``build`` tenants, recorded under the python kernel and
  replayed under every kernel that loads (python, numpy, c), in an
  order that rotates from call to call.  It prints flow time per
  network arc-count bucket and peel time per active-vertex bucket, one
  column per kernel, and the first bucket edge from which numpy's array
  Dinic wins on both passes - the value ``numpy_impl._SCALAR_ARCS`` is
  set from.  It exits non-zero if any kernel returns a different flow
  or cut from the python reference for any query (``--smoke`` replays
  once, as CI does; there is no timing gate).

Run directly (not under pytest-benchmark; this is a plain script so CI
can execute it without extra plugins)::

    PYTHONPATH=src python benchmarks/bench_backend_compare.py
    PYTHONPATH=src python benchmarks/bench_backend_compare.py --quick
    PYTHONPATH=src python benchmarks/bench_backend_compare.py --crossover

The kernel bar compares against the committed ``BENCH_baseline.json``
snapshot (see ``main``).  Measured numbers are recorded in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
import time

import repro.kernels as kernels
from repro.core.hierarchy import build_hierarchy_csr
from repro.core.kvcc import enumerate_kvccs, enumerate_kvccs_csr
from repro.core.options import KVCCOptions
from repro.core.stats import STAGES, RunStats
from repro.flow.dinic import max_flow_min_k
from repro.flow.flow_network import build_flow_network
from repro.flow.min_cut import minimum_vertex_cut_from_residual
from repro.graph.csr import CSRGraph, SubgraphView
from repro.graph.generators import web_graph
from repro.graph.graph import Graph

#: Committed PR-5 snapshot the kernel gate diffs against.
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_baseline.json"
)

#: The module whose flow-network calls the crossover records (the
#: package re-exports a function of the same name).
global_cut = importlib.import_module("repro.core.global_cut")

#: perfbench's input generators, imported read-only for the crossover.
PERFBENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)

#: Crossover buckets: flow networks by ``len(net.head)`` (reverse arcs
#: included, the count ``numpy_impl._SCALAR_ARCS`` is compared with),
#: peel calls by active vertices before the peel.
ARC_EDGES = (0, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 8192, 16384)
PEEL_EDGES = (0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def _mid_size_graph(quick: bool) -> Graph:
    """The web-graph stand-in family the paper's datasets are modeled on."""
    if quick:
        return web_graph(600, seed=7)
    return web_graph(2400, seed=7)


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_peel(graph: Graph, k: int, repeats: int) -> float:
    csr = graph.to_csr()
    return _time(lambda: csr.full_view().peel(k), repeats)


def bench_enumerate(graph: Graph, k: int, repeats: int) -> tuple:
    """Returns ``(t_csr, stages, engine_s)``.

    ``stages`` is the per-stage wall-clock breakdown (every
    ``repro.core.stats.STAGES`` row, in seconds; missing stages report
    as 0.0) of the *fastest* repeat, so the attribution matches the
    reported total rather than a noisier slow run.  The rows sum to
    ``engine_s``, that repeat's ``RunStats.elapsed_seconds`` (the serial
    engine's wall time, which excludes interning and materialization).
    """
    t_csr = float("inf")
    stages = {stage: 0.0 for stage in STAGES}
    engine_s = 0.0
    for _ in range(repeats):
        stats = RunStats(k=k)
        start = time.perf_counter()
        enumerate_kvccs(graph, k, KVCCOptions(), stats)
        elapsed = time.perf_counter() - start
        if elapsed < t_csr:
            t_csr = elapsed
            engine_s = stats.elapsed_seconds
            for stage in STAGES:
                stages[stage] = stats.stage_seconds.get(stage, 0.0)
    return t_csr, stages, engine_s


def bench_kernels(graph: Graph, k: int, repeats: int) -> dict:
    """Serial CSR enumerate per kernel implementation, interleaved.

    Alternating the kernels inside one loop (rather than timing each in
    a block) spreads machine noise evenly over both, which matters
    because the baseline gate compares these numbers against a committed
    snapshot.  Returns ``{kernel_name: best_seconds}``.
    """
    opts = KVCCOptions()
    names = list(kernels.available())
    best = {name: float("inf") for name in names}
    counts = {}
    for _ in range(repeats):
        for name in names:
            with kernels.use(name):
                start = time.perf_counter()
                out = enumerate_kvccs(graph, k, opts)
                best[name] = min(best[name], time.perf_counter() - start)
            counts[name] = len(out)
    assert len(set(counts.values())) <= 1, f"kernels disagree: {counts}"
    return best


def load_baseline() -> dict:
    """The committed PR-5 metric snapshot ({} when absent)."""
    try:
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


# ----------------------------------------------------------------------
# --crossover: replay recorded kernel calls under both kernels
# ----------------------------------------------------------------------
def _crossover_passes(smoke: bool):
    """``(name, run)`` for the two recorded passes, on perfbench inputs.

    The enumerate pass is perfbench ``enumerate``'s grid (every cell at
    seed 1; ``smoke`` keeps the lowest and highest k of each stand-in);
    the build pass is the hierarchy of perfbench ``build``'s tenants.
    """
    sys.path.insert(0, PERFBENCH_DIR)
    import inputs
    from offline import BUILD_FRINGE, BUILD_TENANT_SIZE, BUILD_TENANTS

    cells = []
    for _name, edges, ks in inputs.stand_ins(1):
        base, _ = CSRGraph.from_edges(edges)
        cells.extend((base, k) for k in (sorted({ks[0], ks[-1]})
                                         if smoke else ks))
    tenants, _ = inputs.tenant_graph(
        1, BUILD_TENANTS, BUILD_TENANT_SIZE, BUILD_FRINGE
    )
    tenant_base, _ = CSRGraph.from_edges(tenants)
    return [
        ("enumerate", lambda: [enumerate_kvccs_csr(base, k, materialize=False)
                               for base, k in cells]),
        ("build", lambda: build_hierarchy_csr(tenant_base)),
    ]


@contextlib.contextmanager
def _recording(networks: list, peels: list):
    """Record every LOC-CUT network + query and every view peel.

    ``networks`` gets ``[graph, k, arcs, queries]`` per flow network
    GLOBAL-CUT builds (``graph`` is its sparse certificate, which nothing
    mutates after the build), and ``peels`` gets ``(base, mask, k,
    active)`` per peel.
    """
    by_net = {}
    build, loc_cut, peel = (
        global_cut.build_flow_network, global_cut.local_vertex_cut,
        SubgraphView.peel,
    )

    def record_build(graph, k):
        net = build(graph, k)
        by_net[id(net)] = entry = [graph, k, len(net.head), []]
        networks.append(entry)
        return net

    def record_query(graph, net, u, v, k):
        by_net[id(net)][3].append((u, v))
        return loc_cut(graph, net, u, v, k)

    def record_peel(view, k):
        peels.append((view.base, bytes(view.mask), k, view.num_vertices))
        return peel(view, k)

    global_cut.build_flow_network = record_build
    global_cut.local_vertex_cut = record_query
    SubgraphView.peel = record_peel
    try:
        yield
    finally:
        global_cut.build_flow_network = build
        global_cut.local_vertex_cut = loc_cut
        SubgraphView.peel = peel


@contextlib.contextmanager
def _pinned(name: str):
    """Pin a kernel; numpy runs its array programs at every size."""
    with kernels.use(name), contextlib.ExitStack() as stack:
        module = kernels.select()
        for attr in [a for a in vars(module) if a.startswith("_SCALAR_")]:
            stack.callback(setattr, module, attr, getattr(module, attr))
            setattr(module, attr, 0)
        yield


def _flow_query(net, u: int, v: int, k: int):
    """One LOC-CUT flow test: ``(flow, cut or None)``; resets ``net``."""
    source = net.node_out(u)
    flow = max_flow_min_k(net, source, net.node_in(v), k)
    cut = minimum_vertex_cut_from_residual(net, source) if flow < k else None
    net.reset()
    return flow, cut


def _replay(calls: list, run, names, repeats: int):
    """Best time of ``run(call)`` per call and kernel, rotating.

    The kernel that goes first rotates from call to call and repeat to
    repeat.  Returns ``(best, mismatches)``: per-kernel lists of best
    seconds, and the number of calls on which some kernel's answer
    differs from the python kernel's.
    """
    best = {name: [float("inf")] * len(calls) for name in names}
    mismatches = 0
    for rep in range(repeats):
        for i, call in enumerate(calls):
            answers = {}
            turn = (rep + i) % len(names)
            for name in names[turn:] + names[:turn]:
                with _pinned(name):
                    seconds, answers[name] = run(call)
                best[name][i] = min(best[name][i], seconds)
            mismatches += any(
                answers[name] != answers["python"] for name in names
            )
    return best, mismatches


def _time_network(entry):
    """Build ``entry``'s network (untimed), then time its queries."""
    graph, k, _arcs, queries = entry
    net = build_flow_network(graph, k)
    start = time.perf_counter()
    out = [_flow_query(net, u, v, k) for u, v in queries]
    return time.perf_counter() - start, out


def _time_peel(call):
    """Rebuild the view (untimed), then time its peel."""
    base, mask, k, _active = call
    view = base.view_from_mask(mask)
    start = time.perf_counter()
    removed = kernels.select().peel(view, k)
    return time.perf_counter() - start, (removed, bytes(view.mask))


def _bucket_rows(pass_name, sizes, counts, best, edges):
    """Sum calls, counts and best times per ``[lo, hi)`` size bucket."""
    rows = []
    for lo, hi in zip(edges, edges[1:] + (None,)):
        idx = [i for i, size in enumerate(sizes)
               if size >= lo and (hi is None or size < hi)]
        if idx:
            row = {
                "pass": pass_name, "lo": lo, "hi": hi, "calls": len(idx),
                "tests": sum(counts[i] for i in idx),
            }
            for name, times in best.items():
                row[f"{name}_s"] = sum(times[i] for i in idx)
            rows.append(row)
    return rows


def _print_rows(title: str, unit: str, rows, names) -> None:
    print(title)
    others = [name for name in names if name != "python"]
    print(f"  {'pass':10s} {unit:>15s} {'calls':>6s} {'tests':>6s} "
          + " ".join(f"{name + ' s':>9s}" for name in names) + " "
          + " ".join(f"{name + '/py':>8s}" for name in others))
    for r in rows:
        span = f"[{r['lo']}, {r['hi'] if r['hi'] is not None else 'inf'})"
        py = max(r["python_s"], 1e-9)
        print(f"  {r['pass']:10s} {span:>15s} {r['calls']:6d} "
              f"{r['tests']:6d} "
              + " ".join(f"{r[name + '_s']:9.4f}" for name in names) + " "
              + " ".join(f"{r[name + '_s'] / py:8.2f}" for name in others))


def _crossover_edge(rows):
    """The first bucket edge from which numpy wins every bucket above it.

    Buckets are compared within each pass, so the edge holds on both
    passes; ``None`` when numpy loses the largest bucket.
    """
    for lo in sorted({r["lo"] for r in rows}):
        if all(r["numpy_s"] < r["python_s"] for r in rows if r["lo"] >= lo):
            return lo
    return None


def run_crossover(smoke: bool, json_path: str) -> int:
    """The ``--crossover`` mode (see the module docstring)."""
    names = kernels.available()
    if names == ("python",):
        print("crossover: neither numpy nor the c kernel loads - nothing "
              "to compare")
        return 0
    repeats = 1 if smoke else 3
    flow_rows, peel_rows, mismatches = [], [], 0
    for pass_name, run in _crossover_passes(smoke):
        networks, peels = [], []
        with kernels.use("python"), _recording(networks, peels):
            run()
        best, bad = _replay(networks, _time_network, names, repeats)
        mismatches += bad
        print(f"{pass_name}: {len(networks)} flow networks, "
              f"{sum(len(e[3]) for e in networks)} LOC-CUT queries, "
              f"{len(peels)} peels; {bad} flow/cut mismatch(es)")
        flow_rows += _bucket_rows(
            pass_name, [e[2] for e in networks],
            [len(e[3]) for e in networks], best, ARC_EDGES,
        )
        best, bad = _replay(peels, _time_peel, names, repeats)
        mismatches += bad
        peel_rows += _bucket_rows(
            pass_name, [p[3] for p in peels], [1] * len(peels), best,
            PEEL_EDGES,
        )
    print(f"best of {repeats}, kernel order rotating per call")
    _print_rows("LOC-CUT flow time by network arcs (layout set-up "
                "included):", "arcs", flow_rows, names)
    _print_rows("peel time by active vertices:", "active", peel_rows, names)
    edge = configured = None
    if "numpy" in names:
        from repro.kernels import numpy_impl

        edge = _crossover_edge(flow_rows)
        configured = numpy_impl._SCALAR_ARCS
        print(f"crossover: numpy's Dinic wins every bucket from {edge} "
              f"arcs up on both passes; numpy_impl._SCALAR_ARCS = "
              f"{configured}")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump({"repeats": repeats, "kernels": list(names),
                       "flow": flow_rows, "peel": peel_rows,
                       "crossover_arcs": edge, "scalar_arcs": configured},
                      handle, indent=2)
        print(f"wrote the crossover table to {json_path}")
    if mismatches:
        print(f"FAIL: the kernels disagree on {mismatches} replayed "
              f"call(s)")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", "--smoke", action="store_true",
        help="small graph / single repeat (CI smoke mode)",
    )
    parser.add_argument("-k", type=int, default=None, help="threshold")
    parser.add_argument(
        "--json", metavar="PATH", default="",
        help="also write the measured metrics as machine-readable JSON",
    )
    parser.add_argument(
        "--crossover", action="store_true",
        help="replay recorded flow and peel calls under every kernel "
        "that loads and print the per-size crossover table",
    )
    args = parser.parse_args()
    if args.crossover:
        return run_crossover(args.quick, args.json)

    k = args.k if args.k is not None else 5
    repeats = 1 if args.quick else 3

    metrics = {}

    def record(name: str, value: float, unit: str, n: int) -> None:
        metrics[f"backend.{name}"] = {
            "metric": name,
            "value": round(value, 6),
            "unit": unit,
            "n": n,
            "k": k,
        }

    graph = _mid_size_graph(args.quick)
    print(
        f"graph: web_graph n={graph.num_vertices} "
        f"m={graph.num_edges}, k={k}, best of {repeats}"
    )

    # Peel at the same threshold Algorithm 1 uses before enumerating:
    # on the web-graph stand-in this removes a large low-degree fringe
    # while keeping the dense cores - the representative k-core workload.
    peel_k = k
    t_peel = bench_peel(graph, peel_k, repeats)
    print(f"peel (k={peel_k}):      csr {t_peel * 1e3:8.1f} ms")
    record("peel_csr_ms", t_peel * 1e3, "ms", graph.num_vertices)

    t_csr, stages, engine_s = bench_enumerate(graph, k, repeats)
    print(f"enumerate (k={k}):    csr {t_csr * 1e3:8.1f} ms")
    record("enumerate_csr_ms", t_csr * 1e3, "ms", graph.num_vertices)

    # Per-stage attribution of the fastest CSR run (kernel wins show up
    # as movement in exactly one of these rows); the rows, ``other``
    # included, sum to the engine's elapsed time.
    print(f"  stages (csr, k={k}, kernel={kernels.active_name()}, "
          f"engine {engine_s * 1e3:.1f} ms):")
    for stage in STAGES:
        share = stages[stage] / engine_s if engine_s else 0.0
        print(f"    {stage:12s} {stages[stage] * 1e3:8.1f} ms  {share:6.1%}")
        record(f"stage_{stage}_ms", stages[stage] * 1e3, "ms",
               graph.num_vertices)
    record("stage_engine_ms", engine_s * 1e3, "ms", graph.num_vertices)

    # Kernel rows: the same serial CSR enumerate, pinned per kernel.
    # More repeats than the rows above because the baseline gate
    # below compares these against a committed snapshot and the bar is
    # tight relative to machine noise.
    kernel_repeats = repeats if args.quick else max(repeats, 9)
    kernel_best = bench_kernels(graph, k, kernel_repeats)
    for name, seconds in kernel_best.items():
        print(
            f"enumerate csr[{name}] (k={k}, best of {kernel_repeats}): "
            f"{seconds * 1e3:8.1f} ms"
        )
        record(f"enumerate_csr_{name}_ms", seconds * 1e3, "ms",
               graph.num_vertices)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"wrote {len(metrics)} metric(s) to {args.json}")

    failed = False
    # Kernel gate against the committed PR-5 snapshot: the numpy
    # kernels must beat the pre-kernel serial CSR enumerate by >= 1.5x
    # on the same workload, and the pure-python path must not regress
    # past it (small tolerance for machine noise on the equality bar).
    baseline = load_baseline()
    base_entry = baseline.get("backend.enumerate_csr_ms")
    if not args.quick and base_entry and base_entry.get("k") == k:
        base_ms = base_entry["value"]
        if "numpy" in kernel_best:
            ratio = base_ms / (kernel_best["numpy"] * 1e3)
            print(
                f"kernel gate: numpy {kernel_best['numpy'] * 1e3:.1f} ms "
                f"vs PR-5 baseline {base_ms:.1f} ms = {ratio:.2f}x"
            )
            if ratio < 1.5:
                print(
                    "WARNING: numpy-kernel enumerate below the 1.5x "
                    "bar over the PR-5 baseline"
                )
                failed = True
        else:
            print("kernel gate: numpy unavailable - 1.5x bar skipped")
        py_ms = kernel_best["python"] * 1e3
        if py_ms > base_ms * 1.10:
            print(
                f"WARNING: pure-python kernel enumerate ({py_ms:.1f} ms) "
                f"regressed past the PR-5 baseline ({base_ms:.1f} ms)"
            )
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
