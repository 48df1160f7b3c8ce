"""Micro-benchmark: CSR enumeration stages and kernels, serial vs parallel.

Times the enumeration pipeline on mid-size generator graphs:

* **peel** - k-core peeling (``SubgraphView.peel`` on a fresh view over
  a shared CSR base);
* **enumerate** - the full ``enumerate_kvccs`` pipeline, with the
  per-stage breakdown of its fastest run and one row per kernel;
* **serial vs parallel** - the CSR pipeline under the serial engine vs
  the ``--workers N`` process-pool engine, on the single-component
  web-graph stand-in (pessimal: little fan-out before the first cuts)
  and on a sharded multi-community workload (top-level fan-out, the
  shape the engine is built for).

Run directly (not under pytest-benchmark; this is a plain script so CI
can execute it without extra plugins)::

    PYTHONPATH=src python benchmarks/bench_backend_compare.py
    PYTHONPATH=src python benchmarks/bench_backend_compare.py --quick
    PYTHONPATH=src python benchmarks/bench_backend_compare.py --workers 4

The kernel bar compares against the committed ``BENCH_baseline.json``
snapshot (see ``main``); for the parallel engine it is >= 1.5x over
serial on the sharded workload *on machines exposing >= 2 CPUs* (the
single-component web graph is documented as too serial to benefit - its
first GLOBAL-CUT dominates the critical path - and on a single-CPU
machine the parallel rows degrade to an equivalence check plus an
overhead measurement and are not gated).  Measured numbers are recorded
in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import repro.kernels as kernels
from repro.core.kvcc import enumerate_kvccs
from repro.core.options import KVCCOptions
from repro.core.stats import STAGES, RunStats
from repro.graph.generators import assemble_communities, web_graph
from repro.graph.graph import Graph

#: Committed PR-5 snapshot the kernel gate diffs against.
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_baseline.json"
)


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


def bench_parallel(graph: Graph, k: int, workers: int, repeats: int) -> tuple:
    """Serial CSR enumerate vs the process-pool engine on the same graph."""
    serial_opts = KVCCOptions()
    par_opts = KVCCOptions(workers=workers)

    # Capture the last timed run's result so the equivalence assertion
    # below does not cost two extra full enumerations.
    results = {}

    def run_serial():
        results["serial"] = enumerate_kvccs(graph, k, serial_opts)

    def run_par():
        results["par"] = enumerate_kvccs(graph, k, par_opts)

    t_serial = _time(run_serial, repeats)
    t_par = _time(run_par, repeats)
    a = [tuple(sorted(c.vertices(), key=str)) for c in results["serial"]]
    b = [tuple(sorted(c.vertices(), key=str)) for c in results["par"]]
    assert a == b, "engines disagree on results or ordering"
    return t_serial, t_par


def _sharded_graph(quick: bool) -> Graph:
    """Disjoint web communities: the fan-out-friendly sharded shape.

    ``cross_edges=0`` keeps the communities separate components - even a
    handful of surviving cross edges merges k-cores into one giant
    component whose first GLOBAL-CUT re-serializes the critical path.
    """
    parts = 4 if quick else 8
    size = 300 if quick else 600
    communities = [
        web_graph(size, out_degree=8, copy_prob=0.65, seed=40 + i)
        for i in range(parts)
    ]
    return assemble_communities(communities, cross_edges=0, seed=40)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small graph / single repeat (CI smoke mode)",
    )
    parser.add_argument("-k", type=int, default=None, help="threshold")
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="pool size for the serial-vs-parallel column (default 4)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="",
        help="also write the measured metrics as machine-readable JSON",
    )
    parser.add_argument(
        "--parallel-only", action="store_true",
        help="run (and gate) only the sharded-workload parallel bar - "
        "the cpu-count-gated CI job's mode",
    )
    args = parser.parse_args()

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

    def flush_json() -> None:
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(metrics, handle, indent=2, sort_keys=True)
            print(f"wrote {len(metrics)} metric(s) to {args.json}")

    workers = args.workers
    cpus = os.cpu_count() or 1

    if args.parallel_only:
        # The CI parallel job's mode: only the fan-out-friendly sharded
        # workload, gated on machines where parallelism is possible.
        sharded = _sharded_graph(args.quick)
        t_ser2, t_par2 = bench_parallel(sharded, k, workers, repeats)
        shard_speedup = t_ser2 / t_par2
        print(
            f"engine (k={k}, sharded n={sharded.num_vertices} "
            f"m={sharded.num_edges}): serial {t_ser2 * 1e3:8.1f} ms   "
            f"pool{workers} {t_par2 * 1e3:8.1f} ms   "
            f"speedup {shard_speedup:5.2f}x"
        )
        record("engine_sharded_speedup", shard_speedup, "x",
               sharded.num_vertices)
        flush_json()
        if cpus < 2:
            print(f"  note: {cpus} CPU exposed - bar not applicable")
            return 0
        if not args.quick and shard_speedup < 1.5:
            print(
                "WARNING: parallel speedup below the 1.5x acceptance "
                "bar on the sharded workload"
            )
            return 1
        return 0

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

    # Serial-vs-parallel column (same CSR pipeline, engine differs).
    t_ser, t_par = bench_parallel(graph, k, workers, repeats)
    par_speedup = t_ser / t_par
    print(
        f"engine (k={k}, web): serial {t_ser * 1e3:8.1f} ms   "
        f"pool{workers} {t_par * 1e3:8.1f} ms   speedup {par_speedup:5.2f}x"
    )
    record("engine_web_speedup", par_speedup, "x", graph.num_vertices)
    if par_speedup < 1.5:
        print(
            "  note: the web stand-in is one component whose first "
            "GLOBAL-CUT dominates the critical path - too little "
            "fan-out for process parallelism to pay for pool startup"
        )

    sharded = _sharded_graph(args.quick)
    t_ser2, t_par2 = bench_parallel(sharded, k, workers, repeats)
    shard_speedup = t_ser2 / t_par2
    print(
        f"engine (k={k}, sharded n={sharded.num_vertices} "
        f"m={sharded.num_edges}): serial {t_ser2 * 1e3:8.1f} ms   "
        f"pool{workers} {t_par2 * 1e3:8.1f} ms   speedup {shard_speedup:5.2f}x"
    )
    record("engine_sharded_speedup", shard_speedup, "x",
           sharded.num_vertices)
    if cpus < 2:
        print(
            f"  note: this machine exposes {cpus} CPU - a process pool "
            "cannot exceed 1x here; the parallel rows only validate "
            "engine equivalence and measure dispatch overhead"
        )

    flush_json()

    failed = False
    if not args.quick and cpus >= 2 and shard_speedup < 1.5:
        # The parallel bar only applies where parallelism is possible;
        # on a single-CPU machine the rows above degrade to an overhead
        # measurement (see note) and are not gated.
        print(
            "WARNING: parallel speedup below the 1.5x acceptance bar "
            "on the sharded workload"
        )
        failed = True

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
