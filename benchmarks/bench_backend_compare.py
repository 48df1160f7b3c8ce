"""Micro-benchmark: CSR enumeration stages and kernels.

Times the enumeration pipeline on mid-size generator graphs:

* **peel** - k-core peeling (``SubgraphView.peel`` on a fresh view over
  a shared CSR base);
* **enumerate** - the full ``enumerate_kvccs`` pipeline, with the
  per-stage breakdown of its fastest run and one row per kernel;
* **replay** (``--replay``, a mode of its own) - every kernel call
  of one enumerate pass over perfbench's seven stand-ins at their
  ``scaled_k_values`` and of one hierarchy build over perfbench's
  ``build`` tenants (seed 1), recorded under the python kernel and
  replayed under both kernels at full size, in an order that rotates
  from call to call: each sparse certificate, ``components`` and
  ``active_degrees`` call, strong side-vertex scan, flow arc build
  (from a view and from certificate rows), phase-1 order, LOC-CUT
  network's queries and peel.  It prints one time column per kernel
  for each function, and exits non-zero if the c kernel returns
  anything different from the python reference for any call
  (``--smoke`` replays once, as CI does; there is no timing gate).
  It also counts, for the strong side-vertex scans, how many anchors
  the c kernel binary-searches and how many it merges.

Run directly (not under pytest-benchmark; this is a plain script so CI
can execute it without extra plugins)::

    PYTHONPATH=src python benchmarks/bench_backend_compare.py
    PYTHONPATH=src python benchmarks/bench_backend_compare.py --quick
    PYTHONPATH=src python benchmarks/bench_backend_compare.py --replay

The kernel bar compares against the committed ``BENCH_baseline.json``
snapshot (see ``main``).  Measured numbers are recorded in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import re
import sys
import time
from array import array

import repro.kernels as kernels
from repro.certificate.side_groups import side_groups_from_forest
from repro.certificate.sparse_certificate import sparse_certificate
from repro.core.hierarchy import build_hierarchy_csr
from repro.core.kvcc import enumerate_kvccs, enumerate_kvccs_csr
from repro.core.options import KVCCOptions
from repro.core.side_vertex import strong_side_vertices
from repro.core.stats import STAGES, RunStats
from repro.flow.dinic import max_flow_min_k
from repro.flow.flow_network import build_flow_network
from repro.flow.min_cut import minimum_vertex_cut_from_residual
from repro.graph.csr import CSRGraph
from repro.graph.generators import web_graph
from repro.graph.graph import Graph
from repro.kernels import c_impl

#: Committed PR-5 snapshot the kernel gate diffs against.
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_baseline.json"
)

#: The module whose flow-network calls the replay records (the
#: package re-exports a function of the same name).
global_cut = importlib.import_module("repro.core.global_cut")

#: perfbench's input generators, imported read-only for the replay.
PERFBENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
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


# ----------------------------------------------------------------------
# --replay: every recorded kernel call, under both kernels
# ----------------------------------------------------------------------
def _replay_passes(smoke: bool):
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


def _snapshot(view):
    """What rebuilds ``view`` later: its base and active ids."""
    return view.base, array("i", view.active_list())


def _rebuild(snapshot):
    base, members = snapshot
    return base.view_from_members(members)


def _as_lists(sets):
    """Sets as lists, so the comparison sees their iteration order."""
    return [list(s) for s in sets]


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


#: How each recorded function is replayed: ``replay(call)`` prepares
#: its inputs untimed and returns ``(seconds, comparable answer)``.
def _replay_certificate(call):
    view, k = _rebuild(call[0]), call[1]
    seconds, cert = _timed(sparse_certificate, view, k)
    return seconds, (cert.forests,
                     [cert.graph.neighbors(v) for v in cert.graph.verts],
                     _as_lists(side_groups_from_forest(cert, k)))


def _replay_components(call):
    view, removed = _rebuild(call[0]), call[1]
    seconds, comps = _timed(kernels.select().components, view, removed)
    return seconds, _as_lists(comps)


def _replay_degrees(call):
    base, members = call
    mask = bytearray(base.n)  # the callers' masks hold exactly members
    for v in members:
        mask[v] = 1
    return _timed(kernels.select().active_degrees, base, mask, members)


def _replay_strong(call):
    view, k, candidates = _rebuild(call[0]), call[1], call[2]
    seconds, strong = _timed(strong_side_vertices, view, k, candidates)
    return seconds, list(strong)


#: ``kvcc_strong``'s crossover (``KVCC_SEARCH_RATIO`` in ``kernel.c``):
#: an anchor whose base row is longer than this many times the
#: neighbors left to pair with it is binary-searched, a shorter one is
#: merged.
STRONG_SEARCH_RATIO = int(re.search(
    r"#define KVCC_SEARCH_RATIO (\d+)L", c_impl.SOURCE.read_text()
).group(1))


def _strong_sides(call) -> tuple:
    """``(searched, merged)``: the anchors of each kind that the c
    kernel's strong scan takes on ``call``, walking the pool and the
    pairs in ``kvcc_strong``'s order and stopping where it stops."""
    view, k, candidates = _rebuild(call[0]), call[1], call[2]
    mask, rows = view.mask, view.base.rows
    active = mask.__getitem__
    if candidates is None:
        pool = view.active_list()
    else:
        pool = [v for v in candidates if 0 <= v < len(mask) and mask[v]]
    searched = merged = 0
    for u in pool:
        nb = list(filter(active, rows[u]))
        for a, x in enumerate(nb[:-1]):
            left = nb[a + 1:]
            if len(rows[x]) > STRONG_SEARCH_RATIO * len(left):
                searched += 1
            else:
                merged += 1
            row = set(rows[x])
            if any(w not in row
                   and sum(map(active, row.intersection(rows[w]))) < k
                   for w in left):
                break
    return searched, merged


def _arena(net):
    return list(net.head), list(net.cap), net.to_index


def _replay_view_arcs(call):
    view, k = _rebuild(call[0]), call[1]
    seconds, net = _timed(build_flow_network, view, k)
    return seconds, _arena(net)


def _certificate_of(call):
    return sparse_certificate(_rebuild(call[0]), call[1]).graph


def _replay_rows_arcs(call):
    graph = _certificate_of(call)
    seconds, net = _timed(build_flow_network, graph, call[1])
    return seconds, _arena(net)


def _replay_order(call):
    graph, source = _certificate_of(call), call[2]
    return _timed(kernels.select().farthest_first, graph, source)


def _flow_query(net, u: int, v: int, k: int):
    """One LOC-CUT flow test: ``(flow, cut or None)``; resets ``net``."""
    source = net.node_out(u)
    flow = max_flow_min_k(net, source, net.node_in(v), k)
    cut = minimum_vertex_cut_from_residual(net, source) if flow < k else None
    net.reset()
    return flow, cut


def _replay_loc_cut(call):
    """Build the call's network (untimed), then time its queries."""
    net = build_flow_network(_certificate_of(call), call[1])
    start = time.perf_counter()
    out = [_flow_query(net, u, v, call[1]) for u, v in call[2]]
    return time.perf_counter() - start, out


def _replay_peel(call):
    view, k = _rebuild(call[0]), call[1]
    seconds, removed = _timed(kernels.select().peel, view, k)
    return seconds, (removed, bytes(view.mask))


REPLAYS = {
    "certificate": _replay_certificate,
    "components": _replay_components,
    "active_degrees": _replay_degrees,
    "strong_side_vertices": _replay_strong,
    "arcs_from_view": _replay_view_arcs,
    "arcs_from_rows": _replay_rows_arcs,
    "farthest_first": _replay_order,
    "loc_cut": _replay_loc_cut,
    "peel": _replay_peel,
}


@contextlib.contextmanager
def _recording(calls: dict):
    """Record every kernel call of the python kernel into ``calls``.

    Views are recorded as (base, active ids) at call time, since peels
    mutate them later; certificate-row calls as the certificate's view
    and ``k``, so each kernel replays them on its own certificate.
    """
    from repro.kernels import python_impl as py

    cert_of = {}  # id(certificate graph) -> (view snapshot, k)
    originals = {}

    def patch(owner, name, wrapper):
        originals[(owner, name)] = getattr(owner, name)
        setattr(owner, name, wrapper(getattr(owner, name)))

    def certificate(fn):
        def record(view, k):
            out = fn(view, k)
            snap = _snapshot(view)
            calls["certificate"].append((snap, k))
            cert_of[id(out[0])] = (snap, k)
            return out
        return record

    def components(fn):
        def record(view, removed):
            calls["components"].append(
                (_snapshot(view), sorted(removed) if removed else None))
            return fn(view, removed)
        return record

    def degrees(fn):
        def record(base, mask, members):
            members = array("i", members)
            calls["active_degrees"].append((base, members))
            return fn(base, mask, members)
        return record

    def strong(fn):
        def record(view, k, candidates=None):
            if candidates is not None:
                candidates = list(candidates)
            calls["strong_side_vertices"].append(
                (_snapshot(view), k, candidates))
            return fn(view, k, candidates)
        return record

    def view_arcs(fn):
        def record(net, view, k):
            calls["arcs_from_view"].append((_snapshot(view), k))
            return fn(net, view, k)
        return record

    def rows_arcs(fn):
        def record(net, graph, k):
            origin = cert_of.get(id(graph))
            if origin is not None:
                calls["arcs_from_rows"].append(origin)
            return fn(net, graph, k)
        return record

    def order(fn):
        def record(work, source):
            origin = cert_of.get(id(work))
            if origin is not None:
                calls["farthest_first"].append(origin + (source,))
            return fn(work, source)
        return record

    by_net = {}

    def build(fn):
        def record(graph, k):
            net = fn(graph, k)
            origin = cert_of.get(id(graph))
            if origin is not None:
                by_net[id(net)] = entry = origin + ([],)
                calls["loc_cut"].append(entry)
            return net
        return record

    def loc_cut(fn):
        def record(graph, net, u, v, k):
            entry = by_net.get(id(net))
            if entry is not None:
                entry[2].append((u, v))
            return fn(graph, net, u, v, k)
        return record

    def peel(fn):
        def record(view, k):
            calls["peel"].append((_snapshot(view), k))
            return fn(view, k)
        return record

    for name, wrapper in (
        ("certificate", certificate), ("components", components),
        ("active_degrees", degrees), ("strong_side_vertices", strong),
        ("flow_arcs_from_view", view_arcs), ("flow_arcs_from_rows", rows_arcs),
        ("farthest_first", order), ("peel", peel),
    ):
        patch(py, name, wrapper)
    patch(global_cut, "build_flow_network", build)
    patch(global_cut, "local_vertex_cut", loc_cut)
    try:
        yield
    finally:
        for (owner, name), fn in originals.items():
            setattr(owner, name, fn)


def _replay(calls: list, replay, names, repeats: int):
    """Best time of ``replay(call)`` per kernel, summed over the calls.

    The kernel that goes first rotates from call to call and repeat to
    repeat.  Returns ``(seconds, mismatches)``: per-kernel total of the
    per-call best times, and the number of calls on which some kernel's
    answer differs from the python kernel's.
    """
    best = {name: [float("inf")] * len(calls) for name in names}
    mismatches = 0
    for rep in range(repeats):
        for i, call in enumerate(calls):
            answers = {}
            turn = (rep + i) % len(names)
            for name in names[turn:] + names[:turn]:
                with kernels.use(name):
                    seconds, answers[name] = replay(call)
                best[name][i] = min(best[name][i], seconds)
            mismatches += any(
                answers[name] != answers["python"] for name in names
            )
    return {name: sum(times) for name, times in best.items()}, mismatches


def run_replay(smoke: bool, json_path: str) -> int:
    """The ``--replay`` mode (see the module docstring)."""
    names = kernels.available()
    if names == ("python",):
        print("replay: the c kernel does not load - nothing to compare")
        return 0
    repeats = 1 if smoke else 3
    rows, mismatches = [], 0
    for pass_name, run in _replay_passes(smoke):
        calls = {name: [] for name in REPLAYS}
        with kernels.use("python"), _recording(calls):
            run()
        for function, replay in REPLAYS.items():
            if not calls[function]:
                continue
            seconds, bad = _replay(calls[function], replay, names, repeats)
            mismatches += bad
            rows.append(dict(
                {"pass": pass_name, "function": function,
                 "calls": len(calls[function]), "mismatches": bad},
                **{f"{name}_s": seconds[name] for name in names},
            ))
            if function == "strong_side_vertices":
                sides = [_strong_sides(c) for c in calls[function]]
                rows[-1]["anchors_searched"] = sum(s for s, _ in sides)
                rows[-1]["anchors_merged"] = sum(m for _, m in sides)
    print(f"best of {repeats} per call, kernel order rotating per call")
    print(f"  {'pass':10s} {'function':22s} {'calls':>6s} "
          + " ".join(f"{name + ' s':>9s}" for name in names)
          + f" {'c/py':>6s} {'diffs':>5s}")
    for r in rows:
        print(f"  {r['pass']:10s} {r['function']:22s} {r['calls']:6d} "
              + " ".join(f"{r[name + '_s']:9.4f}" for name in names)
              + f" {r['c_s'] / max(r['python_s'], 1e-9):6.2f}"
              f" {r['mismatches']:5d}")
    for r in rows:
        if "anchors_searched" in r:
            print(f"  {r['pass']:10s} strong-scan anchors: "
                  f"{r['anchors_searched']} searched, "
                  f"{r['anchors_merged']} merged (row > "
                  f"{STRONG_SEARCH_RATIO} x pairs left is searched)")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump({"repeats": repeats, "kernels": list(names),
                       "rows": rows, "mismatches": mismatches},
                      handle, indent=2)
        print(f"wrote the replay table to {json_path}")
    if mismatches:
        print(f"FAIL: the kernels disagree on {mismatches} replayed "
              f"call(s)")
        return 1
    print("replay: 0 differences")
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
        "--replay", action="store_true",
        help="replay every recorded kernel call under both kernels, "
        "print per-function times, and fail on any difference",
    )
    args = parser.parse_args()
    if args.replay:
        return run_replay(args.quick, args.json)

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
    # Kernel gate against the committed PR-5 snapshot: the c kernel
    # must beat the pre-kernel serial CSR enumerate by >= 1.5x on the
    # same workload, and the pure-python path must not regress past it
    # (small tolerance for machine noise on the equality bar).
    baseline = load_baseline()
    base_entry = baseline.get("backend.enumerate_csr_ms")
    if not args.quick and base_entry and base_entry.get("k") == k:
        base_ms = base_entry["value"]
        if "c" in kernel_best:
            ratio = base_ms / (kernel_best["c"] * 1e3)
            print(
                f"kernel gate: c {kernel_best['c'] * 1e3:.1f} ms "
                f"vs PR-5 baseline {base_ms:.1f} ms = {ratio:.2f}x"
            )
            if ratio < 1.5:
                print(
                    "WARNING: c-kernel enumerate below the 1.5x bar "
                    "over the PR-5 baseline"
                )
                failed = True
        else:
            print("kernel gate: the c kernel does not load - 1.5x bar "
                  "skipped")
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
