"""Out-of-core data path benchmark: ingest + enumeration under a budget.

Two gated questions, both answered with *real* OS-level RSS measured in
fresh child processes (``ru_maxrss``/``VmHWM`` are lifetime high-water
marks, so a parent that already peaked cannot measure itself honestly):

* **Ingest**: external-sort a tiled edge list **>= 8x the memory
  budget** into a KVCCG file.  Gates: peak RSS growth <= **1.5x** the
  budget, more than one spill run actually written, and the output
  **byte-identical** to the unbudgeted in-memory path.
* **Enumeration**: on a multi-component graph, the component-at-a-time
  driver (``enumerate_kvccs_outofcore``) must answer identically to the
  whole-graph-resident driver (``enumerate_kvccs_csr``) while growing
  RSS by <= **0.5x** as much - the resident driver boxes every CSR row
  before the first peel; the component driver only ever holds one
  component's rows.

Children pin ``REPRO_KERNELS=python``, whose boxed CSR rows are the
residency this bench isolates (the c kernel reads the same rows' pages
in place, and only for the views it is handed).
Peak-RSS deltas prefer the precise route (reset the kernel's high-water
counter via ``/proc/self/clear_refs``, then read ``VmHWM``) and degrade
to plain before/after ``ru_maxrss`` deltas elsewhere.

Run directly (plain script, stdlib only)::

    PYTHONPATH=src python benchmarks/bench_outofcore.py --smoke
    PYTHONPATH=src python benchmarks/bench_outofcore.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict

from repro.graph.generators import web_graph

#: Ingest gate: peak RSS growth as a multiple of the budget.
INGEST_RSS_BAR = 1.5

#: Enumeration gate: out-of-core RSS growth vs whole-graph-resident.
ENUM_RSS_RATIO_BAR = 0.5

#: The ingest fixture must be at least this many times the budget.
FILE_OVER_BUDGET = 8


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS counter for this process (Linux).

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM`` to the
    current ``VmRSS``, making the subsequent high-water read an exact
    peak for the measured region.  Returns False where unsupported.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_now() -> int:
    """Current peak RSS in bytes: ``VmHWM`` if available, else getrusage."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    from repro.core.stats import max_rss_bytes

    return max_rss_bytes()


def write_tiled_edge_list(
    graph, copies: int, path: str, both_directions: bool = False
) -> int:
    """Write ``copies`` disjoint label-shifted shards of ``graph``.

    Shard t's vertex ``v`` becomes ``v + t * n``.  With
    ``both_directions`` each edge is emitted as two arc lines (the SNAP
    convention for directed sources) - doubling file bytes per vertex,
    which keeps the ingest fixture's *structural* floor (interner +
    indptr, proportional to V) well under the budget while the file
    grows past 8x of it.  Returns the number of lines written.
    """
    n = graph.num_vertices
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# tiled web stand-in: {copies} x n={n}\n")
        for t in range(copies):
            shift = t * n
            for u, v in edges:
                handle.write(f"{u + shift} {v + shift}\n")
                lines += 1
                if both_directions:
                    handle.write(f"{v + shift} {u + shift}\n")
                    lines += 1
    return lines


# ----------------------------------------------------------------------
# Child-process measurement modes (fresh process = honest peak RSS)
# ----------------------------------------------------------------------

def _child_ingest(src: str, out: str, budget: int) -> None:
    """Measured child: budgeted ingest; prints a JSON metrics line."""
    from repro.data.external import ingest_edge_list_kvccg

    exact = reset_peak_rss()
    base = peak_rss_now()
    report = ingest_edge_list_kvccg(src, out, mem_budget=budget or None)
    print(json.dumps({
        "peak_rss_bytes": max(0, peak_rss_now() - base),
        "exact": exact,
        "spill_runs": report.spill_runs,
        "n": report.n,
        "nnz": report.nnz,
    }))


def _child_enum(kvccg: str, k: int, mode: str) -> None:
    """Measured child: one enumeration driver; prints a JSON line.

    ``mode`` is ``resident`` (``enumerate_kvccs_csr`` over the full
    view) or ``outofcore`` (component-at-a-time).  The leaf sets are
    fingerprinted so the parent can diff answers across modes.
    """
    from repro.core.kvcc import enumerate_kvccs_csr
    from repro.core.outofcore import enumerate_kvccs_outofcore
    from repro.data.format import load_csr

    exact = reset_peak_rss()
    base_rss = peak_rss_now()
    graph = load_csr(kvccg)
    if mode == "resident":
        leaves = enumerate_kvccs_csr(graph, k, materialize=False)
    else:
        leaves = enumerate_kvccs_outofcore(graph, k, materialize=False)
    peak = max(0, peak_rss_now() - base_rss)
    canon = sorted(tuple(leaf) for leaf in leaves)
    digest = hashlib.sha256(
        json.dumps(canon).encode("ascii")
    ).hexdigest()[:16]
    print(json.dumps({
        "peak_rss_bytes": peak,
        "exact": exact,
        "count": len(leaves),
        "leaves_sha": digest,
    }))


def run_child(args: list) -> dict:
    """Run one measurement mode in a fresh python with python kernels."""
    env = dict(os.environ, REPRO_KERNELS="python")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"),
                    os.path.join(os.path.dirname(__file__), "..", "src"))
        if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child"]
        + [str(a) for a in args],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {args} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(smoke: bool, json_path: str) -> None:
    """Run both gated measurements, print the report, enforce the bars."""
    budget = (2 << 20) if smoke else (8 << 20)
    metrics: Dict[str, dict] = {}

    with tempfile.TemporaryDirectory() as workdir:
        # -------------------------------------------------- ingest gate
        tile = web_graph(600, out_degree=15, seed=11)
        text_path = os.path.join(workdir, "big.txt")
        copies = 0
        lines = 0
        # Tile until the file comfortably clears 8x the budget.
        target = FILE_OVER_BUDGET * budget
        with open(text_path, "w", encoding="utf-8") as handle:
            n = tile.num_vertices
            edges = sorted(tuple(sorted(e)) for e in tile.edges())
            while os.path.getsize(text_path) < target * 1.05:
                shift = copies * n
                for u, v in edges:
                    handle.write(f"{u + shift} {v + shift}\n")
                    handle.write(f"{v + shift} {u + shift}\n")
                    lines += 2
                handle.flush()
                copies += 1
        file_bytes = os.path.getsize(text_path)
        print(
            f"ingest fixture: {copies} shards, {copies * n} vertices, "
            f"{lines} arc lines, {file_bytes / 2**20:.1f} MiB "
            f"({file_bytes / budget:.1f}x the {budget / 2**20:.0f} MiB budget)"
        )
        assert file_bytes >= FILE_OVER_BUDGET * budget

        out_ext = os.path.join(workdir, "ext.kvccg")
        child = run_child(["ingest", text_path, out_ext, budget])
        ingest_peak = child["peak_rss_bytes"]
        spill_runs = child["spill_runs"]
        ratio = ingest_peak / budget
        print(
            f"external ingest:   peak RSS +{ingest_peak / 2**20:6.1f} MiB "
            f"({ratio:.2f}x budget, bar {INGEST_RSS_BAR}x), "
            f"{spill_runs} spill runs, n={child['n']}, nnz={child['nnz']}"
        )

        out_mem = os.path.join(workdir, "mem.kvccg")
        run_child(["ingest", text_path, out_mem, 0])  # unbudgeted path
        with open(out_ext, "rb") as a, open(out_mem, "rb") as b:
            identical = a.read() == b.read()
        print(f"byte-identical vs in-memory path: {identical}")

        def record(name: str, value: float, unit: str, n_val: int, k: int):
            metrics[f"outofcore.{name}"] = {
                "metric": name,
                "value": round(value, 6),
                "unit": unit,
                "n": n_val,
                "k": k,
            }

        record("ingest_peak_rss_mib", ingest_peak / 2**20, "MiB",
               child["n"], 0)
        record("ingest_budget_ratio", ratio, "x", child["n"], 0)
        record("ingest_spill_runs", spill_runs, "runs", child["n"], 0)

        # --------------------------------------------- enumeration gate
        enum_tile = web_graph(600, out_degree=5, seed=23)
        enum_copies = 16 if smoke else 48
        enum_text = os.path.join(workdir, "enum.txt")
        write_tiled_edge_list(enum_tile, enum_copies, enum_text)
        enum_kvccg = os.path.join(workdir, "enum.kvccg")
        run_child(["ingest", enum_text, enum_kvccg, 4 << 20])
        k = 3

        resident = run_child(["enum", enum_kvccg, k, "resident"])
        ooc = run_child(["enum", enum_kvccg, k, "outofcore"])
        enum_ratio = ooc["peak_rss_bytes"] / max(resident["peak_rss_bytes"], 1)
        enum_n = enum_tile.num_vertices * enum_copies
        print(
            f"enum resident:     peak RSS "
            f"+{resident['peak_rss_bytes'] / 2**20:6.1f} MiB, "
            f"{resident['count']} {k}-VCCs\n"
            f"enum out-of-core:  peak RSS "
            f"+{ooc['peak_rss_bytes'] / 2**20:6.1f} MiB, "
            f"{ooc['count']} {k}-VCCs "
            f"({enum_ratio:.2f}x resident, bar {ENUM_RSS_RATIO_BAR}x)"
        )
        record("enum_resident_rss_mib",
               resident["peak_rss_bytes"] / 2**20, "MiB", enum_n, k)
        record("enum_ooc_rss_mib",
               ooc["peak_rss_bytes"] / 2**20, "MiB", enum_n, k)
        record("enum_rss_ratio", enum_ratio, "x", enum_n, k)

    # ------------------------------------------------------- acceptance
    assert spill_runs > 1, (
        f"a {FILE_OVER_BUDGET}x-budget file must force multiple spill "
        f"runs, got {spill_runs}"
    )
    assert identical, "external-sort KVCCG differs from the in-memory path"
    assert ratio <= INGEST_RSS_BAR, (
        f"ingest peak RSS {ingest_peak / 2**20:.1f} MiB is "
        f"{ratio:.2f}x the budget (bar: {INGEST_RSS_BAR}x)"
    )
    assert ooc["leaves_sha"] == resident["leaves_sha"] and (
        ooc["count"] == resident["count"]
    ), "component-at-a-time answers differ from the resident driver"
    assert enum_ratio <= ENUM_RSS_RATIO_BAR, (
        f"out-of-core enumeration grew RSS {enum_ratio:.2f}x the "
        f"resident driver's (bar: {ENUM_RSS_RATIO_BAR}x)"
    )
    print(
        f"\nOK: ingest {ratio:.2f}x budget across {spill_runs} runs "
        f"(byte-identical), enumeration {enum_ratio:.2f}x resident RSS"
    )

    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"wrote {len(metrics)} metric(s) to {json_path}")


def main() -> None:
    """CLI entry point (including the internal --child modes)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixture + small budget (CI mode)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="",
        help="also write the measured metrics as machine-readable JSON",
    )
    parser.add_argument(
        "--child", nargs="+", metavar="ARG", default=None,
        help=argparse.SUPPRESS,  # internal: measured subprocess modes
    )
    args = parser.parse_args()
    if args.child:
        mode = args.child[0]
        if mode == "ingest":
            _child_ingest(args.child[1], args.child[2], int(args.child[3]))
        elif mode == "enum":
            _child_enum(args.child[1], int(args.child[2]), args.child[3])
        else:
            raise SystemExit(f"unknown child mode {mode!r}")
        return
    bench(args.smoke, args.json)


if __name__ == "__main__":
    main()
