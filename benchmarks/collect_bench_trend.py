"""Collect every machine-readable benchmark into one ``BENCH_ci.json``.

The CI ``bench-trend`` job runs this script; it executes each bench
that supports ``--json`` as a subprocess (so an assertion failure in
one bench fails the job loudly instead of silently dropping metrics),
then merges their outputs into a single flat mapping::

    { "<bench>.<metric>": {"metric", "value", "unit", "n", "k"}, ... }

uploaded as a per-commit artifact.  Downloading the artifact across a
range of commits gives the repo a perf *trend* - the numbers used to
live only in scrolled-past job logs.

Run locally::

    PYTHONPATH=src python benchmarks/collect_bench_trend.py \\
        --smoke --out BENCH_ci.json

``--compare BENCH_<pr>.json`` runs nothing.  It judges a committed
snapshot's alternating perfbench pairs (its ``perfbench_runs`` with
``role`` ``"pair"``) against the end-to-end bounds in
``BENCHMARK.json``.  For every workload and end-to-end metric it prints
both sides' median and quartiles, the pairs the change won, whether the
median gap exceeds the parent's interquartile range, and the bound
verdict, and it exits 1 when any metric is worse than its bound::

    python benchmarks/collect_bench_trend.py --compare benchmarks/BENCH_18.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

#: (bench script, extra args in smoke mode, extra args in full mode).
BENCHES = [
    ("bench_query_throughput.py", ["--smoke"], []),
    ("bench_backend_compare.py", ["--quick"], []),
    ("bench_serve_throughput.py", ["--smoke"], []),
    ("bench_incremental.py", ["--smoke"], []),
    ("bench_ingest.py", ["--smoke"], []),
    ("bench_outofcore.py", ["--smoke"], []),
    ("bench_cohesion.py", ["--smoke"], []),
]


def run_bench(
    script: str, mode_args: list, json_path: str, bench_dir: str
) -> dict:
    """Execute one bench with ``--json`` and return its metrics dict."""
    command = [
        sys.executable,
        os.path.join(bench_dir, script),
        *mode_args,
        "--json",
        json_path,
    ]
    print(f"$ {' '.join(command)}", flush=True)
    subprocess.run(command, check=True)
    with open(json_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def quantile(values: list, q: float) -> float:
    """The q-quantile of ``values`` by linear interpolation, computed
    exactly as ``numpy.percentile(values, 100 * q)`` does (its default
    method), so summaries match numpy's to the last bit without
    importing it."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    t = position - low
    diff = ordered[high] - ordered[low]
    if t >= 0.5:
        return ordered[high] - diff * (1 - t)
    return ordered[low] + diff * t


def _spread(values: list) -> dict:
    return {
        "q1": quantile(values, 0.25),
        "median": quantile(values, 0.5),
        "q3": quantile(values, 0.75),
        "n": len(values),
    }


def summarize(runs: list, benchmark: dict) -> dict:
    """Per workload and end-to-end metric, the verdicts of the pairs.

    ``runs`` are perfbench run records (``workload``, ``seed``,
    ``side``, ``role``, ``result``); only ``role == "pair"`` runs
    count, matched by seed.  ``benchmark`` is the parsed
    ``BENCHMARK.json`` giving each metric's direction and bound.
    """
    out = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        pairs: dict = {}
        for run in runs:
            if run.get("role") == "pair" and run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
        seeds = sorted(s for s, p in pairs.items() if len(p) == 2)
        if not seeds:
            continue
        results = [pairs[s][side] for s in seeds for side in ("parent", "change")]
        summary = {
            "seeds": seeds,
            "fail_ratio_max": max(r["failed"] / r["attempted"] for r in results),
        }
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            parent = [pairs[s]["parent"]["metrics"][name]["value"] for s in seeds]
            change = [pairs[s]["change"]["metrics"][name]["value"] for s in seeds]
            p, c = _spread(parent), _spread(change)
            iqr = p["q3"] - p["q1"]
            worsening = (c["median"] - p["median"]) / p["median"]
            if lower:
                wins = sum(b < a for a, b in zip(parent, change))
                all_better = max(change) < min(parent)
            else:
                wins = sum(b > a for a, b in zip(parent, change))
                all_better = min(change) > max(parent)
                worsening = -worsening
            summary[name] = {
                "better": metric["better"],
                "parent": p,
                "change": c,
                "ratio_of_medians": c["median"] / p["median"],
                "change_wins": wins,
                "pairs": len(seeds),
                "median_gap_exceeds_parent_iqr": (
                    abs(c["median"] - p["median"]) > iqr
                ),
                "change_runs_all_better": all_better,
                "bound": bound,
                "within_bound": worsening <= bound,
                "parent_iqr_over_median": iqr / p["median"],
                "spread_wider_than_bound": iqr / p["median"] > bound,
            }
        out[workload] = summary
    return out


def compare(snapshot_path: str, benchmark_path: str) -> int:
    """Print the verdict table of one snapshot; the process exit code."""
    with open(snapshot_path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    with open(benchmark_path, "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    summary = summarize(snapshot["perfbench_runs"], benchmark)
    failed = False
    print(f"{os.path.basename(snapshot_path)}: change vs parent, median [q1, q3]")
    for workload, rows in summary.items():
        print(
            f"{workload} (seeds {rows['seeds'][0]}-{rows['seeds'][-1]}, "
            f"fail ratio max {rows['fail_ratio_max']:g})"
        )
        for metric in benchmark["end_to_end"]:
            row = rows[metric["name"]]
            p, c = row["parent"], row["change"]
            verdict = "within bound" if row["within_bound"] else "OUT OF BOUND"
            if row["spread_wider_than_bound"] and not row["change_runs_all_better"]:
                verdict += ", parent spread wider than bound"
            failed |= not row["within_bound"]
            print(
                f"  {metric['name']:17s} {p['median']:10.4g} "
                f"[{p['q1']:.4g}, {p['q3']:.4g}] -> {c['median']:10.4g} "
                f"[{c['q1']:.4g}, {c['q3']:.4g}]  x{row['ratio_of_medians']:.3f}  "
                f"won {row['change_wins']}/{row['pairs']}  "
                f"gap{'>' if row['median_gap_exceeds_parent_iqr'] else '<='}IQR  "
                f"{verdict} ({metric['better']}, bound {metric['bound']:g})"
            )
    return 1 if failed else 0


def main() -> int:
    """Run every JSON-capable bench and merge the results, or judge a
    committed snapshot with ``--compare``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run each bench in its small CI mode",
    )
    parser.add_argument(
        "--out", metavar="PATH", default="BENCH_ci.json",
        help="merged output file (default: BENCH_ci.json)",
    )
    parser.add_argument(
        "--compare", metavar="SNAPSHOT",
        help="judge a BENCH_<pr>.json snapshot's pairs instead of running",
    )
    args = parser.parse_args()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if args.compare:
        bounds = os.path.join(os.path.dirname(bench_dir), "BENCHMARK.json")
        return compare(args.compare, bounds)

    merged = {}
    with tempfile.TemporaryDirectory() as workdir:
        for script, smoke_args, full_args in BENCHES:
            json_path = os.path.join(workdir, script + ".json")
            metrics = run_bench(
                script,
                smoke_args if args.smoke else full_args,
                json_path,
                bench_dir,
            )
            overlap = merged.keys() & metrics.keys()
            if overlap:
                raise SystemExit(
                    f"{script}: metric name collision: {sorted(overlap)}"
                )
            merged.update(metrics)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
    print(f"wrote {len(merged)} metric(s) from {len(BENCHES)} bench(es) "
          f"to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
