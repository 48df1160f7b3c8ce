"""``benchmarks/collect_bench_trend.py --compare``: the pair verdicts.

The committed ``BENCH_18.json`` carries the summary its PR was judged
by; the comparer must reproduce it exactly from the snapshot's pair
runs and ``BENCHMARK.json``'s bounds, and must fail a snapshot whose
metric leaves its bound.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import random

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_module():
    path = os.path.join(ROOT, "benchmarks", "collect_bench_trend.py")
    spec = importlib.util.spec_from_file_location("collect_bench_trend", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trend = _load_module()


def _read(*parts):
    with open(os.path.join(ROOT, *parts), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def bounds():
    """The parsed BENCHMARK.json."""
    return _read("BENCHMARK.json")


@pytest.fixture(scope="module")
def bench18():
    return _read("benchmarks", "BENCH_18.json")


def test_reproduces_committed_summary(bench18, bounds):
    summary = trend.summarize(bench18["perfbench_runs"], bounds)
    assert summary == bench18["summary"]
    assert list(summary) == list(bench18["summary"])


def test_compare_passes_bench18(capsys):
    path = os.path.join(ROOT, "benchmarks", "BENCH_18.json")
    assert trend.compare(path, os.path.join(ROOT, "BENCHMARK.json")) == 0
    out = capsys.readouterr().out
    assert "serve-write (seeds 1831-1835" in out
    assert "OUT OF BOUND" not in out


def _write(tmp_path, snapshot):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(snapshot))
    return str(path)


def test_out_of_bound_metric_exits_1(bench18, tmp_path, capsys):
    snapshot = copy.deepcopy(bench18)
    for run in snapshot["perfbench_runs"]:
        if (run["role"], run["workload"], run["side"]) == (
            "pair", "build", "change"
        ):
            latency = run["result"]["metrics"]["latency_p50_ms"]
            latency["value"] *= 1.3
    path = _write(tmp_path, snapshot)
    assert trend.compare(path, os.path.join(ROOT, "BENCHMARK.json")) == 1
    assert "OUT OF BOUND" in capsys.readouterr().out


def test_quantile_matches_numpy():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(7)
    for n in (1, 2, 5, 10, 11):
        values = [rng.uniform(0.1, 100.0) for _ in range(n)]
        for q in (0.25, 0.5, 0.75):
            assert trend.quantile(values, q) == float(
                numpy.percentile(values, 100 * q)
            )
