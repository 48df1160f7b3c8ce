"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import httpload  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_tail_needs_ten_samples_beyond():
    assert stats.tail_per_mille(10) is None
    assert stats.tail_per_mille(20) == 500
    assert stats.tail_per_mille(99) == 500
    assert stats.tail_per_mille(100) == 900
    assert stats.tail_per_mille(999) == 900
    assert stats.tail_per_mille(1000) == 990
    assert stats.tail_per_mille(10_000) == 999


def test_percentile_is_nearest_rank_on_integers():
    values = list(range(1, 101))
    assert stats.percentile(values, 500) == 50
    assert stats.percentile(values, 900) == 90
    assert stats.percentile(values, 990) == 99
    assert stats.percentile([7.0], 990) == 7.0


def test_tail_falls_back_to_max_with_too_few_samples():
    assert stats.tail([3.0, 1.0, 2.0], 990) == 3.0
    values = list(range(1, 1001))
    assert stats.tail(values, 990) == 990
    # p99 of 100 samples would have 1 beyond it: report the max.
    assert stats.tail(list(range(1, 101)), 990) == 100
    assert stats.tail(list(range(1, 101)), 900) == 90


def test_mean_speed_uses_the_window_or_the_last_sample_before_it():
    ref = speed.REFERENCE_S
    samples = [(0, ref), (10, ref * 2), (20, ref * 4), (30, ref)]
    assert speed.mean_speed(samples, 10, 20) == (0.5 + 0.25) / 2
    assert speed.mean_speed(samples, 21, 25) == 0.25
    assert speed.mean_speed(samples, 31, 40) == 1.0


def test_sampler_probes_while_active(monkeypatch):
    import time

    monkeypatch.setattr(speed, "SAMPLER_INTERVAL", 0.005)
    with speed.Sampler() as sampler:
        raw, scaled = sampler.timed(lambda: time.sleep(0.05))
    assert len(sampler.samples) > 2
    assert raw >= 0.05 and scaled > 0
    assert sampler.unscaled == 0


def test_sampler_reports_raw_time_of_work_on_other_threads():
    import threading
    import time

    def burn():
        end = time.thread_time() + 0.05
        while time.thread_time() < end:
            pass

    def spread():
        worker = threading.Thread(target=burn)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    with speed.Sampler() as sampler:
        raw, scaled = sampler.timed(spread)
    assert sampler.unscaled == 1 and scaled == raw


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def span(sid, name, start, end, parent=-1):
    return (sid, name, start, end, parent, 1, 0)


def test_covered_ns_merges_overlaps():
    assert tracing.covered_ns([]) == 0
    assert tracing.covered_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert tracing.covered_ns([(0, 10), (2, 3)]) == 10


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span(1, "child", 10, 30, parent=0),
        span(2, "child", 40, 50, parent=0),
        span(3, "grandchild", 12, 20, parent=1),
        span(0, "root", 0, 100),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 70, 1: 12, 2: 10, 3: 8}


def test_table_rows_and_other_sum_to_wall():
    ms = 1_000_000
    spans = [
        span(1, "b", 100 * ms, 300 * ms, parent=0),
        span(0, "a", 0, 1000 * ms),
        span(2, "a", 2000 * ms, 2500 * ms),
    ]
    summary = tracing.Summary(spans)
    assert summary.self_s("a") == 1.3
    assert summary.total_s("a") == 1.5
    rows = summary.table(4.0)
    seconds = {row.split()[0]: float(row.split()[-2]) for row in rows[1:]}
    assert seconds == {"a": 1.3, "b": 0.2, "core.other_s": 2.5, "wall": 4.0}


def test_nested_spans_of_one_name_count_once_in_durations():
    spans = [
        span(1, "q", 10, 20, parent=0),
        span(0, "q", 0, 50),
    ]
    summary = tracing.Summary(spans)
    assert summary.durations_ns["q"] == [50]
    assert summary.count("q") == 2


def test_tracer_records_parents_items_and_restores():
    module = types.ModuleType("repro_fake_layer")
    other = types.ModuleType("repro_fake_user")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    other.inner = inner  # a `from repro_fake_layer import inner` copy
    sys.modules["repro_fake_layer"] = module
    sys.modules["repro_fake_user"] = other
    try:
        tracer = tracing.Tracer()
        tracer.patch_function("repro_fake_layer", "inner", "layer.inner",
                              False)
        tracer.patch_function("repro_fake_layer", "outer", "layer.outer",
                              True)
        assert other.inner is not inner
        assert module.outer(1) == 4
        assert other.inner(1) == 2
        by_name = {}
        for sid, name, start, end, parent, _, item in tracer.spans:
            by_name.setdefault(name, []).append((sid, parent, item))
        (outer_id, outer_parent, outer_item), = by_name["layer.outer"]
        assert outer_parent == -1 and outer_item == outer_id
        nested, top = sorted(by_name["layer.inner"], key=lambda s: s[1])[::-1]
        assert nested[1] == outer_id and nested[2] == outer_id
        assert top[1] == -1 and top[2] == top[0]
        tracer.restore()
        assert module.inner is inner and other.inner is inner
        assert module.outer is outer
    finally:
        del sys.modules["repro_fake_layer"], sys.modules["repro_fake_user"]


def test_chrome_trace_events():
    trace = tracing.chrome_trace({"p": [span(0, "core.x", 1000, 3000)]})
    event = [e for e in trace["traceEvents"] if e["ph"] == "X"][0]
    assert event["name"] == "core.x" and event["cat"] == "core"
    assert event["ts"] == 0 and event["dur"] == 2.0
    json.dumps(trace)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def test_inputs_are_deterministic_per_seed(tmp_path):
    def written(seed):
        edges, _ = inputs.tenant_graph(seed, 8, 30, fringe=50)
        path = tmp_path / f"t{seed}-{len(list(tmp_path.iterdir()))}.txt"
        inputs.write_edge_list(str(path), edges)
        return inputs.file_digest(str(path))

    assert written(3) == written(3)
    assert written(3) != written(4)
    first = inputs.stand_ins(5)
    assert first == inputs.stand_ins(5)
    assert [name for name, _, _ in first] == [
        "stanford", "dblp", "cnr", "nd", "google", "youtube", "cit",
    ]
    assert first[0][1] != inputs.stand_ins(6)[0][1]


def test_stand_ins_keep_the_registry_structure():
    from repro.datasets.registry import DATASETS

    (name, edges, ks), = [s for s in inputs.stand_ins(1)
                          if s[0] == "youtube"]
    original = DATASETS["youtube"].build()
    assert len(edges) == original.num_edges
    degrees = sorted(original.degree(v) for v in original.vertices())
    count = {}
    for u, v in edges:
        count[u] = count.get(u, 0) + 1
        count[v] = count.get(v, 0) + 1
    assert sorted(count.values()) == [d for d in degrees if d]
    assert ks == [8, 10, 11, 12, 14]


def test_tenant_mutations_stay_valid_and_local():
    edges, ranges = inputs.tenant_graph(2, 6, 25)
    batches = inputs.tenant_mutations(2, edges, ranges, 300)
    assert batches == inputs.tenant_mutations(2, edges, ranges, 300)
    present = {(min(u, v), max(u, v)) for u, v in edges}

    def tenant_of(x):
        return next(i for i, (s, w) in enumerate(ranges) if s <= x < s + w)

    for batch in batches:
        assert len(batch) == inputs.WRITE_BATCH_EDGES
        touched = set()
        for m in batch:
            edge = (m["u"], m["v"])
            assert edge[0] < edge[1]
            assert tenant_of(edge[0]) == tenant_of(edge[1])
            assert edge not in touched
            touched.add(edge)
            if m["op"] == "insert":
                assert edge not in present
                present.add(edge)
            else:
                assert m["op"] == "delete" and edge in present
                present.discard(edge)


def test_zipf_keys_are_skewed_and_seeded():
    import random

    draws = [inputs.ZipfKeys(range(100), random.Random(1)).draw()
             for _ in range(3)]
    keys = inputs.ZipfKeys(range(100), random.Random(1))
    sample = [keys.draw() for _ in range(2000)]
    assert draws[0] == draws[1] == draws[2]
    top = keys.keys[0]
    assert sample.count(top) > 2000 / 100 * 5


# ----------------------------------------------------------------------
# Load generator and catalog
# ----------------------------------------------------------------------
def test_parse_response_waits_for_the_whole_body():
    raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
    assert httpload.parse_response(raw[:20]) is None
    assert httpload.parse_response(raw[:-1]) is None
    assert httpload.parse_response(raw + b"HTTP") == (200, b"hello",
                                                       len(raw))


def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
            ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
            ] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == [
        "enumerate", "build", "serve", "serve-write",
    ]
