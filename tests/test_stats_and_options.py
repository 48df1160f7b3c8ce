"""Tests for RunStats, Timer and KVCCOptions."""

import time

import pytest

from repro.core.options import KVCCOptions
from repro.core.stats import (
    PRUNE_GS,
    PRUNE_NS1,
    PRUNE_NS2,
    RunStats,
    Timer,
)
from repro.core.variants import VARIANTS


class TestRunStats:
    def test_defaults(self):
        stats = RunStats()
        assert stats.flow_tests == 0
        assert stats.phase1_total() == 0

    def test_record_prune(self):
        stats = RunStats()
        stats.record_prune(PRUNE_NS1)
        stats.record_prune(PRUNE_NS1)
        stats.record_prune(PRUNE_GS)
        stats.record_prune("unknown-rule")  # silently ignored
        assert stats.phase1_pruned[PRUNE_NS1] == 2
        assert stats.phase1_pruned[PRUNE_GS] == 1

    def test_proportions_empty(self):
        props = RunStats().prune_proportions()
        assert props["non_pruned"] == 0.0

    def test_proportions_sum_to_one(self):
        stats = RunStats()
        stats.phase1_tested = 5
        stats.phase1_pruned[PRUNE_NS1] = 3
        stats.phase1_pruned[PRUNE_NS2] = 1
        stats.phase1_pruned[PRUNE_GS] = 1
        props = stats.prune_proportions()
        assert sum(props.values()) == pytest.approx(1.0)
        assert props[PRUNE_NS1] == pytest.approx(0.3)
        assert props["non_pruned"] == pytest.approx(0.5)

    def test_merge(self):
        a = RunStats()
        a.flow_tests = 3
        a.phase1_tested = 2
        a.peak_resident_vertices = 100
        b = RunStats()
        b.flow_tests = 4
        b.phase1_pruned[PRUNE_NS2] = 7
        b.peak_resident_vertices = 50
        b.elapsed_seconds = 1.5
        a.merge(b)
        assert a.flow_tests == 7
        assert a.phase1_pruned[PRUNE_NS2] == 7
        assert a.peak_resident_vertices == 100  # max, not sum
        assert a.elapsed_seconds == 1.5

    def test_timer(self):
        stats = RunStats()
        with Timer(stats):
            time.sleep(0.01)
        assert stats.elapsed_seconds >= 0.01
        with Timer(stats):
            pass
        assert stats.elapsed_seconds >= 0.01  # accumulates

    def test_merge_parallel_tasks(self):
        a = RunStats()
        a.parallel_tasks = 2
        b = RunStats()
        b.parallel_tasks = 5
        a.merge(b)
        assert a.parallel_tasks == 7  # additive, like the other counters

    def test_counters_snapshot(self):
        stats = RunStats(k=4)
        stats.flow_tests = 3
        stats.partitions = 2
        stats.phase1_pruned[PRUNE_NS1] = 9
        # Execution artifacts must not leak into the deterministic view.
        stats.elapsed_seconds = 1.23
        stats.peak_resident_vertices = 50
        stats.parallel_tasks = 4
        counters = stats.counters()
        assert counters["k"] == 4
        assert counters["flow_tests"] == 3
        assert counters["partitions"] == 2
        assert counters[f"phase1_pruned.{PRUNE_NS1}"] == 9
        assert "elapsed_seconds" not in counters
        assert "peak_resident_vertices" not in counters
        assert "parallel_tasks" not in counters

    def test_counters_equal_iff_same_run_shape(self):
        a, b = RunStats(k=3), RunStats(k=3)
        a.flow_tests = b.flow_tests = 5
        assert a.counters() == b.counters()
        b.partitions = 1
        assert a.counters() != b.counters()


class TestKVCCOptions:
    def test_default_is_fully_optimized(self):
        opts = KVCCOptions()
        assert opts.neighbor_sweep and opts.group_sweep
        assert opts.use_certificate
        assert opts.side_vertices_enabled

    def test_side_vertices_enabled_logic(self):
        assert not KVCCOptions(
            neighbor_sweep=False, group_sweep=False
        ).side_vertices_enabled
        assert KVCCOptions(
            neighbor_sweep=True, group_sweep=False
        ).side_vertices_enabled
        assert KVCCOptions(
            neighbor_sweep=False, group_sweep=True
        ).side_vertices_enabled

    def test_describe(self):
        assert KVCCOptions().describe() == "NS+GS"
        assert (
            KVCCOptions(neighbor_sweep=False, group_sweep=False).describe()
            == "basic"
        )
        assert "nocert" in KVCCOptions(use_certificate=False).describe()

    def test_describe_engine_fields(self):
        assert KVCCOptions().describe() == "NS+GS"  # serial is unmarked
        assert KVCCOptions(workers=4).describe() == "NS+GS+pool4"
        assert KVCCOptions(workers=0).describe() == "NS+GS+pool-auto"
        assert (
            KVCCOptions(use_certificate=False, workers=2).describe()
            == "NS+GS+nocert+pool2"
        )

    def test_engine_property(self):
        assert KVCCOptions().engine == "serial"
        assert KVCCOptions(workers=1).engine == "serial"
        assert KVCCOptions(workers=2).engine == "process"
        assert KVCCOptions(workers=0).engine == "process"

    def test_frozen(self):
        with pytest.raises(Exception):
            KVCCOptions().neighbor_sweep = False  # type: ignore[misc]

    def test_dict_round_trip_default(self):
        opts = KVCCOptions()
        assert KVCCOptions.from_dict(opts.to_dict()) == opts

    def test_dict_round_trip_all_fields_changed(self):
        opts = KVCCOptions(
            use_certificate=False,
            neighbor_sweep=False,
            group_sweep=False,
            farthest_first=False,
            source_strong_side_vertex=False,
            maintain_side_vertices=False,
            seed=7,
            tarjan_k2=True,
            workers=8,
        )
        data = opts.to_dict()
        assert len(data) == 9 and data["workers"] == 8
        assert KVCCOptions.from_dict(data) == opts

    def test_from_dict_partial_keeps_defaults(self):
        opts = KVCCOptions.from_dict({"workers": 3})
        assert opts.workers == 3
        assert opts.use_certificate and opts.neighbor_sweep

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            KVCCOptions.from_dict({"wrokers": 2})
        # The graph representation is no longer a choice.
        with pytest.raises(ValueError, match="backend"):
            KVCCOptions.from_dict({"backend": "csr"})

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            KVCCOptions(workers=-1)
        with pytest.raises(ValueError, match="workers"):
            KVCCOptions.from_dict({"workers": -3})

    def test_round_trip_preserves_describe(self):
        for opts in (
            KVCCOptions(),
            KVCCOptions(workers=4),
            KVCCOptions(use_certificate=False, workers=0),
        ):
            clone = KVCCOptions.from_dict(opts.to_dict())
            assert clone.describe() == opts.describe()
            assert clone.engine == opts.engine


class TestVariantPresets:
    def test_four_variants(self):
        assert set(VARIANTS) == {"VCCE", "VCCE-N", "VCCE-G", "VCCE*"}

    def test_vcce_is_basic(self):
        opts = VARIANTS["VCCE"]
        assert not opts.neighbor_sweep
        assert not opts.group_sweep
        assert opts.use_certificate  # the basic algorithm keeps the cert

    def test_vcce_n(self):
        opts = VARIANTS["VCCE-N"]
        assert opts.neighbor_sweep and not opts.group_sweep

    def test_vcce_g(self):
        opts = VARIANTS["VCCE-G"]
        assert opts.group_sweep and not opts.neighbor_sweep

    def test_vcce_star(self):
        opts = VARIANTS["VCCE*"]
        assert opts.neighbor_sweep and opts.group_sweep
