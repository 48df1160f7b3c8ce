"""Tests for RunStats, Timer and KVCCOptions."""

import time

import pytest

from repro.core.hierarchy import build_hierarchy_csr
from repro.core.kvcc import enumerate_kvccs
from repro.core.options import KVCCOptions
from repro.core.stats import (
    PRUNE_GS,
    PRUNE_NS1,
    PRUNE_NS2,
    STAGES,
    RunStats,
    Timer,
)
from repro.core.variants import VARIANTS
from repro.graph.generators import planted_kvcc_graph


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

    def test_counters_snapshot(self):
        stats = RunStats(k=4)
        stats.flow_tests = 3
        stats.partitions = 2
        stats.phase1_pruned[PRUNE_NS1] = 9
        # Execution artifacts must not leak into the deterministic view.
        stats.elapsed_seconds = 1.23
        stats.peak_resident_vertices = 50
        stats.peak_rss_bytes = 4096
        counters = stats.counters()
        assert counters["k"] == 4
        assert counters["flow_tests"] == 3
        assert counters["partitions"] == 2
        assert counters[f"phase1_pruned.{PRUNE_NS1}"] == 9
        assert "elapsed_seconds" not in counters
        assert "peak_resident_vertices" not in counters
        assert "peak_rss_bytes" not in counters

    def test_counters_equal_iff_same_run_shape(self):
        a, b = RunStats(k=3), RunStats(k=3)
        a.flow_tests = b.flow_tests = 5
        assert a.counters() == b.counters()
        b.partitions = 1
        assert a.counters() != b.counters()


class TestStageAttribution:
    """Under the serial engine the stage rows sum to the wall time."""

    @staticmethod
    def assert_rows_sum_to_elapsed(stats):
        rows = stats.stage_seconds
        assert set(rows) <= set(STAGES)
        assert {"peel", "certificate", "partition", "other"} <= set(rows)
        for stage, seconds in rows.items():
            assert seconds >= 0.0, (stage, seconds)
        assert sum(rows.values()) == pytest.approx(
            stats.elapsed_seconds, rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("options", [
        KVCCOptions(),
        KVCCOptions(maintain_side_vertices=False),
        VARIANTS["VCCE"],
    ], ids=["default", "no-inheritance", "VCCE"])
    def test_enumerate_rows_sum_to_elapsed(self, options):
        g, _ = planted_kvcc_graph(
            k=4, num_blocks=4, block_size=7, overlap=2, seed=7
        )
        stats = RunStats(k=4)
        enumerate_kvccs(g, 4, options, stats)
        assert stats.partitions > 0
        self.assert_rows_sum_to_elapsed(stats)

    def test_rows_sum_across_hierarchy_levels(self):
        """One stats sink over many ``run_many`` calls keeps the sum."""
        g, _ = planted_kvcc_graph(
            k=4, num_blocks=4, block_size=7, overlap=2, seed=7
        )
        stats = RunStats()
        build_hierarchy_csr(g.to_csr(), stats=stats)
        assert stats.partitions > 0
        self.assert_rows_sum_to_elapsed(stats)


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
        )
        data = opts.to_dict()
        assert len(data) == 7 and data["seed"] == 7
        assert KVCCOptions.from_dict(data) == opts

    def test_from_dict_partial_keeps_defaults(self):
        opts = KVCCOptions.from_dict({"seed": 3})
        assert opts.seed == 3
        assert opts.use_certificate and opts.neighbor_sweep

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            KVCCOptions.from_dict({"sede": 2})
        # The graph representation is no longer a choice.
        with pytest.raises(ValueError, match="backend"):
            KVCCOptions.from_dict({"backend": "csr"})

    def test_round_trip_preserves_describe(self):
        for opts in (
            KVCCOptions(),
            KVCCOptions(neighbor_sweep=False, group_sweep=False),
            KVCCOptions(use_certificate=False, seed=4),
        ):
            clone = KVCCOptions.from_dict(opts.to_dict())
            assert clone.describe() == opts.describe()
            assert clone == opts


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
