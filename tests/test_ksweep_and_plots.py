"""Tests for the multi-k sweep API and the ASCII chart renderer."""

import pytest

from repro.baselines.naive import naive_kvccs
from repro.core.ksweep import enumerate_kvccs_sweep
from repro.core.kvcc import kvcc_vertex_sets
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.experiments.plots import ascii_chart, chart_from_rows
from repro.graph.generators import (
    complete_graph,
    gnp_random_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph

from helpers import vertex_set_family


class TestKSweep:
    def test_empty_ks(self, triangle):
        assert enumerate_kvccs_sweep(triangle, []) == {}

    def test_invalid_k(self, triangle):
        with pytest.raises(ValueError):
            enumerate_kvccs_sweep(triangle, [0, 2])

    def test_duplicates_collapsed(self):
        g = complete_graph(5)
        out = enumerate_kvccs_sweep(g, [2, 2, 3])
        assert set(out) == {2, 3}

    def test_matches_flat_enumeration(self):
        for seed in range(10):
            g = gnp_random_graph(14, 0.35 + (seed % 3) * 0.1, seed=seed * 7)
            sweep = enumerate_kvccs_sweep(g, [2, 3, 4])
            for k in (2, 3, 4):
                assert vertex_set_family(sweep[k]) == vertex_set_family(
                    kvcc_vertex_sets(g, k)
                ), (seed, k)

    def test_skipping_levels(self):
        g = ring_of_cliques(4, 6)
        sweep = enumerate_kvccs_sweep(g, [2, 5])
        assert vertex_set_family(sweep[5]) == vertex_set_family(
            kvcc_vertex_sets(g, 5)
        )

    def test_unsorted_input(self):
        g = ring_of_cliques(3, 5)
        a = enumerate_kvccs_sweep(g, [4, 2, 3])
        b = enumerate_kvccs_sweep(g, [2, 3, 4])
        assert {
            k: vertex_set_family(v) for k, v in a.items()
        } == {k: vertex_set_family(v) for k, v in b.items()}

    def test_exhausted_levels_empty(self):
        g = complete_graph(4)  # 3-connected
        sweep = enumerate_kvccs_sweep(g, [2, 3, 4, 5])
        assert sweep[3] == [set(range(4))]
        assert sweep[4] == []
        assert sweep[5] == []

    def test_matches_naive_oracle(self):
        """Every level of the sweep equals the brute-force oracle."""
        for seed in range(6):
            g = gnp_random_graph(14, 0.4, seed=seed * 9 + 4)
            sweep = enumerate_kvccs_sweep(g, [1, 2, 3, 4])
            assert set(sweep) == {1, 2, 3, 4}
            for k in sweep:
                assert vertex_set_family(sweep[k]) == vertex_set_family(
                    naive_kvccs(g, k)
                ), (seed, k)

    def test_empty_ks_all_backends(self):
        """No level means no work, with default or explicit options."""
        g = complete_graph(4)
        for options in (None, KVCCOptions(use_certificate=False)):
            assert enumerate_kvccs_sweep(g, [], options=options) == {}
            assert enumerate_kvccs_sweep(g, iter(()), options=options) == {}

    def test_disconnected_k1(self):
        g = Graph([(0, 1), (2, 3), (3, 4), (4, 2)], vertices=[9])
        sweep = enumerate_kvccs_sweep(g, [1, 2])
        assert vertex_set_family(sweep[1]) == vertex_set_family(
            [{0, 1}, {2, 3, 4}]
        )
        assert vertex_set_family(sweep[2]) == vertex_set_family([{2, 3, 4}])

    def test_stats_accumulate_across_levels(self):
        g = ring_of_cliques(3, 5)
        stats = RunStats()
        sweep = enumerate_kvccs_sweep(g, [2, 3], stats=stats)
        assert stats.kvccs_found == len(sweep[2]) + len(sweep[3])
        assert stats.elapsed_seconds > 0


class TestAsciiChart:
    def test_empty(self):
        assert "(no data)" in ascii_chart({}, title="t")

    def test_dimensions(self):
        out = ascii_chart(
            {"a": [(0, 1.0), (1, 2.0)]}, width=20, height=5
        )
        lines = out.splitlines()
        # 5 grid rows + axis + labels.
        assert len(lines) == 7

    def test_title(self):
        out = ascii_chart({"a": [(0, 1)]}, title="Figure X")
        assert out.splitlines()[0] == "Figure X"

    def test_series_symbols_in_legend(self):
        out = ascii_chart({"VCCE": [(0, 1)], "VCCE*": [(0, 2)]})
        assert "*=VCCE" in out
        assert "o=VCCE*" in out

    def test_log_scale_handles_zero(self):
        out = ascii_chart({"a": [(0, 0.0), (1, 10.0)]}, log_y=True)
        assert "10" in out  # max label rendered

    def test_extremes_on_first_and_last_rows(self):
        out = ascii_chart(
            {"a": [(0, 1.0), (1, 9.0)]}, width=10, height=4
        )
        lines = out.splitlines()
        assert "9" in lines[0]
        assert "1" in lines[3]

    def test_collision_marker(self):
        # Two series on the same cell render '#'.
        out = ascii_chart(
            {"a": [(0, 1.0)], "b": [(0, 1.0)]}, width=5, height=3
        )
        assert "#" in out

    def test_chart_from_rows(self):
        class Row:
            def __init__(self, k, seconds, variant):
                self.k = k
                self.seconds = seconds
                self.variant = variant

        rows = [Row(2, 1.0, "VCCE"), Row(3, 0.5, "VCCE"),
                Row(2, 0.2, "VCCE*"), Row(3, 0.1, "VCCE*")]
        out = chart_from_rows(
            rows, "k", "seconds", "variant", width=20, height=5
        )
        assert "VCCE*" in out

    def test_flat_series(self):
        out = ascii_chart({"a": [(0, 5.0), (1, 5.0)]}, height=4)
        assert "5" in out
