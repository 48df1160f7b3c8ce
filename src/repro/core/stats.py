"""Instrumentation for the efficiency experiments.

Table 2 reports, per dataset, which fraction of the phase-1 vertices was
pruned by neighbor sweep rule 1 (strong side-vertex), neighbor sweep rule
2 (vertex deposit), group sweep, or not pruned at all; Figures 10-12
report wall-clock time, k-VCC counts and memory.  :class:`RunStats`
accumulates all of it in one place so the experiment drivers stay thin.

The counters deliberately live outside the algorithm's hot loops' inner
bodies where possible; the enumeration code updates them at the same
program points the paper instruments (Section 6.2, "Testing the
Effectiveness of Sweep Rules").
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

#: Attribution labels for why a phase-1 vertex was skipped.
PRUNE_NS1 = "ns1"  # neighbor sweep rule 1 (strong side-vertex)
PRUNE_NS2 = "ns2"  # neighbor sweep rule 2 (vertex deposit)
PRUNE_GS = "gs"  # group sweep (rules 1 and 2)
PRUNE_SOURCE = "source"  # the source vertex itself
TESTED = "tested"  # reached LOC-CUT

#: The :attr:`RunStats.stage_seconds` rows, in pipeline order:
#: k-core peeling; the strong side-vertex scan (Theorem 8); the sparse
#: certificate; side-group extraction from ``F_k``; the flow-network
#: build; LOC-CUT max-flow tests; overlap partition plus the component
#: split, ``restrict`` and side-vertex inheritance of its parts; and
#: ``other``, the serial engine's remainder.
STAGES = (
    "peel",
    "side_vertex",
    "certificate",
    "side_groups",
    "flow_build",
    "flow",
    "partition",
    "other",
)


@dataclass
class RunStats:
    """Counters collected over one ``enumerate_kvccs`` run."""

    k: int = 0
    #: LOC-CUT invocations that actually ran max-flow (non-trivial tests).
    flow_tests: int = 0
    #: Phase-1 vertices that reached LOC-CUT (Table 2 "Non-Pru").
    phase1_tested: int = 0
    #: Phase-1 vertices skipped per rule (Table 2 "NS 1" / "NS 2" / "GS").
    phase1_pruned: Dict[str, int] = field(
        default_factory=lambda: {PRUNE_NS1: 0, PRUNE_NS2: 0, PRUNE_GS: 0}
    )
    #: Pair tests performed / skipped in phase 2 (GS rule 3).
    phase2_tested: int = 0
    phase2_skipped_group: int = 0
    #: Structural counters.
    global_cut_calls: int = 0
    partitions: int = 0
    kvccs_found: int = 0
    kcore_removed_vertices: int = 0
    certificate_edges_kept: int = 0
    certificate_edges_input: int = 0
    #: Peak number of vertices resident across the work stack, a
    #: machine-independent memory proxy (Figure 12 additionally measures
    #: tracemalloc peaks in the experiment driver).  Under the parallel
    #: engine this counts pending plus in-flight items, which can exceed
    #: the serial stack's depth-first peak.
    peak_resident_vertices: int = 0
    #: Worklist items executed by pool workers (0 under the serial
    #: engine; the parallel engine records one per dispatched task).
    parallel_tasks: int = 0
    #: High-water RSS growth over the run, in bytes: the
    #: ``ru_maxrss`` delta an :class:`RssTracker` observed.  Unlike the
    #: tracemalloc peak the memory experiment also records, this sees
    #: mmap page faults and C-level allocations.  0 when the run fit
    #: under the process's previous high-water mark or the platform has
    #: no ``resource`` module.  An execution artifact like
    #: :attr:`elapsed_seconds` - never part of the equivalence counters.
    peak_rss_bytes: int = 0
    elapsed_seconds: float = 0.0
    #: Wall-clock seconds per pipeline stage, accumulated at the call
    #: sites of the corresponding steps (see :data:`STAGES`).  Under the
    #: serial engine every run adds the wall time no other row covers
    #: to ``other``, so the rows sum to :attr:`elapsed_seconds`.  Under
    #: the process-pool engine the rows are *summed worker time*, which
    #: can exceed the wall time, and there is no ``other`` row.
    #: Execution artifacts like :attr:`elapsed_seconds` - they feed the
    #: benchmark reports, never the equivalence comparisons.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    #: Counters that are deterministic properties of (graph, k, options)
    #: and therefore identical across execution engines and worker
    #: counts.  ``peak_resident_vertices``, ``parallel_tasks`` and
    #: ``elapsed_seconds`` are execution artifacts and excluded.
    DETERMINISTIC_COUNTERS = (
        "k",
        "flow_tests",
        "phase1_tested",
        "phase2_tested",
        "phase2_skipped_group",
        "global_cut_calls",
        "partitions",
        "kvccs_found",
        "kcore_removed_vertices",
        "certificate_edges_kept",
        "certificate_edges_input",
    )

    # ------------------------------------------------------------------
    def add_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock ``seconds`` into one pipeline stage."""
        self.stage_seconds[stage] = (
            self.stage_seconds.get(stage, 0.0) + seconds
        )

    def record_prune(self, reason: str) -> None:
        """Tally a phase-1 vertex skipped for ``reason``."""
        if reason in self.phase1_pruned:
            self.phase1_pruned[reason] += 1

    def phase1_total(self) -> int:
        """All phase-1 loop vertices that were classified (pruned or tested)."""
        return self.phase1_tested + sum(self.phase1_pruned.values())

    def prune_proportions(self) -> Dict[str, float]:
        """Table 2's row: fraction per rule plus ``non_pruned``.

        Returns zeros when no phase-1 vertex was processed (e.g. the
        whole graph died in k-core peeling).
        """
        total = self.phase1_total()
        if total == 0:
            return {PRUNE_NS1: 0.0, PRUNE_NS2: 0.0, PRUNE_GS: 0.0, "non_pruned": 0.0}
        out = {
            rule: count / total for rule, count in self.phase1_pruned.items()
        }
        out["non_pruned"] = self.phase1_tested / total
        return out

    def counters(self) -> Dict[str, int]:
        """The deterministic counters as a flat dict.

        This is the comparison form the serial/parallel equivalence
        suite asserts on: every entry must be identical for the same
        (graph, k, options) no matter which engine or worker count ran
        the enumeration.
        """
        out = {name: getattr(self, name) for name in self.DETERMINISTIC_COUNTERS}
        for rule in sorted(self.phase1_pruned):
            out[f"phase1_pruned.{rule}"] = self.phase1_pruned[rule]
        return out

    def merge(self, other: "RunStats") -> None:
        """Accumulate another run's counters into this one.

        Additive counters sum and ``peak_resident_vertices`` takes the
        max, so the operation serves both the k-sweep drivers (merging
        whole runs) and the parallel engine (merging per-task deltas).
        """
        self.flow_tests += other.flow_tests
        self.phase1_tested += other.phase1_tested
        for rule, count in other.phase1_pruned.items():
            self.phase1_pruned[rule] = self.phase1_pruned.get(rule, 0) + count
        self.phase2_tested += other.phase2_tested
        self.phase2_skipped_group += other.phase2_skipped_group
        self.global_cut_calls += other.global_cut_calls
        self.partitions += other.partitions
        self.kvccs_found += other.kvccs_found
        self.kcore_removed_vertices += other.kcore_removed_vertices
        self.certificate_edges_kept += other.certificate_edges_kept
        self.certificate_edges_input += other.certificate_edges_input
        self.peak_resident_vertices = max(
            self.peak_resident_vertices, other.peak_resident_vertices
        )
        self.peak_rss_bytes = max(self.peak_rss_bytes, other.peak_rss_bytes)
        self.parallel_tasks += other.parallel_tasks
        self.elapsed_seconds += other.elapsed_seconds
        for stage, seconds in other.stage_seconds.items():
            self.add_stage(stage, seconds)


class Timer:
    """Context manager recording wall-clock time into ``stats.elapsed_seconds``."""

    def __init__(self, stats: RunStats) -> None:
        self._stats = stats
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._stats.elapsed_seconds += time.perf_counter() - self._start


def max_rss_bytes() -> int:
    """Process-lifetime peak resident set size, in bytes (0 if unknown).

    ``getrusage`` reports ``ru_maxrss`` in kilobytes on Linux and bytes
    on macOS; normalized here so callers never see the platform quirk.
    """
    if _resource is None:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-dependent
        return int(peak)
    return int(peak) * 1024


class RssTracker:
    """Context manager recording RSS growth into ``stats.peak_rss_bytes``.

    Measures the ``ru_maxrss`` delta across the block.  Because
    ``ru_maxrss`` is a lifetime high-water mark, the delta is 0 when the
    block stayed under a peak the process already reached - precise
    gating therefore measures in a fresh subprocess (what
    ``benchmarks/bench_outofcore.py`` does); in-process the delta is
    still a faithful *lower bound* on the block's footprint.
    """

    def __init__(self, stats: RunStats) -> None:
        self._stats = stats
        self._base = 0

    def __enter__(self) -> "RssTracker":
        self._base = max_rss_bytes()
        return self

    def __exit__(self, *exc) -> None:
        delta = max(0, max_rss_bytes() - self._base)
        self._stats.peak_rss_bytes = max(
            self._stats.peak_rss_bytes, delta
        )
