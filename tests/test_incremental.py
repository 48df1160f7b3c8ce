"""Delta-vs-rebuild equivalence for incremental index maintenance.

The dynamic-update path (:mod:`repro.index.delta`) must be *invisible*
to queries: after any stream of edge mutations, a delta-maintained
index has to answer every serving-API request with the exact bytes a
from-scratch rebuild of the mutated graph would produce.  The harness
here enforces that three ways:

* **property-based** - hypothesis-generated graphs and mutation
  streams (inserts, deletes, component merges and splits, vertices
  entering and leaving every level), byte-comparing all four query
  endpoints after every batch, plus the disk-replay invariant:
  ``load_effective_index`` (base + delta log) reproduces the updater's
  in-memory index exactly;
* **deterministic structure** - targeted merge/split/level-entry
  scenarios where the expected hierarchy change is known;
* **crash safety** - torn delta-log tails (truncation, checksum
  corruption) are ignored back to the last good record, a recycled log
  against a rebuilt base is ignored wholesale, and the serving
  registry keeps answering through all of it - while *observing* log
  growth for hot reload (the regression fixed in this PR: the reload
  signature used to stat only the base file).
"""

from __future__ import annotations

import json
import os
import random
import struct
import tempfile
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.format import MAGIC as KVCCG_MAGIC, load_csr, save_csr
from repro.datasets import apply_mutations, mutation_stream
from repro.graph.generators import ring_of_cliques
from repro.graph.graph import Graph
from repro.index import (
    HierarchyQueryService,
    IndexUpdater,
    build_index,
    delta_log_path,
    load_effective_index,
)
from repro.index.delta import _HEADER_LEN, _file_digest, read_delta_log
from repro.service import IndexRegistry, MutationManager, handle_mutation
from repro.service.handlers import QUERY_ENDPOINTS, render_json

from helpers import random_connected_graph


# ----------------------------------------------------------------------
# The equivalence oracle
# ----------------------------------------------------------------------
def api_answer_bytes(index) -> list:
    """Every endpoint's rendered wire bytes over a full query sweep.

    The sweep covers all vertices for ``vcc-number`` (batch form) and
    ``components-of`` (every level up to ``max_k + 1``, including the
    above-the-top level that must answer empty), and a deterministic
    pair sample for ``same-kvcc`` / ``max-shared-level``.  Tokens are
    string spellings, exactly as HTTP query parameters arrive.
    """
    service = HierarchyQueryService(index)
    tokens = sorted(str(label) for label in index.labels)
    answers = [
        render_json(
            QUERY_ENDPOINTS["vcc-number"](service, {"v": tokens})
        )
    ]
    for k in range(1, index.max_k + 2):
        for token in tokens:
            answers.append(
                render_json(
                    QUERY_ENDPOINTS["components-of"](
                        service, {"v": [token], "k": [str(k)]}
                    )
                )
            )
    pairs = [
        f"{tokens[i]}:{tokens[(i * 7 + 3) % len(tokens)]}"
        for i in range(min(len(tokens), 24))
    ]
    answers.append(
        render_json(
            QUERY_ENDPOINTS["same-kvcc"](
                service, {"pair": pairs, "k": ["2"]}
            )
        )
    )
    answers.append(
        render_json(
            QUERY_ENDPOINTS["max-shared-level"](service, {"pair": pairs})
        )
    )
    return answers


def assert_equivalent(updater: IndexUpdater, mirror: Graph) -> None:
    """The updater answers byte-identically to a fresh rebuild, and its
    on-disk state (base + delta log) replays to the same index."""
    rebuilt = build_index(mirror)
    assert updater.index.max_k == rebuilt.max_k
    assert api_answer_bytes(updater.index) == api_answer_bytes(rebuilt)
    assert load_effective_index(updater.path) == updater.index


def fresh_updater(tmp_path, graph: Graph, name="g.kvccidx") -> IndexUpdater:
    path = os.path.join(str(tmp_path), name)
    build_index(graph).save_atomic(path)
    return IndexUpdater(path, graph=graph)


def disjoint_union(parts) -> Tuple[Graph, List[List[int]]]:
    """The graphs in ``parts`` relabeled side by side, with each one's
    vertex list (part ``i`` occupies ``[offset, offset + n_i)``)."""
    merged = Graph()
    tenants = []
    offset = 0
    for part in parts:
        for u, v in part.edges():
            merged.add_edge(u + offset, v + offset)
        size = max(part.vertices()) + 1
        tenants.append(list(range(offset, offset + size)))
        offset += size
    return merged, tenants


# ----------------------------------------------------------------------
# Property-based harness
# ----------------------------------------------------------------------
class TestPropertyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=12),
        p=st.floats(min_value=0.2, max_value=0.7),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_stream_matches_rebuild(self, n, p, seed):
        """Random graphs under random mixed batches, checked per batch."""
        graph = random_connected_graph(n, p, seed)
        with tempfile.TemporaryDirectory() as workdir:
            updater = fresh_updater(workdir, graph, f"h{seed}.kvccidx")
            mirror = graph.copy()
            rng = random.Random(seed)
            for _ in range(3):
                batch = []
                for _ in range(3):
                    vertices = sorted(mirror.vertices())
                    edges = sorted(
                        tuple(sorted(edge)) for edge in mirror.edges()
                    )
                    if rng.random() < 0.5 and edges:
                        u, v = edges[rng.randrange(len(edges))]
                        batch.append({"op": "delete", "u": u, "v": v})
                    else:
                        u, v = rng.sample(vertices, 2)
                        if mirror.has_edge(u, v):
                            continue
                        batch.append({"op": "insert", "u": u, "v": v})
                apply_mutations(mirror, batch)
                updater.apply(batch)
                assert_equivalent(updater, mirror)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_stream_with_new_vertices(self, seed):
        """mutation_stream batches, including brand-new vertices."""
        graph = ring_of_cliques(3, 5)
        with tempfile.TemporaryDirectory() as workdir:
            updater = fresh_updater(workdir, graph, f"s{seed}.kvccidx")
            mirror = graph.copy()
            for batch in mutation_stream(
                graph,
                batches=3,
                batch_edges=4,
                new_vertex_fraction=0.3,
                seed=seed,
            ):
                apply_mutations(mirror, batch)
                updater.apply(batch)
                assert_equivalent(updater, mirror)

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=4, max_value=9), min_size=2, max_size=4
        ),
        p=st.floats(min_value=0.3, max_value=0.8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_disjoint_tenants_match_rebuild(self, sizes, p, seed):
        """Disjoint tenants, so a batch's region is a strict subset of
        the graph: batches mostly stay inside one tenant, with some
        deletes and an occasional insert across two tenants."""
        graph, tenants = disjoint_union(
            random_connected_graph(n, p, seed + i)
            for i, n in enumerate(sizes)
        )
        with tempfile.TemporaryDirectory() as workdir:
            updater = fresh_updater(workdir, graph, f"t{seed}.kvccidx")
            mirror = graph.copy()
            rng = random.Random(seed)
            for _ in range(4):
                home = tenants[rng.randrange(len(tenants))]
                batch = []
                for _ in range(3):
                    roll = rng.random()
                    if roll < 0.15:
                        other = rng.choice([t for t in tenants if t is not home])
                        u, v = rng.choice(home), rng.choice(other)
                    elif roll < 0.6:
                        u, v = rng.sample(home, 2)
                    else:
                        inside = sorted(
                            tuple(sorted(edge))
                            for edge in mirror.edges()
                            if edge[0] in home and edge[1] in home
                        )
                        if not inside:
                            continue
                        u, v = inside[rng.randrange(len(inside))]
                        batch.append({"op": "delete", "u": u, "v": v})
                        continue
                    if not mirror.has_edge(u, v):
                        batch.append({"op": "insert", "u": u, "v": v})
                apply_mutations(mirror, batch)
                summary = updater.apply(batch)
                assert_equivalent(updater, mirror)
                assert summary["max_k"] == updater.index.max_k


class _UntouchableRow(set):
    """An adjacency row that fails the test if it is walked or sized."""

    def __iter__(self):
        raise AssertionError("an untouched tenant's row was iterated")

    def __len__(self):
        raise AssertionError("an untouched tenant's row was sized")


class TestRegionScopedRecompute:
    def test_batch_reads_only_its_own_tenant(self, tmp_path):
        """A batch inside one tenant never walks another tenant's rows,
        so its cost does not grow with the rest of the graph."""
        graph, (home, idle) = disjoint_union(
            [ring_of_cliques(3, 5), ring_of_cliques(3, 5)]
        )
        updater = fresh_updater(tmp_path, graph)
        mirror = graph.copy()
        saved = {}
        for label in idle:
            vid = updater._ids[label]
            saved[vid] = updater._adj[vid]
            updater._adj[vid] = _UntouchableRow(saved[vid])
        batch = [
            {"op": "insert", "u": home[0], "v": home[7]},
            {"op": "delete", "u": home[5], "v": home[6]},
        ]
        apply_mutations(mirror, batch)
        summary = updater.apply(batch)
        for vid, row in saved.items():
            updater._adj[vid] = row
        assert summary["applied"] == 2
        assert_equivalent(updater, mirror)

    @pytest.mark.parametrize(
        "region",
        [[], [0], [14], [0, 1, 2], [3, 9, 14], list(range(15))],
        ids=["empty", "first", "last", "prefix", "gaps", "all"],
    )
    def test_region_base_rows(self, tmp_path, region):
        """The batch base holds each region vertex's whole row, in id
        order, and an empty row for every other vertex."""
        updater = fresh_updater(tmp_path, ring_of_cliques(3, 5))
        base = updater._build_csr(region)
        assert base.n == 15 and len(base.indptr) == 16
        for v in range(base.n):
            row = list(base.indices[base.indptr[v] : base.indptr[v + 1]])
            if v in region:
                assert row == sorted(updater._adj[v])
                assert base.rows[v] == row
            else:
                assert row == []
                assert base.rows[v] is None


# ----------------------------------------------------------------------
# Deterministic structure changes
# ----------------------------------------------------------------------
class TestStructuredMutations:
    def test_component_merge_across_levels(self, tmp_path):
        """Two disjoint cliques fuse into one component at every level."""
        graph = Graph()
        for offset in (0, 10):
            for u in range(4):
                for v in range(u + 1, 4):
                    graph.add_edge(offset + u, offset + v)
        updater = fresh_updater(tmp_path, graph)
        mirror = graph.copy()
        assert len(updater.index.nodes_at(1)) == 2
        # Fully cross-wire the cliques: one 3-VCC swallows both.
        batch = [
            {"op": "insert", "u": u, "v": 10 + v}
            for u in range(4)
            for v in range(4)
        ]
        apply_mutations(mirror, batch)
        summary = updater.apply(batch)
        assert_equivalent(updater, mirror)
        assert len(updater.index.nodes_at(1)) == 1
        assert summary["nodes_removed"] > 0

    def test_component_split_and_vertex_leaving(self, tmp_path):
        """Deleting a clique's edges splits it out and demotes members."""
        graph = ring_of_cliques(2, 5)
        updater = fresh_updater(tmp_path, graph)
        mirror = graph.copy()
        victim = sorted(updater.index.members(updater.index.nodes_at(2)[0]))
        # Drop vertex 0's clique edges one batch at a time: it leaves
        # level 4, then 3, then 2, finally sits alone at level 1.
        neighbors = sorted(mirror.neighbors(0))
        for v in neighbors:
            batch = [{"op": "delete", "u": 0, "v": v}]
            apply_mutations(mirror, batch)
            updater.apply(batch)
            assert_equivalent(updater, mirror)
        assert updater.index.vcc_number_of(0) == 0
        assert victim  # the level-2 component existed before the split

    def test_new_vertex_climbs_all_levels(self, tmp_path):
        """A new vertex joins level 1, then rises as edges attach."""
        graph = ring_of_cliques(2, 5)
        updater = fresh_updater(tmp_path, graph)
        mirror = graph.copy()
        for v in range(4):
            batch = [{"op": "insert", "u": "newbie", "v": v}]
            apply_mutations(mirror, batch)
            updater.apply(batch)
            assert_equivalent(updater, mirror)
        assert updater.index.vcc_number_of("newbie") == 4

    def test_noop_batches_and_bad_ops(self, tmp_path):
        graph = ring_of_cliques(2, 4)
        updater = fresh_updater(tmp_path, graph)
        before = updater.index
        summary = updater.apply(
            [
                {"op": "insert", "u": 0, "v": 1},   # already present
                {"op": "delete", "u": 0, "v": 99},  # unknown endpoint
                {"op": "delete", "u": 2, "v": 6},   # absent edge
            ]
        )
        assert summary["applied"] == 0
        assert summary["skipped"] == 3
        assert updater.index == before
        # Nothing was appended for a no-op batch (the log is lazy: it
        # does not even exist until a batch actually applies).
        assert not os.path.exists(delta_log_path(updater.path))
        with pytest.raises(ValueError, match="self loop"):
            updater.apply([{"op": "insert", "u": "x", "v": "x"}])
        with pytest.raises(ValueError, match="unknown mutation op"):
            updater.apply([{"op": "upsert", "u": 0, "v": 1}])

    def test_rejected_batch_is_all_or_nothing(self, tmp_path):
        """A batch that fails validation mid-way changes nothing.

        Regression: valid leading entries used to land in the live
        adjacency (and a self-loop endpoint used to be interned as a
        phantom vertex) before the ValueError fired, leaving in-memory
        state diverged from the delta log - and the phantom label
        shifted every subsequently-logged label id.
        """
        graph = ring_of_cliques(2, 4)
        updater = fresh_updater(tmp_path, graph)
        before = updater.index
        vertices_before = updater.num_vertices
        edges_before = updater.num_edges
        # A valid insert riding ahead of a self loop...
        with pytest.raises(ValueError, match="self loop"):
            updater.apply(
                [
                    {"op": "insert", "u": 0, "v": 5},
                    {"op": "insert", "u": 9, "v": 9},
                ]
            )
        # ...and ahead of an unknown op, including a brand-new vertex.
        with pytest.raises(ValueError, match="unknown mutation op"):
            updater.apply(
                [
                    {"op": "insert", "u": "fresh", "v": 0},
                    {"op": "frobnicate", "u": 0, "v": 1},
                ]
            )
        assert updater.index == before
        assert updater.num_vertices == vertices_before
        assert updater.num_edges == edges_before
        assert not os.path.exists(delta_log_path(updater.path))
        # The untouched updater still tracks a rebuild from here on,
        # and its new-label ids were not shifted by any phantom intern.
        mirror = graph.copy()
        batch = [
            {"op": "insert", "u": "fresh", "v": 0},
            {"op": "insert", "u": "fresh", "v": 1},
        ]
        apply_mutations(mirror, batch)
        updater.apply(batch)
        assert_equivalent(updater, mirror)

    def test_compact_folds_log_and_reopens(self, tmp_path):
        graph = ring_of_cliques(2, 5)
        updater = fresh_updater(tmp_path, graph)
        mirror = graph.copy()
        batch = [{"op": "delete", "u": 0, "v": 1}]
        apply_mutations(mirror, batch)
        updater.apply(batch)
        assert os.path.getsize(delta_log_path(updater.path)) > _HEADER_LEN
        updater.compact()
        # Log restarts with no overlay records (only the graph-binding
        # meta record survives), base carries the folded state.
        records, _ = read_delta_log(
            delta_log_path(updater.path), _file_digest(updater.path)
        )
        assert [r for r in records if not r.get("meta")] == []
        assert_equivalent(updater, mirror)
        # A reopened updater (compacted base + current graph) agrees.
        reopened = IndexUpdater(updater.path, graph=mirror)
        assert reopened.index == updater.index

    def test_compact_rejects_stale_source_graph(self, tmp_path):
        """After compact() the original source graph must be refused.

        The compacted base folds every logged mutation, so the original
        graph's vertices are a subset of its labels and the membership
        check alone would accept it - while the rebuilt adjacency lacks
        every folded edge, silently corrupting future classification.
        The log's graph-binding meta record turns that into a loud
        construction failure.
        """
        graph = ring_of_cliques(2, 5)
        updater = fresh_updater(tmp_path, graph)
        mirror = graph.copy()
        batch = [
            {"op": "delete", "u": 0, "v": 1},
            {"op": "insert", "u": "extra", "v": 0},
        ]
        apply_mutations(mirror, batch)
        updater.apply(batch)
        updater.compact()
        with pytest.raises(ValueError, match="graph mismatch"):
            IndexUpdater(updater.path, graph=graph)
        # The graph actually matching the compacted base still loads.
        reopened = IndexUpdater(updater.path, graph=mirror)
        assert reopened.index == updater.index

    def test_reopen_replays_log_over_base_graph(self, tmp_path):
        """Construction replays logged batches onto the *base* graph."""
        graph = ring_of_cliques(2, 5)
        updater = fresh_updater(tmp_path, graph)
        mirror = graph.copy()
        for batch in mutation_stream(graph, batches=2, batch_edges=3,
                                     seed=5):
            apply_mutations(mirror, batch)
            updater.apply(batch)
        # New process, given only the base graph: log replay restores
        # both the adjacency and the forest.
        reopened = IndexUpdater(updater.path, graph=graph)
        assert reopened.index == updater.index
        follow_up = [{"op": "delete", "u": 0, "v": 2}]
        apply_mutations(mirror, follow_up)
        reopened.apply(follow_up)
        assert_equivalent(reopened, mirror)


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------
def _mutated_updater(tmp_path, batches=2):
    graph = ring_of_cliques(2, 5)
    updater = fresh_updater(tmp_path, graph)
    mirror = graph.copy()
    states = []
    for batch in mutation_stream(graph, batches=batches, batch_edges=2,
                                 seed=9):
        apply_mutations(mirror, batch)
        updater.apply(batch)
        states.append(updater.index)
    return graph, updater, states


class TestCrashSafety:
    def test_truncated_tail_is_ignored(self, tmp_path):
        graph, updater, states = _mutated_updater(tmp_path)
        log = delta_log_path(updater.path)
        with open(log, "rb") as handle:
            blob = handle.read()
        records, _ = read_delta_log(log, updater._digest)
        assert len([r for r in records if not r.get("meta")]) == 2
        # Chop mid-way through the second record: a crashed append.
        with open(log, "wb") as handle:
            handle.write(blob[: len(blob) - 3])
        assert load_effective_index(updater.path) == states[0]
        # A fresh updater truncates the torn tail and carries on.
        recovered = IndexUpdater(updater.path, graph=graph)
        assert recovered.index == states[0]
        records, _ = read_delta_log(log, updater._digest)
        assert len([r for r in records if not r.get("meta")]) == 1

    def test_corrupt_checksum_ends_the_replay(self, tmp_path):
        graph, updater, states = _mutated_updater(tmp_path)
        log = delta_log_path(updater.path)
        with open(log, "rb") as handle:
            blob = handle.read()
        # Flip one byte in the final record's payload.
        corrupted = bytearray(blob)
        corrupted[-1] ^= 0xFF
        with open(log, "wb") as handle:
            handle.write(bytes(corrupted))
        assert load_effective_index(updater.path) == states[0]

    def test_log_for_other_base_is_ignored(self, tmp_path):
        """A log bound to an older base digest never overlays the new
        base - the compaction crash-window guarantee."""
        graph, updater, states = _mutated_updater(tmp_path)
        # Simulate a crash after the compacted base landed but before
        # the log was reset: rewrite the base, keep the stale log.
        updater.index.save_atomic(updater.path)
        assert load_effective_index(updater.path) == states[-1]
        records, _ = read_delta_log(
            delta_log_path(updater.path), _file_digest(updater.path)
        )
        assert records is None  # log bound to the old base's digest

    def test_garbage_log_is_ignored(self, tmp_path):
        graph = ring_of_cliques(2, 4)
        updater = fresh_updater(tmp_path, graph)
        base = updater.index
        with open(delta_log_path(updater.path), "wb") as handle:
            handle.write(b"not a delta log at all")
        assert load_effective_index(updater.path) == base

    def test_server_keeps_answering_through_torn_tail(self, tmp_path):
        graph, updater, states = _mutated_updater(tmp_path)
        registry = IndexRegistry()
        registry.register("g", updater.path)
        assert registry.get("g").index == states[-1]
        log = delta_log_path(updater.path)
        with open(log, "ab") as handle:
            handle.write(b"\x99" * 7)  # torn append starts...
        # ...and the server answers from the last good overlay.
        assert registry.get("g").index == states[-1]


# ----------------------------------------------------------------------
# Registry hot reload must observe delta-log growth (regression)
# ----------------------------------------------------------------------
class TestRegistryDeltaReload:
    def test_log_append_triggers_reload_without_base_touch(self, tmp_path):
        graph = ring_of_cliques(2, 5)
        updater = fresh_updater(tmp_path, graph)
        registry = IndexRegistry()
        registry.register("g", updater.path)
        assert registry.get("g").index == updater.index
        assert registry.datasets()[0]["mmap"] is True
        base_stat = os.stat(updater.path)
        batch = [{"op": "delete", "u": 0, "v": 1}]
        updater.apply(batch)
        # The base file was not rewritten - only the log grew...
        after = os.stat(updater.path)
        assert (base_stat.st_mtime_ns, base_stat.st_size) == (
            after.st_mtime_ns,
            after.st_size,
        )
        # ...yet the registry serves the overlay on the next access.
        assert registry.get("g").index == updater.index
        assert registry.stats()["reloads"] == 1
        # The overlay is built in memory; the base mapping is gone.
        assert registry.datasets()[0]["mmap"] is False

    def test_updater_refuses_a_graph_with_a_corrupt_row(self, tmp_path):
        """A mapped KVCCG passes its load with a corrupt middle indptr
        entry; the updater must not build its adjacency from it."""
        graph = ring_of_cliques(3, 4)
        updater = fresh_updater(tmp_path, graph)
        path = tmp_path / "g.kvccg"
        save_csr(graph.to_csr(), path)
        raw = bytearray(path.read_bytes())
        at = len(KVCCG_MAGIC) + 2 + 20 + 4 * 6  # indptr[6]
        raw[at : at + 4] = struct.pack("<i", 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="outside the base"):
            IndexUpdater(updater.path, graph=load_csr(path))

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_overlaid_reloads_release_the_base_mapping(self, tmp_path):
        """A mapping holds a duplicated fd until it is freed, so a view
        of the base kept by the overlay would leak one per reload."""
        graph, updater, states = _mutated_updater(tmp_path)
        load_effective_index(updater.path)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            assert load_effective_index(updater.path) == states[-1]
        assert len(os.listdir("/proc/self/fd")) == before


# ----------------------------------------------------------------------
# The serve-layer mutation path
# ----------------------------------------------------------------------
class TestHandleMutation:
    def _setup(self, tmp_path):
        graph = ring_of_cliques(2, 5)
        updater = fresh_updater(tmp_path, graph)
        registry = IndexRegistry()
        registry.register("ring", updater.path)
        manager = MutationManager()
        manager.register("ring", updater.path, lambda: graph)
        return graph, updater.path, registry, manager

    def test_batch_applies_and_queries_update(self, tmp_path):
        graph, path, registry, manager = self._setup(tmp_path)
        body = json.dumps(
            {"mutations": [{"op": "delete", "u": "0", "v": "1"}]}
        ).encode()
        status, payload = handle_mutation(
            registry, manager, "/v1/ring/edges", {}, body
        )
        assert status == 200
        assert payload["applied"] == 1
        mirror = graph.copy()
        mirror.remove_edge(0, 1)
        assert (
            registry.get("ring").index.vcc_number_of(0)
            == build_index(mirror).vcc_number_of(0)
        )

    def test_statuses(self, tmp_path):
        graph, path, registry, manager = self._setup(tmp_path)
        ok = json.dumps({"mutations": []}).encode()
        assert handle_mutation(
            registry, manager, "/v1/nope/edges", {}, ok
        )[0] == 404
        assert handle_mutation(
            registry, manager, "/v1/ring/vcc-number", {}, ok
        )[0] == 405
        registry.register("readonly", path)
        assert handle_mutation(
            registry, manager, "/v1/readonly/edges", {}, ok
        )[0] == 409
        assert handle_mutation(
            registry, manager, "/v1/ring/edges", {}, b"not json"
        )[0] == 400
        assert handle_mutation(
            registry, manager, "/v1/ring/edges", {}, b'{"mutations": 5}'
        )[0] == 400
        bad_entry = json.dumps({"mutations": [{"op": "insert"}]}).encode()
        assert handle_mutation(
            registry, manager, "/v1/ring/edges", {}, bad_entry
        )[0] == 400

    def test_rejected_batch_leaves_server_state_clean(self, tmp_path):
        """A 400 batch must not leak partial edges into the updater.

        The public-API reproduction of the all-or-nothing regression:
        a valid insert followed by a self loop answers 400, and the
        server keeps classifying against the *unchanged* graph - a
        follow-up good batch still matches a from-scratch rebuild.
        """
        graph, path, registry, manager = self._setup(tmp_path)
        poisoned = json.dumps(
            {
                "mutations": [
                    {"op": "insert", "u": 1, "v": 6},
                    {"op": "insert", "u": 3, "v": 3},
                ]
            }
        ).encode()
        status, payload = handle_mutation(
            registry, manager, "/v1/ring/edges", {}, poisoned
        )
        assert status == 400
        assert "self loop" in payload["error"]
        updater = manager.updater("ring")
        assert updater.num_edges == graph.num_edges
        good = json.dumps(
            {"mutations": [{"op": "insert", "u": 1, "v": 6}]}
        ).encode()
        status, _ = handle_mutation(
            registry, manager, "/v1/ring/edges", {}, good
        )
        assert status == 200
        mirror = graph.copy()
        mirror.add_edge(1, 6)
        assert api_answer_bytes(
            registry.get("ring").index
        ) == api_answer_bytes(build_index(mirror))


# ----------------------------------------------------------------------
# The mutation-stream generator itself
# ----------------------------------------------------------------------
class TestMutationStream:
    def test_deterministic_and_valid(self):
        graph = ring_of_cliques(3, 5)
        first = list(mutation_stream(graph, batches=4, batch_edges=5,
                                     seed=3))
        second = list(mutation_stream(graph, batches=4, batch_edges=5,
                                      seed=3))
        assert first == second
        mirror = graph.copy()
        for batch in first:
            for entry in batch:
                edge_present = mirror.has_edge(entry["u"], entry["v"])
                if entry["op"] == "insert":
                    assert not edge_present
                else:
                    assert edge_present
                apply_mutations(mirror, [entry])

    def test_churn_sizing_and_new_vertices(self):
        graph = ring_of_cliques(4, 6)
        batches = list(
            mutation_stream(
                graph, batches=2, churn=0.05, new_vertex_fraction=1.0,
                insert_fraction=1.0, seed=0,
            )
        )
        expected = max(1, round(0.05 * graph.num_edges))
        assert all(len(batch) == expected for batch in batches)
        labels = {
            entry["v"] for batch in batches for entry in batch
        }
        assert any(str(label).startswith("new-") for label in labels)
