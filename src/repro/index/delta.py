"""Incremental maintenance of a persisted k-VCC hierarchy index.

The hierarchy index (:mod:`repro.index.store`) is built once by a full
KVCC-ENUM pass; on a mutating graph that makes every edge change cost a
whole re-enumeration plus a ``KVCCIDX`` rewrite.  This module adds the
dynamic-update path: classify each edge insert/delete against the
existing forest, re-run the enumeration only inside the affected
components' mask views, and persist the outcome as an **append-only
delta log** next to the base file that the loader overlays without
rewriting the base.

Classification (why the recompute is local)
-------------------------------------------
Let ``G`` be the old graph and ``G'`` the graph after one batch.

* **Level 1.**  1-VCCs are the non-trivial connected components, so
  only components containing a mutated endpoint can change, and the
  union of those components plus the mutated endpoints is edge-closed
  in ``G'`` - connected components of ``G'`` restricted to that region
  are exact.  The batch's CSR base therefore holds the region's rows
  only, every other row empty: each region row is the vertex's whole
  row in ``G'``, and every later level enumerates inside a component of
  the region, so no view ever reads a row outside it.  A batch never
  copies or boxes the rows of components it does not touch.
* **Unchanged component, unchanged subtree.**  A component re-found
  with the same member set whose induced subgraph contains no applied
  edge is untouched: same members + same edges means the entire
  subtree below it is reused verbatim, no enumeration.
* **Deletions stay inside the component that held the edge.**  A
  k-VCC of ``G'`` that is not one of ``G`` is k-connected in ``G``
  too (deleting edges never helps connectivity), hence contained in an
  old k-VCC - and by the ``< k`` overlap bound (Property 1) in exactly
  the one that contained the deleted edge.  A delete-only batch
  therefore re-enumerates only the old components containing both
  endpoints of a deleted edge; siblings survive untouched.
* **Insertions re-enumerate the parent.**  A new k-VCC created by an
  inserted edge must contain both endpoints, but may recruit vertices
  from anywhere in the parent (k-1)-VCC (an inserted edge can close a
  long cycle through territory in no old k-VCC), so a parent holding
  an inserted edge re-enumerates its child level over its whole mask
  view.  Re-found children with unchanged member sets and no interior
  edge still keep their subtrees, so the cost below the re-enumerated
  level stays local.

Every surviving component keeps a **stable uid** across updates (base
nodes are their file position; new nodes draw from a monotonic
counter), so a delta record is just ``removed`` / ``added`` /
``reparented`` uid lists plus the applied edges and any new vertex
labels.  Updater state and disk replay share one deterministic
linearization - nodes sorted by ``(k, uid)`` - so
:func:`load_effective_index` reproduces the updater's in-memory index
exactly, byte for byte.  Each node keeps its encoded runs, so a
linearization only concatenates them, and the updater linearizes only
when its :attr:`IndexUpdater.index` is read.

Delta log format (``<index>.kvccidx.delta``)
--------------------------------------------
``KVCCDLT`` magic, one version byte, then the 64-hex-char SHA-256 of
the base index file, then length-prefixed records::

    <u32 payload_len> <u32 crc32(payload)> <payload: JSON>

The first record of a fresh log is a *graph-binding meta record*
(``{"meta": "graph", "vertices": ..., "edges": ..., "digest": ...}``)
digesting the edge set of the source graph the base was built from; it
is a no-op under replay, but lets :class:`IndexUpdater` reject a stale
graph loudly - the trap being the original source graph offered after
a :meth:`IndexUpdater.compact` already folded mutations into the base.

A reader stops at the first incomplete or checksum-failing record, so
a torn tail from a crashed append is silently ignored (the prefix is
still a valid overlay); a digest that does not match the current base
file means the log belongs to a *previous* base (e.g. the window of a
compaction crash, where the new base already folds the log in) and the
whole log is ignored.  :meth:`IndexUpdater.compact` folds the overlay
into a fresh base via the same atomic-rename discipline as
``save_atomic`` and restarts the log.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from time import perf_counter
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.core.engine import SerialEngine
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.graph.csr import CSRGraph
from repro.index.store import HierarchyIndex, _encode_runs

#: File signature of a hierarchy-index delta log.
DELTA_MAGIC = b"KVCCDLT"
#: Current delta-log format version (one unsigned byte after the magic).
DELTA_FORMAT_VERSION = 1

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_DIGEST_LEN = 64  # ascii hex chars of a sha256
_HEADER_LEN = len(DELTA_MAGIC) + 1 + _DIGEST_LEN


def delta_log_path(index_path) -> str:
    """The sidecar delta-log path of an index file."""
    return str(index_path) + ".delta"


def _file_digest(path) -> str:
    """SHA-256 hex digest of a file's bytes (the log's base binding)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _log_header(base_digest: str) -> bytes:
    return (
        DELTA_MAGIC
        + bytes([DELTA_FORMAT_VERSION])
        + base_digest.encode("ascii")
    )


def read_delta_log(
    log_path, base_digest: str
) -> Tuple[Optional[List[dict]], int]:
    """Decode the delta records overlaying a base with ``base_digest``.

    Returns ``(records, valid_length)``.  ``records`` is ``None`` when
    the log is absent, not a delta log, an unsupported version, or
    bound to a different base file - in every one of those cases the
    correct overlay is "no overlay".  A torn tail (incomplete frame,
    checksum failure, or undecodable payload) ends the record list at
    the last good record; ``valid_length`` is the byte offset of the
    good prefix, which an updater truncates to before appending.
    """
    try:
        with open(log_path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None, 0
    prefix = len(DELTA_MAGIC)
    if (
        len(blob) < _HEADER_LEN
        or blob[:prefix] != DELTA_MAGIC
        or blob[prefix] != DELTA_FORMAT_VERSION
    ):
        return None, 0
    bound = blob[prefix + 1 : _HEADER_LEN]
    if bound != base_digest.encode("ascii"):
        return None, 0
    records: List[dict] = []
    offset = _HEADER_LEN
    total = len(blob)
    while True:
        if offset + _FRAME.size > total:
            break
        length, crc = _FRAME.unpack_from(blob, offset)
        start = offset + _FRAME.size
        if start + length > total:
            break
        payload = blob[start : start + length]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        records.append(record)
        offset = start + length
    return records, offset


class _Node:
    """One component in the mutable overlay forest."""

    __slots__ = ("k", "parent", "members", "mset", "runs")

    def __init__(
        self, k: int, parent: int, members, runs: Optional[List[int]] = None
    ) -> None:
        self.k = k
        #: Parent *uid* (-1 for level-1 roots).
        self.parent = parent
        #: Sorted member ids (index id space).
        self.members: List[int] = sorted(members)
        self.mset: FrozenSet[int] = frozenset(self.members)
        #: The members' flattened ``(start, length)`` run pairs, exactly
        #: as the index stores them: taken from the loaded run table, or
        #: encoded by the first :meth:`_Forest.to_index` that needs them.
        self.runs: Optional[List[int]] = runs


class _Forest:
    """The hierarchy as uid-keyed mutable nodes, replayable from records.

    Base nodes take their index position as uid; nodes created by
    updates draw fresh uids from a monotonic counter, so uids are
    stable across batches and never reused.  :meth:`to_index`
    linearizes by ``(k, uid)`` - deterministic, level-by-level (parents
    sort before children because their level is smaller), and shared
    by the in-memory updater and the disk replay path, which is what
    makes the two byte-identical.
    """

    __slots__ = (
        "labels", "nodes", "children", "next_uid", "level_sizes", "root_of"
    )

    def __init__(self) -> None:
        self.labels: List[Hashable] = []
        self.nodes: Dict[int, _Node] = {}
        self.children: Dict[int, Set[int]] = {}
        self.next_uid = 0
        #: Node count per level, so :attr:`max_k` needs no linearization.
        self.level_sizes: Dict[int, int] = {}
        #: Vertex id -> uid of the level-1 component holding it (level-1
        #: components are disjoint), so a batch finds its roots without
        #: a scan of the forest.
        self.root_of: Dict[int, int] = {}

    @classmethod
    def from_index(cls, index: HierarchyIndex) -> "_Forest":
        forest = cls()
        forest.labels = list(index.labels)
        runs, offsets = index.runs, index.run_offsets
        for node in range(index.num_nodes):
            forest._insert(
                node,
                _Node(
                    index.node_k[node],
                    index.node_parent[node],
                    index.members(node),
                    list(runs[2 * offsets[node] : 2 * offsets[node + 1]]),
                ),
            )
        forest.next_uid = index.num_nodes
        return forest

    @property
    def max_k(self) -> int:
        """The deepest level that holds a node (0 for an empty forest)."""
        return max(self.level_sizes, default=0)

    def roots_of(self, vertices) -> List[int]:
        """Uids of the level-1 components holding any of ``vertices``,
        ascending (the order a scan of :attr:`nodes` would give)."""
        root_of = self.root_of
        return sorted({root_of[v] for v in vertices if v in root_of})

    def _insert(self, uid: int, node: _Node) -> None:
        self.nodes[uid] = node
        self.children[uid] = set()
        if node.parent >= 0:
            self.children[node.parent].add(uid)
        if node.k == 1:
            self.root_of.update(dict.fromkeys(node.members, uid))
        self.level_sizes[node.k] = self.level_sizes.get(node.k, 0) + 1

    def apply_record(self, record: dict) -> None:
        """Replay one delta record (labels, removals, adds, reparents).

        Deterministic given the record, which is the whole point: the
        updater applies the record it just computed and the loader
        applies the same bytes from disk, and both forests end up
        identical.
        """
        self.labels.extend(record.get("labels", []))
        for uid in record.get("removed", []):
            node = self.nodes.pop(uid)
            parent = node.parent
            if parent >= 0 and parent in self.nodes:
                self.children[parent].discard(uid)
            self.children.pop(uid, None)
            if node.k == 1:
                for vid in node.members:
                    self.root_of.pop(vid, None)
            left = self.level_sizes[node.k] - 1
            if left:
                self.level_sizes[node.k] = left
            else:
                del self.level_sizes[node.k]
        for uid, k, parent, members in record.get("added", []):
            self._insert(uid, _Node(k, parent, members))
            if uid >= self.next_uid:
                self.next_uid = uid + 1
        for uid, parent in record.get("reparented", []):
            node = self.nodes[uid]
            old = node.parent
            if old >= 0 and old in self.nodes:
                self.children[old].discard(uid)
            node.parent = parent
            if parent >= 0:
                self.children[parent].add(uid)

    def to_index(self) -> HierarchyIndex:
        """Linearize into a :class:`HierarchyIndex` by ``(k, uid)``.

        Node runs are concatenated, each encoded at most once per node.
        The same pass fills ``vcc_numbers``: levels ascend in this
        order, so a vertex's last write is its deepest level.
        """
        nodes = self.nodes
        order = sorted(nodes, key=lambda uid: (nodes[uid].k, uid))
        position = {uid: i for i, uid in enumerate(order)}
        node_k: List[int] = []
        node_parent: List[int] = []
        run_offsets: List[int] = [0]
        runs: List[int] = []
        vcc_numbers = [0] * len(self.labels)
        for uid in order:
            node = nodes[uid]
            k = node.k
            node_k.append(k)
            node_parent.append(
                -1 if node.parent < 0 else position[node.parent]
            )
            if node.runs is None:
                node.runs = []
                _encode_runs(node.members, node.runs)
            runs.extend(node.runs)
            run_offsets.append(len(runs) // 2)
            for vid in node.members:
                vcc_numbers[vid] = k
        return HierarchyIndex(
            labels=list(self.labels),
            node_k=node_k,
            node_parent=node_parent,
            run_offsets=run_offsets,
            runs=runs,
            vcc_numbers=vcc_numbers,
            max_k=node_k[-1] if node_k else 0,
        )


def load_effective_index(path) -> HierarchyIndex:
    """Load an index with its delta-log overlay applied.

    With no log (or an invalid / differently-bound / record-free one)
    this is exactly :meth:`HierarchyIndex.load`, the mapped zero-copy
    index.  Otherwise the mapped base is copied into a forest, the good
    record prefix replayed, and the overlaid index returned; the result
    equals the updater's in-memory index after the same records.  The
    forest keeps no view of the base, so its mapping is released here.
    """
    log_path = delta_log_path(path)
    records: Optional[List[dict]] = None
    if os.path.exists(log_path):
        records, _ = read_delta_log(log_path, _file_digest(path))
    if records:
        # Graph-binding meta records carry no overlay content.
        records = [r for r in records if not r.get("meta")]
    if not records:
        return HierarchyIndex.load(path)
    forest = _Forest.from_index(HierarchyIndex.load(path))
    for record in records:
        forest.apply_record(record)
    return forest.to_index()


def _edge_label_pairs(graph):
    """Iterate a graph's undirected edges as label pairs.

    Accepts both the dict :class:`~repro.graph.graph.Graph` (``edges``
    iterator) and a :class:`~repro.graph.csr.CSRGraph` base, walked
    through :attr:`~repro.graph.csr.CSRGraph.rows`, which refuses a
    corrupt row instead of handing the updater wrong adjacency.
    """
    if isinstance(graph, CSRGraph):
        label = graph.label_of
        for u, row in enumerate(graph.rows):
            for v in row:
                if v > u:
                    yield label(u), label(v)
        return
    yield from graph.edges()


class IndexUpdater:
    """Maintain a saved index incrementally under edge mutations.

    Parameters
    ----------
    index_path:
        A saved ``KVCCIDX`` file.  Its delta log (if any) is validated
        and replayed on construction, and a torn tail is truncated so
        subsequent appends extend a good prefix.
    graph:
        The graph the *base* index was built from - a dict
        :class:`~repro.graph.graph.Graph` or a CSR base.  Mutations
        recorded in an existing log are replayed on top, so after
        construction the updater's adjacency matches the overlay.
    options:
        Strategy switches for the localized re-enumeration (defaults
        to ``KVCCOptions()``, same as ``build_index``).

    ``apply`` classifies a batch of edge mutations, re-enumerates only
    the affected mask views, appends one delta record, and updates the
    forest behind :attr:`index`; readers loading via
    :func:`load_effective_index` (e.g. the serving registry) see the new
    state on their next stat.
    """

    def __init__(
        self,
        index_path,
        graph=None,
        options: Optional[KVCCOptions] = None,
    ) -> None:
        self.path = str(index_path)
        self.log_path = delta_log_path(index_path)
        self._options = options or KVCCOptions()
        self._engine = SerialEngine()
        base = HierarchyIndex.load(self.path)
        self._digest = _file_digest(self.path)
        self._forest = _Forest.from_index(base)
        if graph is None:
            raise ValueError(
                "IndexUpdater needs the graph the index was built from"
            )
        self._labels: List[Hashable] = list(base.labels)
        self._ids: Dict[Hashable, int] = {
            label: i for i, label in enumerate(self._labels)
        }
        self._adj: List[Set[int]] = [set() for _ in self._labels]
        for label_u, label_v in _edge_label_pairs(graph):
            iu = self._ids.get(label_u)
            iv = self._ids.get(label_v)
            if iu is None or iv is None:
                missing = label_u if iu is None else label_v
                raise ValueError(
                    f"graph vertex {missing!r} is not in the index; the "
                    f"updater must be given the graph the index was "
                    f"built from"
                )
            self._adj[iu].add(iv)
            self._adj[iv].add(iu)
        # The digest of the *source* graph binds the delta log to the
        # graph its base was built from (see the meta record written by
        # _reset_log); captured before replay so it describes the base.
        self._graph_digest = self._adj_digest()
        self._graph_shape = (len(self._labels), self.num_edges)
        records, valid_length = read_delta_log(self.log_path, self._digest)
        if records is None:
            # Absent, or bound to some other base: start (over) empty.
            self._log_length = 0
            if os.path.exists(self.log_path):
                self._reset_log()
        else:
            self._check_graph_binding(records)
            self._log_length = valid_length
            self._truncate_torn_tail()
            for record in records:
                if record.get("meta"):
                    continue
                self._replay_graph(record)
                self._forest.apply_record(record)
        self.last_stats: Optional[RunStats] = None
        self._index: Optional[HierarchyIndex] = None

    def _check_graph_binding(self, records: List[dict]) -> None:
        """Fail loudly when the provided graph is not the one this
        base + delta log pair was created against.

        The trap this closes: after :meth:`compact`, the base file
        already folds every logged mutation, so rebuilding an updater
        from the *original* source graph would silently pass the
        subset check above (original vertices are a subset of the
        compacted labels) while its adjacency lacks every folded edge,
        corrupting all future classification.
        """
        meta = next(
            (r for r in records if r.get("meta") == "graph"), None
        )
        if meta is None:  # pre-binding log: nothing to check against
            return
        if meta.get("digest") == self._graph_digest:
            return
        vertices, edges = self._graph_shape
        raise ValueError(
            f"graph mismatch for {self.path!r}: its delta log was "
            f"created against a graph with {meta.get('vertices')} "
            f"vertices and {meta.get('edges')} edges, but the provided "
            f"graph has {vertices} and {edges} (or the same counts "
            f"with different edges); after compact() the updater must "
            f"be rebuilt from the mutated graph, not the original "
            f"source"
        )

    def _adj_digest(self) -> str:
        """Deterministic digest of the current id-space edge set.

        Ids are the interning order of the base labels (stable across
        restarts of the same base file), so two updaters agree on this
        digest exactly when they were given the same graph.
        """
        digest = hashlib.sha256()
        digest.update(struct.pack("<q", len(self._adj)))
        for iu, row in enumerate(self._adj):
            for iv in sorted(row):
                if iv > iu:
                    digest.update(struct.pack("<qq", iu, iv))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def index(self) -> HierarchyIndex:
        """The current overlaid index (a fresh object after each batch).

        Linearized on the first read after a batch, not by
        :meth:`apply`: serving readers reload from disk, so a write
        that nobody reads through the updater never pays the O(graph)
        :meth:`_Forest.to_index`.
        """
        if self._index is None:
            self._index = self._forest.to_index()
        return self._index

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return sum(len(row) for row in self._adj) // 2

    # ------------------------------------------------------------------
    # Mutation entry point
    # ------------------------------------------------------------------
    def apply(self, mutations) -> dict:
        """Apply a batch of edge mutations; returns a summary dict.

        ``mutations`` is an iterable of ``(op, u, v)`` with ``op`` one
        of ``"insert"``/``"+"`` or ``"delete"``/``"-"`` and labels in
        the graph's vocabulary (unknown labels are created by inserts).
        Duplicate inserts and deletes of absent edges are counted as
        skipped, not errors; self loops raise ``ValueError`` (as the
        graph layer does).  A batch is all-or-nothing: it is fully
        validated against staged state before the updater is touched,
        so a rejected batch (unknown op, malformed entry, self loop)
        leaves adjacency, labels, forest and log exactly as they were.
        The whole batch lands as **one** delta record, so a reader sees
        either the previous overlay or the whole batch.
        """
        started = perf_counter()
        applied, new_labels, skipped = self._stage(mutations)
        if not applied and not new_labels:
            return self._summary(started, skipped, None)
        self._commit_graph(applied, new_labels)
        try:
            record = self._recompute(applied, new_labels)
            self._append_record(record)
        except BaseException:
            # Undo the adjacency/label commit and drop any torn append
            # so a failure mid-recompute or mid-write (engine bug, disk
            # full) leaves memory and log agreeing on the pre-batch
            # state.
            self._rollback_graph(applied, new_labels)
            self._truncate_torn_tail()
            raise
        self._forest.apply_record(record)
        self._index = None
        return self._summary(started, skipped, record)

    def _stage(self, mutations):
        """Validate and normalize a whole batch without touching state.

        Runs the dedup/skip/self-loop logic of :meth:`apply` against
        *staged* overlays (new labels, edge add/remove sets) so any
        ``ValueError`` is raised before the updater changes at all.
        Returns ``(applied, new_labels, skipped)`` with ids already
        assigned exactly as :meth:`_commit_graph` will intern them.
        """
        applied: List[Tuple[str, int, int]] = []
        new_labels: List[Hashable] = []
        stage_ids: Dict[Hashable, int] = {}
        base_n = len(self._labels)
        added: Set[Tuple[int, int]] = set()
        removed: Set[Tuple[int, int]] = set()
        skipped = 0

        def resolve(label):
            vid = stage_ids.get(label)
            if vid is not None:
                return vid
            vid = self._resolve(label)
            if vid is not None:
                return vid
            # Staged labels honour the same int/str fallback as _ids.
            if isinstance(label, str):
                try:
                    return stage_ids.get(int(label))
                except ValueError:
                    return None
            if isinstance(label, int) and not isinstance(label, bool):
                return stage_ids.get(str(label))
            return None

        def intern(label):
            vid = resolve(label)
            if vid is not None:
                return vid
            vid = base_n + len(new_labels)
            new_labels.append(label)
            stage_ids[label] = vid
            return vid

        def present(iu, iv, pair):
            if pair in added:
                return True
            if pair in removed:
                return False
            return iu < base_n and iv in self._adj[iu]

        for op, u, v in self._normalized(mutations):
            if op == "+":
                iu = intern(u)
                iv = intern(v)
                if iu == iv:
                    raise ValueError(f"self loop rejected: {u!r}")
                pair = (iu, iv) if iu < iv else (iv, iu)
                if present(iu, iv, pair):
                    skipped += 1
                    continue
                if pair in removed:
                    removed.discard(pair)
                else:
                    added.add(pair)
            else:
                iu = resolve(u)
                iv = resolve(v)
                if iu is None or iv is None or iu == iv:
                    skipped += 1
                    continue
                pair = (iu, iv) if iu < iv else (iv, iu)
                if not present(iu, iv, pair):
                    skipped += 1
                    continue
                if pair in added:
                    added.discard(pair)
                else:
                    removed.add(pair)
            applied.append((op, iu, iv))
        return applied, new_labels, skipped

    def _commit_graph(
        self,
        applied: List[Tuple[str, int, int]],
        new_labels: List[Hashable],
    ) -> None:
        """Apply a fully staged batch to the live adjacency/labels -
        the same replay a logged record gets on reload."""
        self._replay_graph(
            {
                "labels": new_labels,
                "edges": [[op, iu, iv] for op, iu, iv in applied],
            }
        )

    def _rollback_graph(
        self,
        applied: List[Tuple[str, int, int]],
        new_labels: List[Hashable],
    ) -> None:
        """Inverse of :meth:`_commit_graph` (ops undone in reverse)."""
        for op, iu, iv in reversed(applied):
            if op == "+":
                self._adj[iu].discard(iv)
                self._adj[iv].discard(iu)
            else:
                self._adj[iu].add(iv)
                self._adj[iv].add(iu)
        for label in reversed(new_labels):
            del self._ids[label]
            self._labels.pop()
            self._adj.pop()

    def compact(self) -> None:
        """Fold the overlay into the base file and restart the log.

        The new base is published with the same temp-file + atomic
        rename discipline as ``save_atomic``; the fresh (empty) log is
        bound to the new base's digest.  A crash between the two steps
        leaves the old log pointing at a digest the new base no longer
        has, so readers ignore it - the compacted base already contains
        every folded mutation.

        The fresh log's graph-binding meta record is rebound to the
        *mutated* graph (the one the compacted base now describes), so
        a later ``IndexUpdater(path, graph=original_source)`` fails
        loudly instead of silently classifying against a stale
        adjacency.
        """
        index = self.index
        index.save_atomic(self.path)
        self._digest = _file_digest(self.path)
        self._graph_digest = self._adj_digest()
        self._graph_shape = (len(self._labels), self.num_edges)
        self._reset_log()
        self._forest = _Forest.from_index(index)

    # ------------------------------------------------------------------
    # Batch normalization / id space
    # ------------------------------------------------------------------
    @staticmethod
    def _normalized(mutations):
        for entry in mutations:
            if isinstance(entry, dict):
                try:
                    op, u, v = entry["op"], entry["u"], entry["v"]
                except KeyError as exc:
                    raise ValueError(
                        f"mutation needs 'op', 'u' and 'v': {entry!r}"
                    ) from exc
            else:
                op, u, v = entry
            if op in ("insert", "+"):
                yield "+", u, v
            elif op in ("delete", "-"):
                yield "-", u, v
            else:
                raise ValueError(
                    f"unknown mutation op {op!r}; expected "
                    f"'insert' or 'delete'"
                )

    def _resolve(self, label) -> Optional[int]:
        """Dense id of a label, with ``id_of``'s int/str fallback."""
        vid = self._ids.get(label)
        if vid is not None:
            return vid
        if isinstance(label, str):
            try:
                return self._ids.get(int(label))
            except ValueError:
                return None
        if isinstance(label, int) and not isinstance(label, bool):
            return self._ids.get(str(label))
        return None

    def _replay_graph(self, record: dict) -> None:
        """Re-apply one logged record's labels and edges to ``_adj``."""
        for label in record.get("labels", []):
            self._ids[label] = len(self._labels)
            self._labels.append(label)
            self._adj.append(set())
        for op, iu, iv in record.get("edges", []):
            if op == "+":
                self._adj[iu].add(iv)
                self._adj[iv].add(iu)
            else:
                self._adj[iu].discard(iv)
                self._adj[iv].discard(iu)

    def _build_csr(self, region: List[int]) -> CSRGraph:
        """Snapshot the adjacency of ``region`` (ascending ids) as an
        id-labeled CSR base whose other rows are empty.

        Only the region's rows are read and boxed (through
        :meth:`CSRGraph.prepare_rows`); the gaps between region ids are
        filled by slice, so the Python-level work is O(region) however
        large the graph is.
        """
        from array import array

        n = len(self._adj)
        indptr = array("l", [0]) * (n + 1)
        indices = array("l")
        filled = 0  # indptr[: filled + 1] holds its final values
        for v in region:
            if v > filled:
                indptr[filled + 1 : v + 1] = array("l", [len(indices)]) * (
                    v - filled
                )
            indices.extend(sorted(self._adj[v]))
            indptr[v + 1] = len(indices)
            filled = v + 1
        if filled < n:
            indptr[filled + 1 :] = array("l", [len(indices)]) * (n - filled)
        base = CSRGraph(n, indptr, indices, None)
        base.prepare_rows(region)
        return base

    # ------------------------------------------------------------------
    # Localized re-enumeration
    # ------------------------------------------------------------------
    def _recompute(
        self,
        applied: List[Tuple[str, int, int]],
        new_labels: List[Hashable],
    ) -> dict:
        """Classify the batch and compute its delta record.

        Reads the (pre-batch) forest, never mutates it - the record it
        returns goes through :meth:`_Forest.apply_record`, the same
        code path disk replay uses.

        The CSR base holds the level-1 region's rows only: the affected
        old roots' members plus the mutated endpoints, every other row
        empty.  That is exact because the region is edge-closed in the
        new graph (a region vertex's new neighbours are old neighbours
        in its component or inserted endpoints), so each region row is
        the vertex's whole row, and every view this batch enumerates
        lies inside the region: the level-1 task is the region itself
        and each later task is a component found in, or an old
        descendant of, an affected root.  Untouched components are
        neither copied nor boxed.
        """
        forest = self._forest
        stats = RunStats(k=0)
        pairs = [(iu, iv) for _, iu, iv in applied]
        insert_pairs = [
            (iu, iv) for op, iu, iv in applied if op == "+"
        ]
        touched: Set[int] = set()
        for iu, iv in pairs:
            touched.add(iu)
            touched.add(iv)

        def changed(mset: FrozenSet[int]) -> bool:
            return any(iu in mset and iv in mset for iu, iv in pairs)

        def has_insert(mset: FrozenSet[int]) -> bool:
            return any(
                iu in mset and iv in mset for iu, iv in insert_pairs
            )

        removed: List[int] = []
        added: List[list] = []
        reparented: List[list] = []
        next_uid = forest.next_uid

        # Level 1: connected components are exact on the edge-closed
        # region of affected old roots plus mutated endpoints.
        region: Set[int] = set(touched)
        pool: Dict[FrozenSet[int], int] = {}
        for uid in forest.roots_of(touched):
            node = forest.nodes[uid]
            pool[node.mset] = uid
            region.update(node.members)
        region_ids = sorted(region)
        base = self._build_csr(region_ids)
        #: (parent uid or -1 for the virtual root, new member list,
        #: True when the parent is an old node whose children can use
        #: the delete-only refinement, the parent's connectivity floor
        #: proven by this batch's probes, 0 when none).
        dirty: List[Tuple[int, List[int], bool, int]] = [
            (-1, region_ids, False, 0)
        ]
        k = 1
        while dirty or pool:
            #: (parent uid, member list, floor) per run_level parent.
            tasks: List[Tuple[int, List[int], int]] = []
            for puid, members, is_old, floor in dirty:
                if len(members) <= k:
                    continue
                if (
                    floor < k
                    and is_old
                    and not has_insert(frozenset(members))
                ):
                    # Delete-only parent: only children holding a
                    # deleted edge can change; the rest adopt in place.
                    for child in list(forest.children.get(puid, ())):
                        child_node = forest.nodes[child]
                        if changed(child_node.mset):
                            if len(child_node.members) > k:
                                tasks.append((puid, child_node.members, 0))
                            # Too small to host a k-VCC piece after the
                            # deletion check? Still enumerated via the
                            # parent task list when large enough; a
                            # component can only shrink, so a child at
                            # the size floor just dies below.
                            continue
                        pool.pop(child_node.mset, None)
                    continue
                # A parent proven k-connected (floor >= k) is its own
                # only k-VCC, which run_level passes through; with such
                # a floor the refinement above has nothing to add.
                tasks.append((puid, members, floor))
            groups = self._engine.run_level(
                base,
                [(m, f) for _, m, f in tasks],
                k,
                self._options,
                stats,
                next_k=k + 1,
            )
            next_dirty: List[Tuple[int, List[int], bool, int]] = []
            next_pool: Dict[FrozenSet[int], int] = {}
            for (puid, _, _), comps in zip(tasks, groups):
                for members, floor in comps:
                    key = frozenset(members)
                    cuid = pool.pop(key, None)
                    if cuid is not None:
                        node = forest.nodes[cuid]
                        if node.parent != puid:
                            reparented.append([cuid, puid])
                        if changed(key):
                            next_dirty.append((cuid, members, True, floor))
                            for grandchild in forest.children.get(
                                cuid, ()
                            ):
                                next_pool[
                                    forest.nodes[grandchild].mset
                                ] = grandchild
                        # else: same members, same interior edges -
                        # the whole subtree is reused verbatim.
                    else:
                        cuid = next_uid
                        next_uid += 1
                        added.append([cuid, k, puid, list(members)])
                        next_dirty.append((cuid, members, False, floor))
            # Whatever was not re-found no longer exists at this level;
            # its children go up for adoption (a split may have moved
            # them under a new node) and cascade out if nobody claims
            # them.
            for key, uid in pool.items():
                removed.append(uid)
                for child in forest.children.get(uid, ()):
                    next_pool[forest.nodes[child].mset] = child
            dirty, pool = next_dirty, next_pool
            k += 1
        self.last_stats = stats
        return {
            "edges": [[op, iu, iv] for op, iu, iv in applied],
            "labels": new_labels,
            "removed": removed,
            "added": added,
            "reparented": reparented,
        }

    # ------------------------------------------------------------------
    # Log maintenance
    # ------------------------------------------------------------------
    def _reset_log(self) -> None:
        """Atomically (re)start the log: the header for the current
        base digest plus one graph-binding meta record.

        The meta record (``{"meta": "graph", ...}``) names the graph
        the base was built from - vertex/edge counts for the error
        message, an edge-set digest for the actual check - and is a
        no-op under record replay, so old readers skip it harmlessly.
        """
        import tempfile

        vertices, edges = self._graph_shape
        payload = json.dumps(
            {
                "meta": "graph",
                "vertices": vertices,
                "edges": edges,
                "digest": self._graph_digest,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        blob = _log_header(self._digest) + frame
        directory = (
            os.path.dirname(os.path.abspath(self.log_path)) or "."
        )
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".delta.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, self.log_path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self._log_length = len(blob)

    def _truncate_torn_tail(self) -> None:
        """Drop garbage bytes after the good record prefix, if any."""
        try:
            size = os.path.getsize(self.log_path)
        except OSError:
            return
        if size > self._log_length:
            with open(self.log_path, "rb+") as handle:
                handle.truncate(self._log_length)

    def _append_record(self, record: dict) -> None:
        if self._log_length < _HEADER_LEN:
            self._reset_log()
        payload = json.dumps(record, separators=(",", ":")).encode(
            "utf-8"
        )
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        with open(self.log_path, "ab") as handle:
            handle.write(frame)
        self._log_length += len(frame)

    def _summary(
        self, started: float, skipped: int, record: Optional[dict]
    ) -> dict:
        return {
            "applied": len(record["edges"]) if record else 0,
            "skipped": skipped,
            "new_vertices": len(record["labels"]) if record else 0,
            "nodes_removed": len(record["removed"]) if record else 0,
            "nodes_added": len(record["added"]) if record else 0,
            "nodes_reparented": (
                len(record["reparented"]) if record else 0
            ),
            "max_k": self._forest.max_k,
            "elapsed_seconds": perf_counter() - started,
        }
