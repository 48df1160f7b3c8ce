"""Multi-dataset registry of resident hierarchy indexes.

A serving process rarely fronts one graph: the registry owns the map
from dataset *name* to index *file* and decides what is resident in
memory at any moment.

* **lazy open** - ``register`` records the path only; the index is
  mapped on the first query that needs it;
* **LRU residency** - at most ``capacity`` indexes stay resident;
  touching a dataset moves it to the fresh end, loading one past the
  cap evicts the stalest.  Registrations themselves are never dropped,
  so an evicted dataset transparently reloads on its next query;
* **hot reload** - every access re-stats the index file *and* its
  delta log; a changed ``(mtime_ns, size)`` signature of either drops
  the resident index and reloads from disk (with the log overlay
  applied), so rebuilding an index - or appending incremental deltas -
  behind a running server takes effect on the next request with no
  restart.  A *failed* stat with a
  resident index keeps serving the resident copy (counted as
  ``stat_errors``) instead of failing a dataset whose in-memory state
  is still valid;
* **explicit evict** - ``evict``/``evict_all`` for operational control
  (e.g. before deleting a dataset file).

All public methods are thread-safe behind one lock; loads happen under
it, which serializes cold starts but keeps the LRU and reload logic
trivially correct.  A mapped load is O(header), so the serialization
window is microseconds, not parse time (a delta-logged index also
replays its log there).

Examples
--------
>>> import tempfile, os
>>> from repro.graph.generators import ring_of_cliques
>>> from repro.index import build_index
>>> workdir = tempfile.TemporaryDirectory()
>>> path = os.path.join(workdir.name, "ring.kvccidx")
>>> build_index(ring_of_cliques(3, 5)).save(path)
>>> registry = IndexRegistry(capacity=4)
>>> registry.register("ring", path)
>>> registry.get("ring").vcc_number(0)
4
>>> [d["name"] for d in registry.datasets()]
['ring']
>>> registry.evict_all()
1
>>> workdir.cleanup()
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.index.cohesion import (
    CohesionIndex,
    CohesionQueryService,
    load_any_index,
    sniff_measures,
)
from repro.index.delta import delta_log_path
from repro.index.query import HierarchyQueryService


class DatasetNotFound(KeyError):
    """Requested dataset name has never been registered."""


class _Entry:
    """Registration record plus residency state for one dataset."""

    __slots__ = ("name", "path", "service", "signature")

    def __init__(self, name: str, path: str) -> None:
        self.name = name
        self.path = path
        self.service = None
        #: ``(mtime_ns, size)`` of the base file and its delta log.
        self.signature: Optional[Tuple[int, int, int, int]] = None


def _file_signature(path: str) -> Tuple[int, int, int, int]:
    """The freshness key hot reload compares.

    Base-file mtime (ns) and size, then the same pair for the sidecar
    delta log (zeros when absent).  An incremental update appends to
    the log without touching the base, so the log's stat must join the
    key or a served overlay would go stale until the next compaction.
    A log stat failure maps to the absent pair - the base stat alone
    decides whether the entry survives, same as before logs existed.
    """
    status = os.stat(path)
    log_mtime_ns, log_size = 0, 0
    try:
        log_status = os.stat(delta_log_path(path))
        log_mtime_ns, log_size = log_status.st_mtime_ns, log_status.st_size
    except OSError:
        pass
    return (status.st_mtime_ns, status.st_size, log_mtime_ns, log_size)


class IndexRegistry:
    """Named hierarchy indexes with lazy load, LRU residency and reload.

    Parameters
    ----------
    capacity:
        Maximum number of indexes resident at once (>= 1).
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        #: Insertion/touch order *is* the LRU order (stalest first).
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._counters: Dict[str, int] = {
            "loads": 0, "reloads": 0, "evictions": 0, "hits": 0,
            "stat_errors": 0,
        }

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, path: str) -> None:
        """Map ``name`` to an index file; the file is not opened yet.

        Re-registering an existing name re-points it (and drops any
        index resident under the old path).
        """
        if not name or "/" in name:
            raise ValueError(
                f"dataset name must be non-empty and slash-free, "
                f"got {name!r}"
            )
        with self._lock:
            old = self._entries.pop(name, None)
            if old is not None and old.service is not None:
                self._release(old)
            self._entries[name] = _Entry(name, str(path))

    def unregister(self, name: str) -> bool:
        """Forget a dataset entirely; True if it was registered."""
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is None:
                return False
            self._release(entry)
            return True

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, name: str):
        """The query service for ``name``, loading or reloading as needed.

        The index file's magic decides the service type: a plain
        ``KVCCIDX`` file (with its delta-log overlay applied) answers
        through a :class:`HierarchyQueryService`, a multi-measure
        ``KVCCCOH`` container through a
        :class:`~repro.index.cohesion.CohesionQueryService`.  Both
        speak the ``measures`` / ``measure_service`` protocol, so the
        handler layer never cares which it got.

        Raises :class:`DatasetNotFound` for unknown names and ``OSError``
        when the registered file is missing or unreadable.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise DatasetNotFound(name)
            try:
                signature = _file_signature(entry.path)
            except OSError:
                if entry.service is None:
                    raise
                # The file vanished from under us (a non-atomic rebuild
                # mid-rename, an unlinked-but-mapped index): the
                # resident copy is still perfectly valid, so keep
                # serving it instead of 503ing a healthy dataset.  The
                # next successful stat resumes normal reload tracking.
                self._counters["stat_errors"] += 1
                self._counters["hits"] += 1
                self._entries.move_to_end(name)
                return entry.service
            if entry.service is not None and entry.signature != signature:
                self._release(entry)
                self._counters["reloads"] += 1
            if entry.service is None:
                index = load_any_index(entry.path)
                if isinstance(index, CohesionIndex):
                    entry.service = CohesionQueryService(index)
                else:
                    entry.service = HierarchyQueryService(index)
                entry.signature = signature
                self._counters["loads"] += 1
            else:
                self._counters["hits"] += 1
            self._entries.move_to_end(name)
            self._shrink()
            return entry.service

    def evict(self, name: str) -> bool:
        """Drop the resident index for ``name`` (registration stays).

        True if an index was actually resident.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.service is None:
                return False
            self._release(entry)
            self._counters["evictions"] += 1
            return True

    def evict_all(self) -> int:
        """Drop every resident index; returns how many were resident."""
        with self._lock:
            dropped = 0
            for entry in self._entries.values():
                if entry.service is not None:
                    self._release(entry)
                    dropped += 1
            self._counters["evictions"] += dropped
            return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def datasets(self) -> List[dict]:
        """One JSON-ready record per registered dataset, LRU order.

        Every record carries a ``measures`` capability list so clients
        discover which v2 measure segments a dataset answers for.
        Resident datasets also report their index shape; non-resident
        ones are *not* loaded just to be described - their measures
        come from a cheap magic-plus-directory sniff of the file, and
        an unreadable file simply omits the key.
        """
        with self._lock:
            out = []
            for entry in self._entries.values():
                record = {
                    "name": entry.name,
                    "path": entry.path,
                    "resident": entry.service is not None,
                }
                if entry.service is not None:
                    index = entry.service.index
                    record.update(
                        vertices=index.num_vertices,
                        nodes=index.num_nodes,
                        max_k=index.max_k,
                        mmap=index.is_mmap,
                        measures=list(entry.service.measures),
                    )
                else:
                    sniffed = sniff_measures(entry.path)
                    if sniffed is not None:
                        record["measures"] = list(sniffed)
                out.append(record)
            return out

    def stats(self) -> Dict[str, int]:
        """Lifetime counters: loads, reloads, evictions, hits,
        stat_errors."""
        with self._lock:
            counters = dict(self._counters)
            counters["registered"] = len(self._entries)
            counters["resident"] = sum(
                1 for e in self._entries.values() if e.service is not None
            )
            return counters

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _release(self, entry: _Entry) -> None:
        """Drop an entry's resident index.

        Just clears the references: reference counting releases the
        mapping the moment the last in-flight query using it finishes,
        so nothing races a concurrent reader still holding views.
        """
        entry.service = None
        entry.signature = None

    def _shrink(self) -> None:
        """Evict stalest resident indexes until within capacity."""
        resident = [
            e for e in self._entries.values() if e.service is not None
        ]
        excess = len(resident) - self._capacity
        if excess <= 0:
            return
        for entry in resident[:excess]:
            self._release(entry)
            self._counters["evictions"] += 1
