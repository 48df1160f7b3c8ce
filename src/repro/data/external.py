"""Out-of-core edge-list ingest: external sort under a memory budget.

:func:`read_edge_list_csr` holds two full endpoint-id columns (plus the
interner) in RAM, which caps ingest at roughly the machine's memory.
This module removes that cap: when a caller supplies a memory budget
(``--mem-budget`` / ``$REPRO_MEM_BUDGET``), the parsed arc stream is
buffered only up to a fixed-size *run*, each full run is counting-sorted
by source id and spilled to a temp shard of raw little-endian ``int32``
``(src, dst)`` pairs, and a k-way merge over the sorted runs assembles
the adjacency row by row - per row, the merge gathers that row's arcs
from all runs, sorts and deduplicates them once, and appends; ``indptr``
accumulates beside it.  The rows stream in chunks through
:func:`repro.data.format.write_kvccg`, the one ``KVCCG`` writer, which
writes them at their final offset and the header and ``indptr`` once the
last row lands.  At no point are more than one run buffer plus the merge
read-heads resident.  This module is only the external sort: spill,
merge and row assembly.

Spill-run format (internal, deleted after the merge):

* ``run-NNNNN.arcs``: interleaved native ``int32`` pairs, sorted by
  ``src`` (ties in input order; ``dst`` order within a row is
  irrelevant because the merge re-sorts each row).
* Both directions of every undirected edge are emitted as arcs before
  spilling, so the merge never needs a transpose pass.

Merge invariants:

* every run is sorted by ``src``, so ``heapq.merge`` keyed on ``src``
  yields a globally src-sorted arc stream;
* a row is complete exactly when the head ``src`` advances, which is
  when it gets its one ``sort()`` + adjacent-dedupe - the same
  ``sorted``/skip-equal step :func:`repro.data.ingest.edges_to_csr`
  applies, so the finished file is **byte-identical** to
  ``read_edge_list_csr`` + ``save_csr`` on the same input.

Vertex interning uses a dense ``array``-backed fast path when labels
are non-negative ints (the SNAP case) at ~12 bytes/vertex, falling back
transparently to the dict :class:`~repro.graph.csr.VertexInterner` for
string or sparse ids; ids are first-seen-order either way, matching the
in-memory reader.
"""

from __future__ import annotations

import heapq
import os
import re
import shutil
import tempfile
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.data.format import save_csr, write_kvccg
from repro.data.ingest import (
    PathLike,
    iter_edge_labels,
    normalize_mixed_labels,
    read_edge_list_csr,
)
from repro.graph.csr import VertexInterner

#: Environment variable consulted when no explicit budget is given.
MEM_BUDGET_ENV = "REPRO_MEM_BUDGET"

#: Fraction of the budget given to the spill-run arc buffer (and again
#: to the merge read buffers): budget/8 leaves headroom for the interner
#: tables, ``indptr``, and the write buffer inside the same envelope.
SPILL_FRACTION = 8

#: Floor on the spill-run buffer so degenerate budgets still make
#: forward progress (one run holds at least a few arcs).
MIN_RUN_BYTES = 64

#: Bytes per spilled arc: two little-endian int32s.
_ARC_BYTES = 8

#: Assembled ``indices`` entries are handed to the writer at this many
#: bytes.
_WRITE_BUFFER_BYTES = 1 << 20

_BUDGET_RE = re.compile(r"^(\d+)\s*([KMGT]?)I?B?$", re.IGNORECASE)

_BUDGET_UNITS = {
    "": 1,
    "K": 1 << 10,
    "M": 1 << 20,
    "G": 1 << 30,
    "T": 1 << 40,
}


def parse_mem_budget(value: Union[int, str, None]) -> Optional[int]:
    """Parse a memory budget into bytes; ``None`` means unbounded.

    Accepts plain ints (bytes), or strings with an optional binary-unit
    suffix - ``"256M"``, ``"2G"``, ``"1048576"``, ``"512KiB"`` are all
    valid.  ``0``, ``"0"``, and empty/whitespace strings mean
    unbounded.  Raises :class:`ValueError` on anything else.

    >>> parse_mem_budget("256M")
    268435456
    >>> parse_mem_budget(None) is None
    True
    """
    if value is None:
        return None
    if isinstance(value, int):
        if value < 0:
            raise ValueError(f"memory budget must be >= 0, got {value}")
        return value or None
    text = value.strip()
    if not text:
        return None
    match = _BUDGET_RE.match(text)
    if match is None:
        raise ValueError(
            f"unparseable memory budget {value!r} "
            "(expected e.g. 268435456, 256M, or 2GiB)"
        )
    amount = int(match.group(1)) * _BUDGET_UNITS[match.group(2).upper()]
    return amount or None


def resolve_mem_budget(value: Union[int, str, None] = None) -> Optional[int]:
    """Resolve the effective budget: explicit value, else the env var.

    ``None`` (or ``0`` / empty) falls through to ``$REPRO_MEM_BUDGET``;
    if that is unset or empty too, the budget is unbounded and callers
    take the in-memory fast path.
    """
    parsed = parse_mem_budget(value)
    if parsed is not None:
        return parsed
    return parse_mem_budget(os.environ.get(MEM_BUDGET_ENV))


@dataclass
class IngestReport:
    """What one :func:`ingest_edge_list_kvccg` call did.

    ``spill_runs`` counts temp shards written (0 on the in-memory fast
    path or when the whole input fit in a single run buffer);
    ``external`` records which code path ran.
    """

    n: int
    nnz: int
    spill_runs: int
    mem_budget: Optional[int]
    external: bool

    @property
    def num_edges(self) -> int:
        """Undirected edge count (half the stored arc count)."""
        return self.nnz // 2


class _SparseIds(Exception):
    """Raised by :class:`_IntTable` when ids are too sparse to stay dense."""


class _IntTable:
    """Array-backed interner for dense non-negative integer labels.

    ``table[raw_id] -> dense_id`` plus a first-seen ``labels`` column:
    ~12 bytes/vertex versus ~90 for the dict interner, which matters
    because the interner is the one structure that must stay resident
    for the whole parse.  Raises :class:`_SparseIds` when growing the
    table would exceed 8x the interned count (+ slack) - the caller
    then migrates to :class:`~repro.graph.csr.VertexInterner`, which
    preserves the already-assigned ids because ``labels`` is in
    first-seen order.
    """

    __slots__ = ("table", "labels")

    def __init__(self) -> None:
        self.table = array("i", [-1]) * 1024
        self.labels = array("l")

    def intern(self, value: int) -> int:
        """Return the dense id for ``value``, assigning one if new."""
        table = self.table
        if value >= len(table):
            size = len(table)
            while size <= value:
                size *= 2
            if size > 8 * (len(self.labels) + 1024):
                raise _SparseIds(value)
            self.table = table = table + array("i", [-1]) * (
                size - len(table)
            )
        vid = table[value]
        if vid < 0:
            vid = len(self.labels)
            table[value] = vid
            self.labels.append(value)
        return vid


def _counting_sort_arcs(srcs: array, dsts: array, n: int) -> array:
    """Sort one run's arcs by source id into interleaved int32 pairs.

    Counting sort over the dense id space: one O(n) cursor array, one
    placement pass, stable within a source row (irrelevant - rows are
    re-sorted at merge time).
    """
    # int32 cursor: per-run totals are bounded by the run's arc count,
    # far under 2**31, and the 4-byte entries halve the O(n) transient.
    cursor = array("i", [0]) * n if n else array("i")
    for s in srcs:
        cursor[s] += 1
    total = 0
    for i in range(n):
        count = cursor[i]
        cursor[i] = total
        total += count
    out = array("i", [0]) * (2 * len(srcs)) if srcs else array("i")
    for s, d in zip(srcs, dsts):
        pos = cursor[s]
        out[2 * pos] = s
        out[2 * pos + 1] = d
        cursor[s] = pos + 1
    return out


def _spill_run(dirpath: str, index: int, pairs: array) -> str:
    """Write one sorted run of interleaved int32 arcs to a temp shard."""
    path = os.path.join(dirpath, f"run-{index:05d}.arcs")
    with open(path, "wb") as handle:
        pairs.tofile(handle)
    return path


def _iter_run(path: str, buffer_arcs: int) -> Iterator[Tuple[int, int]]:
    """Replay a spilled run as ``(src, dst)`` pairs, reading in blocks."""
    block = max(buffer_arcs, 2) * _ARC_BYTES
    with open(path, "rb") as handle:
        while True:
            data = handle.read(block)
            if not data:
                return
            pairs = array("i")
            pairs.frombytes(data)
            for i in range(0, len(pairs), 2):
                yield pairs[i], pairs[i + 1]


def _iter_pairs(pairs: array) -> Iterator[Tuple[int, int]]:
    """Replay an in-memory interleaved arc buffer as ``(src, dst)``."""
    for i in range(0, len(pairs), 2):
        yield pairs[i], pairs[i + 1]


def _flush_row(
    row: List[int], buffer: array, indptr: array, vertex: int, nnz: int
) -> int:
    """Sort-and-dedupe one finished row into the write buffer.

    The same ``sorted`` + skip-adjacent-equal step ``edges_to_csr``
    applies per row, so merged output matches the in-memory CSR exactly.
    """
    row.sort()
    previous = -1
    for w in row:
        if w != previous:
            buffer.append(w)
            nnz += 1
            previous = w
    indptr[vertex + 1] = nnz
    del row[:]
    return nnz


def _assemble_rows(
    pairs: Iterable[Tuple[int, int]], indptr: array, flush_bytes: int
) -> Iterator[array]:
    """Yield the ``indices`` section, in chunks, from a src-sorted arc
    stream, filling ``indptr`` (``n + 1`` zeros on entry) as rows finish.

    ``indptr`` stays in RAM (8 bytes/vertex - part of the budget's
    structural floor) and is complete once the last chunk is taken.
    Gap rows (isolated ids - impossible from the parser, possible in
    principle) get repeated offsets, same as counting sort produces.
    """
    n = len(indptr) - 1
    buffer = array("i")
    row: List[int] = []
    nnz = 0
    current = -1
    for src, dst in pairs:
        if src != current:
            if current >= 0:
                nnz = _flush_row(row, buffer, indptr, current, nnz)
                if len(buffer) * 4 >= flush_bytes:
                    yield buffer
                    del buffer[:]
            for gap in range(current + 1, src):
                indptr[gap + 1] = nnz
            current = src
        row.append(dst)
    if current >= 0:
        nnz = _flush_row(row, buffer, indptr, current, nnz)
    for gap in range(current + 1, n):
        indptr[gap + 1] = nnz
    yield buffer


def ingest_edge_list_kvccg(
    source: PathLike,
    out_path: PathLike,
    mem_budget: Union[int, str, None] = None,
    comment: str = "#",
    tmp_dir: Optional[str] = None,
) -> IngestReport:
    """Ingest a text edge list into a KVCCG file under a memory budget.

    With no budget (``None``/``0``), this is exactly
    ``read_edge_list_csr`` + ``save_csr`` - the current fast path.
    With a budget, arcs spill to counting-sorted temp runs of
    ``budget // 8`` bytes each and a k-way merge streams them into the
    final file; the output is byte-identical either way.  Either way
    :func:`repro.data.format.write_kvccg` publishes it, so ``out_path``
    holds the old file or the whole new one, never part of it.

    Parameters
    ----------
    source:
        Edge-list path (plain or ``.gz``), same dialects as
        :func:`repro.data.ingest.read_edge_list_csr`.
    out_path:
        Destination KVCCG file (replaced).
    mem_budget:
        Bytes, or a string like ``"256M"``; ``None`` to run unbounded.
        This is the *working-set envelope* for ingest-owned structures,
        not a hard OS limit.
    tmp_dir:
        Where spill runs live (default: the system temp dir).
    """
    budget = parse_mem_budget(mem_budget)
    if budget is None:
        csr, _ = read_edge_list_csr(source, comment=comment)
        save_csr(csr, out_path)
        return IngestReport(
            n=csr.n,
            nnz=len(csr.indices),
            spill_runs=0,
            mem_budget=None,
            external=False,
        )

    run_bytes = max(budget // SPILL_FRACTION, MIN_RUN_BYTES)
    # Spilling holds the src/dst columns plus the sorted interleaved
    # output at once; halving the arc count keeps that whole transient
    # inside run_bytes.
    run_arcs = max(run_bytes // (2 * _ARC_BYTES), 2)
    fast: Optional[_IntTable] = _IntTable()
    interner: Optional[VertexInterner] = None
    srcs = array("i")
    dsts = array("i")
    run_paths: List[str] = []
    spill_dir = tempfile.mkdtemp(prefix="repro-ingest-", dir=tmp_dir)
    try:

        def intern(label) -> int:
            nonlocal fast, interner
            if fast is not None:
                if isinstance(label, int) and label >= 0:
                    try:
                        return fast.intern(label)
                    except _SparseIds:
                        pass
                # Migrate: ids already assigned are first-seen order,
                # which is exactly what seeding the dict interner with
                # the labels column reproduces.
                interner = VertexInterner(list(fast.labels))
                fast = None
            return interner.intern(label)

        # The readlines batch boxes each line as its own str (several
        # times the text bytes), so the hint scales down with the budget.
        chunk_hint = max(min(budget // 32, 1 << 20), 1 << 14)
        for u, v in iter_edge_labels(source, comment, chunk_hint=chunk_hint):
            iu = intern(u)
            iv = intern(v)
            # Both arc directions up front so the merge needs no
            # transpose pass.
            srcs.append(iu)
            dsts.append(iv)
            srcs.append(iv)
            dsts.append(iu)
            if len(srcs) >= run_arcs:
                count = len(fast.labels) if fast is not None else len(interner)
                sorted_pairs = _counting_sort_arcs(srcs, dsts, count)
                run_paths.append(
                    _spill_run(spill_dir, len(run_paths), sorted_pairs)
                )
                del srcs[:]
                del dsts[:]

        if fast is not None:
            labels = fast.labels
            fast = None  # free the raw->dense table; only labels remain
        else:
            labels, _ = normalize_mixed_labels(interner.labels)
            interner = None  # the dense labels column is all we need
        n = len(labels)

        if run_paths and srcs:
            sorted_pairs = _counting_sort_arcs(srcs, dsts, n)
            run_paths.append(
                _spill_run(spill_dir, len(run_paths), sorted_pairs)
            )
            del srcs[:]
            del dsts[:]

        if run_paths:
            per_run = max(
                run_bytes // (_ARC_BYTES * len(run_paths)), 32
            )
            readers = [_iter_run(path, per_run) for path in run_paths]
            if len(readers) > 1:
                merged: Iterable[Tuple[int, int]] = heapq.merge(
                    *readers, key=lambda arc: arc[0]
                )
            else:
                merged = readers[0]
        else:
            merged = _iter_pairs(_counting_sort_arcs(srcs, dsts, n))

        indptr = array("l", [0]) * (n + 1)
        flush_bytes = max(min(budget // 8, _WRITE_BUFFER_BYTES), 4096)
        rows = _assemble_rows(merged, indptr, flush_bytes)
        nnz = write_kvccg(out_path, n, indptr, rows, labels)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    return IngestReport(
        n=n,
        nnz=nnz,
        spill_runs=len(run_paths),
        mem_budget=budget,
        external=True,
    )
