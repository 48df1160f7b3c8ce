"""The ``KVCCG`` binary on-disk graph format.

A text edge list costs O(m) tokenizing, interning, and sorting on
*every* process start; the paper's pipeline loads a graph once and mines
it hard, so the ingest tax dominates cold start long before the flow
machinery runs.  ``KVCCG`` is the persisted form of an already-built
:class:`~repro.graph.csr.CSRGraph` - the same cure
:mod:`repro.index.store` applied to the hierarchy index (``KVCCIDX``),
applied to the graphs themselves.

Layout (little-endian)::

    b"KVCCG"                magic, 5 bytes
    version                 1 unsigned byte (FORMAT_VERSION)
    flags                   1 unsigned byte (bit 0: labels present)
    n, nnz, labels_len      <IQQ>: vertices, len(indices), label blob
    indptr                  (n + 1) x int32
    indices                 nnz x int32 (neighbor rows, ascending)
    labels                  JSON array, UTF-8 (only if flags bit 0)

The int sections lead and the JSON label blob trails, so a mapped file
can hand out zero-copy ``memoryview.cast("i")`` adjacency immediately
and defer the label decode until something actually asks for a label.

``load_csr`` maps the file, validates the header, and builds the
:class:`CSRGraph` over in-place views: O(header) before the first
neighbor query no matter how many edges the graph has.  The mapping
stays open for as long as any view references it (the views hold the
reference; nothing to close by hand).  The views are native C ints, so
a host whose C ``int`` is not 4-byte little-endian gets a
``ValueError`` from :func:`map_file` instead of misread sections.

:func:`write_kvccg` is the one ``KVCCG`` writer: :func:`save_csr`
hands it a built graph, and the budgeted ingest of
:mod:`repro.data.external` streams its merged rows through it.  It
writes ``indices`` front to back past a hole for the header and
``indptr``, appends the labels in slices, then seeks back to fill the
hole.  It rejects non-scalar labels and graphs whose index space would
overflow int32, instead of writing a file that cannot be read back
faithfully.

This module also holds the two file primitives the persisted files
share: :func:`map_file`, the one way a ``KVCCG``, ``KVCCIDX`` or
``KVCCCOH`` file is opened, and :func:`publish`, the one way those
three, a cache entry's stat sidecar, a fresh delta log and the
compiled c kernel reach disk (whole or not at all).
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import struct
import sys
from array import array
from typing import IO, Callable, Hashable, List, Optional, TypeVar

from repro.graph.csr import CSRGraph, VertexInterner

_T = TypeVar("_T")

#: File signature of a persisted CSR graph.
MAGIC = b"KVCCG"
#: Current on-disk format version (one unsigned byte after the magic).
FORMAT_VERSION = 1

#: Flag bit: the file carries an interner label blob.
_FLAG_LABELS = 1

_HEADER = struct.Struct("<IQQ")  # n_vertices, n_indices, labels_blob_len

#: Bytes before ``indptr``: magic, version byte, flags byte, header.
_PREFIX_BYTES = len(MAGIC) + 2 + _HEADER.size

#: Labels are JSON-encoded this many at a time (see :func:`_write_labels`).
_LABEL_CHUNK = 4096

#: The label types JSON round-trips unchanged (``bool`` is an ``int``).
_JSON_SCALARS = (str, int, float, type(None))


class LazyLabelInterner(VertexInterner):
    """A read-only :class:`VertexInterner` over an undecoded JSON blob.

    The mmap load path attaches one of these so the graph is usable in
    O(header): the label array and the label-to-id dict are built on the
    first call that actually needs a label.  Interning *new* labels is
    rejected - a loaded graph's id space is frozen.
    """

    __slots__ = ("_blob", "_n")

    def __init__(self, blob, n: int) -> None:
        self._blob = blob
        self._n = n
        self._ids = None  # type: ignore[assignment]
        self._labels = None  # type: ignore[assignment]

    def _decode(self) -> None:
        if self._labels is None:
            labels = json.loads(bytes(self._blob).decode("utf-8"))
            self._labels = labels
            self._ids = {label: i for i, label in enumerate(labels)}
            self._blob = None

    def intern(self, label: Hashable) -> int:
        """The id of an existing label; new labels are rejected."""
        self._decode()
        vid = self._ids.get(label)
        if vid is None:
            raise TypeError(
                "cannot intern new labels into a graph loaded from disk"
            )
        return vid

    def __getitem__(self, label: Hashable) -> int:
        self._decode()
        return self._ids[label]

    def get(self, label: Hashable) -> Optional[int]:
        """The id of ``label``, or ``None`` (decodes the blob on first use)."""
        self._decode()
        return self._ids.get(label)

    def label(self, vid: int) -> Hashable:
        """The label interned as ``vid`` (decodes the blob on first use)."""
        self._decode()
        return self._labels[vid]

    @property
    def labels(self) -> List[Hashable]:
        """All labels in id order (decodes the blob on first use)."""
        self._decode()
        return self._labels

    def __contains__(self, label: Hashable) -> bool:
        self._decode()
        return label in self._ids

    def __len__(self) -> int:
        # The header already knows the count; never force a decode.
        return self._n


def publish(path, write: Callable[[str], _T]) -> _T:
    """Put a whole new file at ``path``, or leave ``path`` as it was.

    ``write(tmp)`` fills ``tmp``, a new sibling of ``path`` created
    empty and exclusively with the mode a plain ``open(path, "wb")``
    gives (``0o666`` less the umask); one ``os.replace`` then publishes
    it, and ``write``'s result is returned.  A reader that opens
    ``path`` meanwhile sees the old file or the new one, never part of
    either, and concurrent writers race only on the rename.  If
    ``write`` or the rename raises, the sibling is removed and the
    error propagates.  Every binary file and cache entry the project
    writes, fresh delta logs included, goes through here; log appends
    do not.  Nothing is fsynced.
    """
    directory, name = os.path.split(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f"{name}.{os.urandom(4).hex()}.tmp")
        try:
            os.close(os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
            break
        except FileExistsError:
            continue
    try:
        result = write(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return result


def _write_i32(handle: IO[bytes], values) -> None:
    """Append ``values`` to ``handle`` as little-endian int32.

    One C-level ``array('i')`` conversion (none for an ``array('i')``);
    a value outside int32 raises ``OverflowError``.
    """
    if not (isinstance(values, array) and values.typecode == "i"):
        values = array("i", values)
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        values = array("i", values)
        values.byteswap()
    values.tofile(handle)


def _write_labels(handle: IO[bytes], labels) -> int:
    """Append ``labels`` as one compact JSON array; returns its length.

    The array goes out in slices of :data:`_LABEL_CHUNK` labels, so a
    large label column never becomes one giant string; the joined
    bytes equal one ``json.dumps(labels, separators=(",", ":"))``.
    Each label must be a JSON scalar: a tuple, say, would come back
    from JSON as an unhashable list, so it raises ``TypeError``.
    """
    total = handle.write(b"[")
    for start in range(0, len(labels), _LABEL_CHUNK):
        chunk = list(labels[start : start + _LABEL_CHUNK])
        for label in chunk:
            if not isinstance(label, _JSON_SCALARS):
                raise TypeError(
                    f"cannot persist vertex label {label!r} of type "
                    f"{type(label).__name__}; KVCCG stores labels as JSON "
                    f"scalars (str/int/float/bool/None)"
                )
        if start:
            total += handle.write(b",")
        blob = json.dumps(chunk, separators=(",", ":")).encode("utf-8")
        total += handle.write(blob[1:-1])
    return total + handle.write(b"]")


def write_kvccg(path, n: int, indptr, indices, labels=None) -> int:
    """Publish a KVCCG file at ``path``; returns its index count.

    The one KVCCG writer (:func:`publish` puts the file in place).
    ``indices`` is an iterable of int chunks that concatenate to the
    ``indices`` section.  They are written front to back at their final
    offset, past a hole left for the header and ``indptr``; those two
    are written last, so a caller may fill ``indptr`` (``n + 1``
    offsets) while it yields the chunks, as the external sort of
    :mod:`repro.data.external` does.  ``labels`` is the label column
    (JSON scalars), or ``None`` for a graph whose ids are its labels.

    Raises ``TypeError`` for a non-scalar label and ``ValueError`` when
    ``n`` or the index count does not fit the int32 sections.
    """
    if n >= 2**31:
        raise ValueError(f"graph too large for the int32 KVCCG sections: n={n}")

    def write(tmp: str) -> int:
        nnz = 0
        with open(tmp, "wb") as out:
            out.seek(_PREFIX_BYTES + 4 * (n + 1))
            for chunk in indices:
                _write_i32(out, chunk)
                nnz += len(chunk)
            if nnz >= 2**31:
                raise ValueError(
                    f"graph too large for the int32 KVCCG sections: nnz={nnz}"
                )
            labels_len = 0 if labels is None else _write_labels(out, labels)
            flags = 0 if labels is None else _FLAG_LABELS
            out.seek(0)
            out.write(MAGIC + bytes([FORMAT_VERSION, flags]))
            out.write(_HEADER.pack(n, nnz, labels_len))
            _write_i32(out, indptr)
        return nnz

    return publish(path, write)


def save_csr(csr: CSRGraph, path) -> None:
    """Publish ``csr`` as a KVCCG file at ``path``."""
    labels = None if csr.interner is None else csr.interner.labels
    write_kvccg(path, csr.n, csr.indptr, (csr.indices,), labels)


def _check_prefix(buf: bytes, path) -> tuple:
    """Validate magic/version and unpack the fixed header from ``buf``.

    ``buf`` must hold at least the fixed-size prefix; returns
    ``(flags, n, nnz, labels_len, body_start)``.
    """
    prefix = len(MAGIC)
    if len(buf) < _PREFIX_BYTES:
        raise ValueError(f"{path}: truncated graph header")
    if buf[:prefix] != MAGIC:
        raise ValueError(
            f"{path}: not a KVCCG graph file "
            f"(bad magic {bytes(buf[:prefix])!r}, expected {MAGIC!r})"
        )
    version = buf[prefix]
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported KVCCG format version {version} "
            f"(this build reads version {FORMAT_VERSION}); re-ingest "
            f"the source edge list"
        )
    flags = buf[prefix + 1]
    n, nnz, labels_len = _HEADER.unpack_from(buf, prefix + 2)
    return flags, n, nnz, labels_len, _PREFIX_BYTES


def _expected_body(flags: int, n: int, nnz: int, labels_len: int) -> int:
    """Byte length of the sections after the fixed header."""
    labels = labels_len if flags & _FLAG_LABELS else 0
    return 4 * (n + 1) + 4 * nnz + labels


def map_file(path, what: str) -> _mmap.mmap:
    """Map ``path`` read-only for a loader that views its sections in place.

    Every binary format here (``KVCCG``, ``KVCCIDX``, ``KVCCCOH``)
    stores little-endian 4-byte ints that ``memoryview.cast("i")``
    reads as native C ints, so a host whose C ``int`` is anything else
    is refused with a ``ValueError`` rather than handed misread
    sections.  ``what`` names the format in the error messages.
    """
    if sys.byteorder != "little" or struct.calcsize("i") != 4:
        raise ValueError(
            f"{path}: cannot map a {what} file on this host: its sections "
            f"are little-endian 4-byte ints, and the native C int is not"
        )
    with open(path, "rb") as handle:
        try:
            return _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
        except ValueError:
            # Zero-length files cannot be mapped.
            raise ValueError(f"{path}: truncated {what} header") from None


def load_csr(path) -> CSRGraph:
    """Map a KVCCG file written by :func:`save_csr`.

    Validates magic, version, body length and the ``indptr`` endpoints
    without faulting in the adjacency pages themselves; the rows in
    between are checked where they are read (the c kernel on every
    read, :attr:`CSRGraph.rows` when it boxes them).

    Raises
    ------
    ValueError
        If the file is not a KVCCG graph (wrong magic), was written by
        an unsupported format version, is truncated, or its ``indptr``
        endpoints disagree with its indices.
    """
    mapped = map_file(path, "graph")
    try:
        flags, n, nnz, labels_len, body_start = _check_prefix(mapped, path)
        expected = _expected_body(flags, n, nnz, labels_len)
        if len(mapped) - body_start != expected:
            raise ValueError(
                f"{path}: truncated graph body "
                f"({len(mapped) - body_start} bytes, expected {expected})"
            )
        # O(1) endpoint cross-check before any view is exported (once
        # views exist, the error path could no longer close the mapping).
        first = struct.unpack_from("<i", mapped, body_start)[0]
        last = struct.unpack_from("<i", mapped, body_start + 4 * n)[0]
        if first != 0 or last != nnz:
            raise ValueError(
                f"{path}: corrupt graph (indptr endpoints [{first}, "
                f"{last}] do not match the declared {nnz} indices)"
            )
    except ValueError:
        mapped.close()
        raise
    view = memoryview(mapped)
    offset = body_start
    indptr = view[offset : offset + 4 * (n + 1)].cast("i")
    offset += 4 * (n + 1)
    indices = view[offset : offset + 4 * nnz].cast("i")
    offset += 4 * nnz
    interner = None
    if flags & _FLAG_LABELS:
        interner = LazyLabelInterner(view[offset : offset + labels_len], n)
    # The views (and the lazy label blob) hold the only references to
    # the mapping; reference counting closes it when the last one dies.
    csr = CSRGraph(n, indptr, indices, interner)
    # Hand the out-of-core driver enough to madvise consumed adjacency
    # ranges back to the kernel between components (CSRGraph.release_rows).
    csr._mm = (mapped, body_start + 4 * (n + 1))
    return csr
