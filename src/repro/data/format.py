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

``save_csr`` rejects non-scalar labels up front and refuses graphs
whose index space would overflow int32, instead of writing a file that
cannot be read back faithfully.
"""

from __future__ import annotations

import json
import mmap as _mmap
import struct
import sys
from array import array
from typing import Hashable, List, Optional

from repro.graph.csr import CSRGraph, VertexInterner

#: File signature of a persisted CSR graph.
MAGIC = b"KVCCG"
#: Current on-disk format version (one unsigned byte after the magic).
FORMAT_VERSION = 1

#: Flag bit: the file carries an interner label blob.
_FLAG_LABELS = 1

_HEADER = struct.Struct("<IQQ")  # n_vertices, n_indices, labels_blob_len



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


def _labels_blob(interner: Optional[VertexInterner]) -> bytes:
    """Encode interner labels as compact JSON, validating scalar-ness."""
    if interner is None:
        return b""
    labels = interner.labels
    for label in labels:
        if label is not None and not isinstance(
            label, (str, int, float, bool)
        ):
            raise TypeError(
                f"cannot persist vertex label {label!r} of type "
                f"{type(label).__name__}; KVCCG stores labels as JSON "
                f"scalars (str/int/float/bool/None)"
            )
    return json.dumps(labels, separators=(",", ":")).encode("utf-8")


def _pack_i32(values) -> bytes:
    """Little-endian int32 packing of an int sequence.

    Values outside int32 raise ``OverflowError`` - better loudly at save
    time than a corrupt file at load time.
    """
    out = array("i", values)
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        out.byteswap()
    return out.tobytes()


def save_csr(csr: CSRGraph, path) -> None:
    """Write ``csr`` as a KVCCG file at ``path``."""
    n = csr.n
    nnz = len(csr.indices)
    if n >= 2**31 or nnz >= 2**31:
        raise ValueError(
            f"graph too large for the int32 KVCCG sections "
            f"(n={n}, nnz={nnz})"
        )
    blob = _labels_blob(csr.interner)
    flags = _FLAG_LABELS if csr.interner is not None else 0
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(bytes([FORMAT_VERSION, flags]))
        handle.write(_HEADER.pack(n, nnz, len(blob)))
        handle.write(_pack_i32(csr.indptr))
        handle.write(_pack_i32(csr.indices))
        handle.write(blob)


def _check_prefix(buf: bytes, path) -> tuple:
    """Validate magic/version and unpack the fixed header from ``buf``.

    ``buf`` must hold at least the fixed-size prefix; returns
    ``(flags, n, nnz, labels_len, body_start)``.
    """
    prefix = len(MAGIC)
    if len(buf) < prefix + 2 + _HEADER.size:
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
    return flags, n, nnz, labels_len, prefix + 2 + _HEADER.size


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
