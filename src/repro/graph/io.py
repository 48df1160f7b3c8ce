"""Reading and writing edge lists (including the SNAP text format).

The paper's seven datasets are SNAP downloads: whitespace-separated
``u v`` pairs, ``#`` comment lines, sometimes directed (we symmetrize).
The library has no network access, so the experiment drivers use the
synthetic stand-ins from :mod:`repro.datasets.registry`; this module
exists so a user *with* the real files can reproduce on them directly::

    from repro.graph import read_snap_file
    g = read_snap_file("web-Stanford.txt")

Every reader here parses through the streaming CSR reader of
:mod:`repro.data.ingest`, so each accepts the same dialects (whitespace
or CSV, ``#`` comments, ``.gz``).  For large inputs prefer
:func:`read_edge_list_csr`, which builds no dict ``Graph``, or better,
the cached loader :func:`repro.data.load_graph_csr`, which parses once
and mmap-loads a binary ``KVCCG`` file thereafter.

Vertex labels are normalized per file to all-int or all-str (see
:func:`repro.data.ingest.normalize_mixed_labels`): a file mixing
numeric and alphanumeric ids yields uniformly-string labels, so
downstream ``sorted()`` over any vertex set cannot raise a mixed-type
``TypeError``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.graph.graph import Graph

PathLike = Union[str, Path]


def read_edge_list(
    path: PathLike,
    comment: str = "#",
    directed: bool = False,
) -> Graph:
    """Read an edge list into a :class:`Graph`.

    The file goes through the one tokenizer every ingest path shares
    (:func:`repro.data.ingest.iter_edge_labels`), so its dialects hold
    here too: whitespace or CSV (with a header row skipped), ``.gz``.
    Vertices are parsed as ``int`` when possible, else kept as strings;
    if a file mixes both, every int label is converted to its string
    form so the finished label set is uniformly orderable.  Self loops
    are skipped (the library's graphs are simple); for ``directed``
    inputs each arc is added as an undirected edge, which is how the
    paper treats the directed SNAP web/citation graphs.

    Parameters
    ----------
    comment:
        Lines starting with this prefix are ignored.
    directed:
        Accepted for documentation purposes; symmetrization is implicit
        because :class:`Graph` is undirected.
    """
    del directed  # symmetrization is implicit for an undirected Graph
    csr, _ = read_edge_list_csr(path, comment=comment)
    return csr.to_graph()


def read_snap_file(path: PathLike) -> Graph:
    """Read a SNAP-format graph (``#`` comments, tab-separated arcs)."""
    return read_edge_list(path, comment="#", directed=True)


def read_edge_list_csr(path: PathLike, comment: str = "#"):
    """Read an edge list straight into the CSR backend.

    The boundary constructor for large inputs: one streaming pass,
    labels interned to dense ids as they go by, adjacency assembled by
    counting sort - no dict-of-sets graph is ever built.  Returns
    ``(csr, interner)``; see :mod:`repro.data.ingest` for the dialect
    and label-normalization rules.
    """
    from repro.data.ingest import read_edge_list_csr as _read

    return _read(path, comment=comment)


def write_edge_list(graph: Graph, path: PathLike, header: bool = True) -> None:
    """Write the graph as a ``u v`` edge list (one edge per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(
                f"# undirected graph: {graph.num_vertices} vertices, "
                f"{graph.num_edges} edges\n"
            )
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
