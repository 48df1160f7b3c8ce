"""Sparse certificate construction (Theorem 5, Example 5).

``sparse_certificate(G, k)`` extracts k successive scan-first forests
``F_1 .. F_k``, each on the graph minus the previous forests' edges, and
returns their union as a new graph together with ``F_k`` (whose connected
components are the side-groups of Section 5.2).

Properties guaranteed by Cheriyan-Kao-Thurimella and exercised by tests:

* the certificate has at most ``k (n - 1)`` edges;
* ``SC`` is k-vertex-connected iff ``G`` is;
* stronger (what GLOBAL-CUT actually relies on): for any vertex set ``S``
  with ``|S| < k``, ``SC - S`` and ``G - S`` have the same connected
  components, so a < k cut found on SC is a cut of G and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

import repro.kernels as kernels
from repro.certificate.scan_first_search import ForestEdge, forest_components
from repro.graph.csr import IntAdjacency, SubgraphView


@dataclass
class SparseCertificate:
    """The output of the certificate construction.

    Attributes
    ----------
    graph:
        The certificate subgraph ``(V, E_1 ∪ ... ∪ E_k)`` as an
        :class:`~repro.graph.csr.IntAdjacency` with rows for the view's
        members, keyed by base id.
    forests:
        The k scan-first forests, in extraction order (``forests[-1]`` is
        ``F_k``).
    k:
        The connectivity threshold the certificate was built for.
    """

    graph: IntAdjacency
    forests: List[List[ForestEdge]] = field(default_factory=list)
    k: int = 1

    @property
    def last_forest(self) -> List[ForestEdge]:
        """``F_k``, whose components are side-group candidates."""
        return self.forests[-1] if self.forests else []

    def side_group_components(self) -> List[Set[int]]:
        """Connected components of ``F_k`` (Theorem 10 side-groups).

        Includes singleton components; the caller filters by size (the
        sweep machinery only keeps groups larger than k, per Section 5.3).
        """
        return forest_components(self.graph.vertices(), self.last_forest)


def sparse_certificate(view: SubgraphView, k: int) -> SparseCertificate:
    """Build the k-connectivity sparse certificate of a CSR view.

    Runs k scan-first searches, each excluding all previously extracted
    forest edges, and unions the forests (Theorem 5) in O(k (n + m))
    time, where ``n`` and ``m`` count the view's *active* vertices and
    edges: no step creates a Python object per base vertex (only
    C-level base-length fills such as a ``bytearray`` mask), so a small
    view of a large base costs what the same view would cost alone.
    For graphs that are already sparse (``m <= k (n - 1)``) the
    construction still runs - the forests are needed for side-groups -
    but the certificate may equal the input graph.

    Forest extraction and the adjacency union are kernel calls
    (:mod:`repro.kernels`): the python kernel runs the compacted-slot
    FIFO scan of :mod:`repro.certificate.scan_first_search`, the numpy
    kernel a level-synchronous vectorized equivalent; both return
    identical forests, edge for edge, and identical adjacency rows,
    in identical order.  The certificate comes back as an
    :class:`IntAdjacency` with rows for the view's members only, in
    base ids, ready for the integer flow-network builder and the sweep
    machinery.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    kern = kernels.select()
    forests: List[List[ForestEdge]] = kern.scan_first_forests(view, k)
    cert = IntAdjacency(view.base.n, view.active_list())
    kern.fill_forest_adjacency(cert, forests)
    return SparseCertificate(graph=cert, forests=forests, k=k)
