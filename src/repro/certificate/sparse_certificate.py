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

from typing import Callable, List, Optional, Set, Union

import repro.kernels as kernels
from repro.certificate.scan_first_search import ForestEdge
from repro.graph.csr import IntAdjacency, SubgraphView

Forests = List[List[ForestEdge]]


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
        ``F_k``).  A kernel may hand them over as a zero-argument
        function instead (the c kernel decodes its flat edge buffer only
        when a caller asks).
    k:
        The connectivity threshold the certificate was built for.
    groups:
        ``F_k``'s components with more than ``k`` vertices (the
        side-groups of Section 5.3), when the kernel computed them along
        with the forests; ``None`` to derive them from ``F_k`` on
        demand.
    """

    __slots__ = ("graph", "_forests", "k", "groups")

    def __init__(
        self,
        graph: IntAdjacency,
        forests: Union[Forests, Callable[[], Forests], None] = None,
        k: int = 1,
        groups: Optional[List[Set[int]]] = None,
    ) -> None:
        self.graph = graph
        self._forests = [] if forests is None else forests
        self.k = k
        self.groups = groups

    @property
    def forests(self) -> Forests:
        forests = self._forests
        if callable(forests):
            forests = self._forests = forests()
        return forests


def sparse_certificate(view: SubgraphView, k: int) -> SparseCertificate:
    """Build the k-connectivity sparse certificate of a CSR view.

    Runs k scan-first searches, each excluding all previously extracted
    forest edges, and unions the forests (Theorem 5) in O(k (n + m))
    time, where ``n`` and ``m`` count the view's *active* vertices and
    edges: no step does work per base vertex, so a small view of a
    large base costs what the same view would cost alone.  For graphs
    that are already sparse (``m <= k (n - 1)``) the construction still
    runs - the forests are needed for side-groups - but the certificate
    may equal the input graph.

    The whole construction is one kernel call (:mod:`repro.kernels`);
    both kernels give identical forests, edge for edge, and identical
    rows in identical fill order, and the c kernel also returns
    ``F_k``'s side-groups.  The certificate comes back as an
    :class:`IntAdjacency` with rows for the view's members only, in
    base ids.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    graph, forests, groups = kernels.select().certificate(view, k)
    return SparseCertificate(graph, forests, k, groups)
