"""Sparse certificates for k-vertex connectivity (Section 4.2).

A *certificate* (Definition 7) is an edge subset ``E'`` such that
``(V, E')`` is k-connected iff ``G`` is; it is *sparse* (Definition 8) if
it has O(k n) edges.  Following Cheriyan, Kao and Thurimella (Theorem 5),
the union of k successive *scan-first search* forests is a sparse
certificate with at most ``k (n - 1)`` edges.

Besides shrinking the graph handed to the flow machinery, the k-th forest
``F_k`` yields the *side-groups* of Section 5.2 (Theorem 10): each
connected component of ``F_k`` is a set of pairwise k-locally-connected
vertices, which powers the group-sweep pruning rules.
"""

from repro.certificate.sparse_certificate import (
    SparseCertificate,
    sparse_certificate,
)
from repro.certificate.side_groups import side_groups_from_forest

__all__ = [
    "SparseCertificate",
    "sparse_certificate",
    "side_groups_from_forest",
]
