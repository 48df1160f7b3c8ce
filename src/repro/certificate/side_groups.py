"""Side-groups (Definition 12, Theorem 10).

A *side-group* is a vertex set in which every pair is k-locally
connected.  Theorem 10: every connected component of the k-th scan-first
forest ``F_k`` is a side-group (if it were split by a < k vertex cut,
``F_k`` would contain a tree path crossing the cut, contradicting
Lemma 18).

The sweep machinery (Section 5.3) only registers groups with **more than
k vertices**: group-sweep rule 2 needs k tested vertices inside a group
before it can fire, so smaller groups can never be swept as a group.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.certificate.scan_first_search import forest_components
from repro.certificate.sparse_certificate import SparseCertificate
from repro.graph.graph import Vertex


def side_groups_from_forest(
    cert: SparseCertificate, k: int
) -> List[Set[Vertex]]:
    """Side-groups of size > k derived from the certificate's ``F_k``.

    Returns a list of vertex sets, ordered by smallest member; a vertex
    belongs to at most one group (forest components are disjoint).
    The c kernel computes them with the certificate (``cert.groups``).
    """
    if cert.groups is not None and k == cert.k:
        return list(cert.groups)
    last = cert.forests[-1] if cert.forests else []
    return [
        component
        for component in forest_components(cert.graph.vertices(), last)
        if len(component) > k
    ]


def group_index(groups: List[Set[Vertex]]) -> Dict[Vertex, int]:
    """Map each grouped vertex to its group id (ungrouped vertices absent)."""
    index: Dict[Vertex, int] = {}
    for gid, members in enumerate(groups):
        for v in members:
            index[v] = gid
    return index
