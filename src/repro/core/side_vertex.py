"""Strong side-vertex detection and maintenance (Section 5.1.1).

A *side-vertex* (Definition 9) is a vertex contained in no vertex cut
smaller than k; sweeping through one is what makes the k-local
connectivity relation transitive (Lemma 11).  Deciding side-vertexness
exactly is as hard as the original problem, so the paper uses the
sufficient condition of Theorem 8: ``u`` is a **strong side-vertex** if
every pair of its neighbors is adjacent or shares at least k common
neighbors (Lemmas 12, 13, 5).

Detection cost is ``O(sum_w d(w)^2)`` (Lemma 14).  Across the recursive
partitions, Lemmas 15-16 let children inherit the parent's verdicts: a
vertex whose 1-hop and 2-hop neighborhoods survived the partition intact
keeps its status without a recheck.  We implement the sound core of that
idea: a parent-strong vertex is inherited if its own degree and all its
neighbors' degrees are unchanged in the child (for induced subgraphs,
equal degree means an identical neighbor set, so the whole Theorem-8
certificate is untouched); every other parent-strong vertex is rechecked.
Parent-non-strong vertices are skipped per Lemma 15.  Note Lemma 15 is an
under-approximation for vertices of the cut itself - it can only lose
pruning opportunities, never soundness, because a vertex is only ever
*treated* as strong after passing Theorem 8 on some ancestor whose
relevant neighborhoods are provably identical.

Both steps run on CSR :class:`~repro.graph.csr.SubgraphView` worklist
items and speak base ids.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

import repro.kernels as kernels
from repro.graph.csr import SubgraphView


def strong_side_vertices(
    view: SubgraphView,
    k: int,
    candidates: Optional[Iterable[int]] = None,
) -> Set[int]:
    """All strong side-vertices of ``view`` (restricted to ``candidates``).

    ``candidates=None`` scans every active vertex; the KVCC-ENUM
    recursion passes the inherited candidate set computed by
    :func:`split_inheritance`.  Ids that are not active in ``view`` are
    skipped.

    The scan is a kernel call: the python kernel shares each
    neighbor's active set and each pair verdict across the whole scan;
    the c kernel tests each pair by merging sorted CSR rows.  Both
    return the same set, filled in the same order.
    """
    return kernels.select().strong_side_vertices(view, k, candidates)


def split_inheritance(
    parent: SubgraphView,
    child: SubgraphView,
    parent_strong: Set[int],
) -> tuple:
    """Partition the parent's strong set for a child view on one base.

    Returns ``(inherited, recheck)``:

    * ``inherited`` - vertices provably still strong in ``child``: their
      degree and all their neighbors' degrees match the parent's, so the
      entire 2-hop certificate of Theorem 8 is byte-identical;
    * ``recheck`` - parent-strong vertices present in ``child`` whose
      neighborhoods changed; they must pass Theorem 8 again.

    Vertices that were not strong in the parent are in neither set
    (Lemma 15's candidate restriction).
    """
    inherited: Set[int] = set()
    recheck: Set[int] = set()
    rows = parent.base.rows
    p_deg, c_deg = parent.deg, child.deg
    c_mask = child.mask
    for v in parent_strong:
        if not c_mask[v]:
            continue
        if c_deg[v] != p_deg[v]:
            recheck.add(v)
            continue
        # child active-set is a subset of the parent's: equal degree
        # means the same neighbors, so only neighbor degrees remain.
        for w in rows[v]:
            if c_mask[w] and c_deg[w] != p_deg[w]:
                recheck.add(v)
                break
        else:
            inherited.add(v)
    return inherited, recheck
