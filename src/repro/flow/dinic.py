"""Dinic's max-flow with early termination at ``k`` (Lemma 6).

LOC-CUT only needs to distinguish ``kappa(u, v) >= k`` from
``kappa(u, v) < k``; the exact flow value beyond ``k`` is irrelevant.
Dinic on a unit-vertex-capacity network finds a blocking flow per phase in
O(m) and needs O(sqrt(n)) phases in the worst case (Even-Tarjan), matching
the paper's ``O(min(n^1/2, k) * m)`` bound once the flow is capped at
``k``: every phase adds at least one unit, so at most ``k`` phases run
before early exit.

The BFS/DFS loops themselves live in :mod:`repro.kernels` (the
pure-python reference and the c kernel compiled from ``kernel.c``; both
produce identical flows, residual states and therefore identical min
cuts).  Each keeps its arc-by-tail index and ``level`` / ``iter``
scratch cached per network, and the ``FlowNetwork``'s dirty-arc
tracking means repeated queries on the same network cost only a
:meth:`~repro.flow.flow_network.FlowNetwork.reset`.
"""

from __future__ import annotations

import repro.kernels as kernels
from repro.flow.flow_network import FlowNetwork


def max_flow_min_k(net: FlowNetwork, source: int, sink: int, k: int) -> int:
    """Max flow from ``source`` to ``sink``, stopping once it reaches ``k``.

    Returns ``min(true_max_flow, k)``.  The residual state is left in
    place so the caller can extract a minimum cut when the returned value
    is < k; call :meth:`FlowNetwork.reset` before reusing the network.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    return kernels.select().max_flow(net, source, sink, k)
