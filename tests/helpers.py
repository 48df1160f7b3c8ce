"""Shared plain-function helpers for the test suite.

These used to live in ``tests/conftest.py``, but test modules importing
them via ``from conftest import ...`` would resolve ``conftest`` to
whichever conftest directory pytest put on ``sys.path`` first (the
benchmarks' one, when collecting from the repo root), breaking
collection.  A regular module has no such ambiguity: pytest prepends
``tests/`` to ``sys.path`` when importing the test modules here, so
``from helpers import ...`` always finds this file.

Fixtures stay in ``tests/conftest.py``; only importable helpers live
here.
"""

from __future__ import annotations

import random
from array import array
from typing import List, Set

from repro.graph.csr import CSRGraph, SubgraphView
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """A connected G(n, p): resample edges onto a random spanning tree."""
    rng = random.Random(seed)
    g = gnp_random_graph(n, p, seed=seed)
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        if not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


def as_view(graph: Graph) -> SubgraphView:
    """A CSR view of an int-labeled ``graph`` whose ids equal its labels.

    Everything from GLOBAL-CUT down takes views and speaks base ids.
    Building the base without an interner, one id per label up to the
    largest, lets a test hand those steps a view and check their answers
    against the ``Graph`` itself (or networkx) with no id translation.
    """
    n = max(graph.vertices(), default=-1) + 1
    indptr = array("l", [0]) * (n + 1)
    indices = array("l")
    for v in range(n):
        if v in graph:
            indices.extend(sorted(graph.neighbors(v)))
        indptr[v + 1] = len(indices)
    return CSRGraph(n, indptr, indices).view_from_members(graph.vertices())


def vertex_set_family(graphs) -> Set[frozenset]:
    """Canonical comparison form for a list of Graphs or vertex sets."""
    out = set()
    for item in graphs:
        if isinstance(item, Graph):
            out.add(frozenset(item.vertices()))
        else:
            out.add(frozenset(item))
    return out


def assert_is_induced_subgraph(sub: Graph, parent: Graph) -> None:
    """Every returned component must be an induced subgraph of its parent."""
    for v in sub.vertices():
        assert v in parent
    vs = sub.vertex_set()
    for u in vs:
        expected = parent.neighbors(u) & vs
        assert sub.neighbors(u) == expected, (
            f"{u}: {sorted(sub.neighbors(u))} != {sorted(expected)}"
        )


def small_k_values(graph: Graph) -> List[int]:
    """k values worth testing on a small graph: 1..min_degree+2."""
    if graph.num_vertices == 0:
        return [1]
    hi = min(6, graph.max_degree() + 1)
    return list(range(1, hi + 1))
