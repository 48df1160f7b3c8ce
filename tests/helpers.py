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
import socket
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


def string_labeled(graph: Graph, prefix: str) -> Graph:
    """A copy of ``graph`` with vertex ``v`` renamed ``f"{prefix}{v}"``,
    in the same vertex order, so inputs cross the interner boundary."""
    out = Graph(vertices=[f"{prefix}{v}" for v in graph.vertices()])
    for u, v in graph.edges():
        out.add_edge(f"{prefix}{u}", f"{prefix}{v}")
    return out


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


#: ``/v1`` requests covering every endpoint, batch shape and error path,
#: against a dataset registered as ``g``.
PARITY_CATALOG = [
    ("/v1/g/vcc-number", {"v": ["0"]}),
    ("/v1/g/vcc-number", {"v": ["05"]}),
    ("/v1/g/vcc-number", {"v": [str(i) for i in range(40)]}),
    ("/v1/g/vcc-number", {"v": ["05", "5", "nope"]}),
    ("/v1/g/same-kvcc", {"u": ["0"], "v": ["7"], "k": ["2"]}),
    ("/v1/g/same-kvcc",
     {"k": ["2"], "pair": [f"{i}:{i + 1}" for i in range(30)]}),
    ("/v1/g/components-of", {"v": ["3"], "k": ["2"]}),
    ("/v1/g/max-shared-level", {"u": ["0"], "v": ["9"]}),
    ("/v1/g/max-shared-level",
     {"pair": [f"{i}:{40 - i}" for i in range(30)]}),
    ("/v1/g/vcc-number", {}),                                       # 400
    ("/v1/g/vcc-number", {"x": ["1"]}),                             # 400
    ("/v1/g/same-kvcc", {"u": ["0"], "v": ["1"], "k": ["zero"]}),   # 400
    ("/v1/g/same-kvcc", {"u": ["0"], "v": ["1"], "k": ["0"]}),      # 400
    ("/v1/g/same-kvcc", {"k": ["2"], "pair": ["junk"]}),            # 400
    ("/v1/g/same-kvcc", {"k": ["2", "2"], "pair": ["0:1"]}),        # 400
    ("/v1/nope/vcc-number", {"v": ["1"]}),                          # 404
    ("/v1/g/nope", {"v": ["1"]}),                                   # 404
    ("/nowhere", {}),                                               # 404
]


def read_to_eof(sock) -> bytes:
    """Everything the server sends until it closes the connection (a
    server that never closes fails the test with a socket timeout)."""
    blob = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return blob
        blob += chunk


def split_responses(blob: bytes) -> list:
    """Split a reply stream into ``(status, headers, body)`` responses
    by Content-Length (header names and values lower-cased)."""
    responses = []
    while blob:
        head, _, rest = blob.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip().lower()
        length = int(headers.get(b"content-length", b"0"))
        responses.append((int(lines[0].split()[1]), headers, rest[:length]))
        blob = rest[length:]
    return responses


def raw_exchange(host, port, payload: bytes) -> list:
    """Send raw request bytes, read to EOF, and split the replies."""
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(payload)
        return split_responses(read_to_eof(sock))
