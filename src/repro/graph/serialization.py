"""Persisting graphs and k-VCC decompositions as JSON.

A decomposition run on a large graph is expensive; downstream analyses
(membership queries, overlap statistics, the case-study rendering) want
to reload it without recomputing.  The schema is deliberately plain::

    {
      "k": 4,
      "components": [[0, 1, 2, 3, 4], ...],
      "graph": {"vertices": [...], "edges": [[u, v], ...]}   # optional
    }

Vertex labels must be JSON-representable (int / str); mixed labels
round-trip as written.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.graph.graph import Graph, Vertex

PathLike = Union[str, Path]


def decomposition_to_dict(
    components: Iterable[Iterable[Vertex]],
    k: int,
    graph: Optional[Graph] = None,
) -> dict:
    """Build the JSON-ready dictionary for a decomposition."""
    payload = {
        "k": k,
        "components": [
            sorted(c.vertices()) if isinstance(c, Graph) else sorted(c)
            for c in components
        ],
    }
    if graph is not None:
        payload["graph"] = {
            "vertices": sorted(graph.vertices()),
            "edges": sorted(sorted(e) for e in graph.edges()),
        }
    return payload


def save_decomposition(
    path: PathLike,
    components: Iterable[Iterable[Vertex]],
    k: int,
    graph: Optional[Graph] = None,
) -> None:
    """Write a decomposition (optionally with its graph) to JSON."""
    payload = decomposition_to_dict(components, k, graph)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def load_decomposition(path: PathLike) -> dict:
    """Load a saved decomposition.

    Returns a dict with keys ``k`` (int), ``components`` (list of vertex
    sets) and, when the file carries one, ``graph`` (a :class:`Graph`).

    Raises
    ------
    ValueError
        If the payload is missing required keys or malformed.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict) or "k" not in raw or "components" not in raw:
        raise ValueError("not a decomposition file: missing 'k'/'components'")
    out = {
        "k": int(raw["k"]),
        "components": [set(c) for c in raw["components"]],
    }
    if "graph" in raw:
        spec = raw["graph"]
        g = Graph(vertices=spec.get("vertices", ()))
        for u, v in spec.get("edges", ()):
            g.add_edge(u, v)
        out["graph"] = g
    return out
