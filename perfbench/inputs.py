"""Seeded input generators: every workload input comes from here.

The program under test only ever sees the files these functions write.
Each generator draws from its own ``random.Random`` seeded from the
workload seed, so one seed gives byte-identical files on every run.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import Dict, List, Sequence, Tuple

from repro.datasets.registry import DATASETS, scaled_k_values
from repro.graph.generators import (
    citation_graph,
    collaboration_graph,
    gnp_random_graph,
    web_graph,
)

Edge = Tuple[int, int]


def stand_ins(seed: int) -> List[Tuple[str, List[Edge], List[int]]]:
    """The seven registry stand-ins with their ``scaled_k_values`` grid.

    The seed relabels each graph with a random permutation and shuffles
    its edge order: the structure (and so the paper's Fig. 10 protocol)
    is the registry's, while vertex ids, ingest order and every
    tie-break that depends on them change with the seed.
    """
    out = []
    for index, (name, spec) in enumerate(DATASETS.items()):
        graph = spec.build()
        rng = random.Random(seed * 1_000_003 + index)
        vertices = sorted(graph.vertices())
        relabel = dict(zip(vertices, rng.sample(range(len(vertices)),
                                                len(vertices))))
        edges = [
            (relabel[u], relabel[v]) if rng.random() < 0.5
            else (relabel[v], relabel[u])
            for u, v in graph.edges()
        ]
        rng.shuffle(edges)
        out.append((name, edges, scaled_k_values(graph)))
    return out


def tenant_graph(
    seed: int, tenants: int, size: int, fringe: int = 0, mixed: bool = True
) -> Tuple[List[Edge], List[Tuple[int, int]]]:
    """Disjoint tenants plus an optional tree fringe.

    Tenant ``t`` occupies ids ``[offset, offset + size)``.  Mixed
    tenants are a web, social, collaboration or citation graph in turn,
    with parameters cycling through a fixed list; otherwise every tenant
    is the same web graph shape.  Either way every seed gets the same
    tenant shapes, and only their random structure differs.  The fringe is
    ``fringe`` extra vertices, each hanging off one earlier vertex, so
    it is peeled at level 2 but inflates ingest and level-1 work.
    Returns the shuffled edge list and the ``(offset, size)`` ranges.
    """
    rng = random.Random(seed * 7_919 + tenants)
    edges: List[Edge] = []
    ranges: List[Tuple[int, int]] = []
    offset = 0
    for t in range(tenants):
        sub_seed = rng.randrange(1 << 30)
        kind, variant = (t % 4, (t // 4) % 3) if mixed else (0, 0)
        if kind == 0:
            graph = web_graph(size, out_degree=(5, 6, 7)[variant],
                              copy_prob=0.65, seed=sub_seed)
        elif kind == 1:
            graph = gnp_random_graph(size, (0.08, 0.1, 0.12)[variant],
                                     seed=sub_seed)
        elif kind == 2:
            graph = collaboration_graph(size, size * (2, 3, 4)[variant],
                                        mean_paper_size=2.9, seed=sub_seed)
        else:
            graph = citation_graph(size, refs=(4, 5, 6)[variant],
                                   seed=sub_seed)
        edges.extend((u + offset, v + offset) for u, v in graph.edges())
        ranges.append((offset, size))
        offset += size
    for i in range(fringe):
        if i == 0 or rng.random() < 0.5:
            start, width = ranges[rng.randrange(len(ranges))]
            anchor = start + rng.randrange(width)
        else:
            anchor = offset + rng.randrange(i)
        edges.append((anchor, offset + i))
    rng.shuffle(edges)
    return edges, ranges


def write_edge_list(path: str, edges: Sequence[Edge]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{u} {v}\n" for u, v in edges))


def file_digest(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


#: Zipf exponent of the ``serve`` keys: YCSB's default request
#: distribution constant (0.99; Cooper et al., "Benchmarking Cloud
#: Serving Systems with YCSB", SoCC 2010).  This service has no recorded
#: traffic to fit one to.
ZIPF_S = 0.99

#: Edges per write batch on ``serve-write``.
WRITE_BATCH_EDGES = 4


class ZipfKeys:
    """Keys drawn with probability proportional to ``1 / rank **``
    :data:`ZIPF_S` over a seeded shuffle of ``population``."""

    def __init__(self, population: Sequence, rng: random.Random) -> None:
        self.keys = list(population)
        rng.shuffle(self.keys)
        total = 0.0
        self.cumulative = []
        for r in range(1, len(self.keys) + 1):
            total += 1.0 / r ** ZIPF_S
            self.cumulative.append(total)
        self.rng = rng

    def draw(self):
        point = self.rng.random() * self.cumulative[-1]
        return self.keys[bisect.bisect_left(self.cumulative, point)]


def tenant_mutations(
    seed: int,
    edges: Sequence[Edge],
    ranges: Sequence[Tuple[int, int]],
    batches: int,
) -> List[List[Dict[str, object]]]:
    """Tenant-local insert/delete batches in the ``POST .../edges`` shape.

    Each batch picks one tenant and mutates :data:`WRITE_BATCH_EDGES`
    edges inside
    it, half inserts of absent edges and half deletes of present ones,
    tracking the evolving edge set: no duplicate insert, no delete of
    an absent edge, no edge between tenants, and no edge touched twice
    in one batch.  Tenants never merge, so the cost of a write does not
    drift through a run.
    """
    rng = random.Random(seed * 104_729)
    present = {(min(u, v), max(u, v)) for u, v in edges}
    by_tenant: List[List[Edge]] = [[] for _ in ranges]
    starts = [start for start, _ in ranges]
    for edge in sorted(present):
        t = bisect.bisect_right(starts, edge[0]) - 1
        if t >= 0 and edge[1] < starts[t] + ranges[t][1]:
            by_tenant[t].append(edge)
    out = []
    for _ in range(batches):
        t = rng.randrange(len(ranges))
        start, width = ranges[t]
        pool = by_tenant[t]
        touched = set()
        batch = []
        for i in range(WRITE_BATCH_EDGES):
            if i % 2 == 0:
                while True:
                    u = start + rng.randrange(width)
                    v = start + rng.randrange(width)
                    edge = (min(u, v), max(u, v))
                    if u != v and edge not in present and \
                            edge not in touched:
                        break
                present.add(edge)
                pool.append(edge)
                batch.append({"op": "insert", "u": edge[0], "v": edge[1]})
            else:
                while True:
                    j = rng.randrange(len(pool))
                    if pool[j] not in touched:
                        break
                edge = pool[j]
                pool[j] = pool[-1]
                pool.pop()
                present.discard(edge)
                batch.append({"op": "delete", "u": edge[0], "v": edge[1]})
            touched.add(edge)
        out.append(batch)
    return out
