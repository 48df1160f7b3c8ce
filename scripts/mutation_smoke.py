"""End-to-end mutation smoke: POST batches, answers must match rebuild.

Boots a real ``repro serve`` subprocess on a dataset materialized from
a source token - the serve layer only accepts mutations when it knows
how to reload the graph, so ``name=edgelist`` + ``--build-missing`` is
the mutable registration shape.  The dataset is two disjoint
ring-of-cliques tenants, so each batch below recomputes a region that
is a strict subset of the graph.  Then, for each of three batches
generated with :func:`repro.datasets.mutation_stream` - one inside the
first tenant (with a brand-new vertex joining), one inside the second,
and one delete-only batch inside the first - it:

1. ``POST``s the batch to ``/v1/<ds>/edges``,
2. rebuilds an index from scratch over the mutated mirror graph
   in-process, and
3. asserts the server's answers (``vcc-number`` for every vertex,
   ``components-of`` across all levels for a sample) are identical to
   the fresh rebuild's.

The work directory is removed once the server has exited.

CI runs this in the ``mutation-smoke`` job; it is also a convenient
local repro::

    PYTHONPATH=src python scripts/mutation_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.parse
import urllib.request

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)

from repro.datasets import apply_mutations, mutation_stream  # noqa: E402
from repro.graph.generators import ring_of_cliques  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402
from repro.graph.io import write_edge_list  # noqa: E402
from repro.index import HierarchyQueryService, build_index  # noqa: E402
from repro.service.handlers import QUERY_ENDPOINTS  # noqa: E402

BOOT_PATTERN = re.compile(r"on http://([\d.]+):(\d+)")

#: Vertex-id offset of the second tenant.
TENANT_OFFSET = 100


def wait_for_boot(process: subprocess.Popen) -> str:
    """Read the serve banner off stdout and return the base URL."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited during boot (rc={process.poll()})"
            )
        sys.stdout.write(f"  [serve] {line}")
        match = BOOT_PATTERN.search(line)
        if match:
            return f"http://{match.group(1)}:{match.group(2)}"
    raise SystemExit("server did not print its banner within 60s")


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.load(response)


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.load(response)


def check_against_rebuild(base: str, mirror: Graph) -> int:
    """Compare the served answers with a from-scratch rebuild of
    ``mirror``; returns the number of answers checked."""
    rebuilt = build_index(mirror)
    service = HierarchyQueryService(rebuilt)
    tokens = sorted(str(label) for label in rebuilt.labels)
    checked = 0
    for token in tokens:
        quoted = urllib.parse.quote(token)
        served = get_json(f"{base}/v1/ring/vcc-number?v={quoted}")
        expected = QUERY_ENDPOINTS["vcc-number"](service, {"v": [token]})
        assert served == expected, (token, served, expected)
        checked += 1
    for token in tokens[::8]:
        quoted = urllib.parse.quote(token)
        for k in range(1, rebuilt.max_k + 2):
            served = get_json(
                f"{base}/v1/ring/components-of?v={quoted}&k={k}"
            )
            expected = QUERY_ENDPOINTS["components-of"](
                service, {"v": [token], "k": [str(k)]}
            )
            assert served == expected, (token, k, served, expected)
            checked += 1
    return checked


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    tenants = [ring_of_cliques(6, 5), Graph()]
    for u, v in tenants[0].edges():
        tenants[1].add_edge(u + TENANT_OFFSET, v + TENANT_OFFSET)
    graph = tenants[0].union(tenants[1])
    workdir = tempfile.mkdtemp(prefix="mutation-smoke-")
    edge_file = os.path.join(workdir, "ring.txt")
    write_edge_list(graph, edge_file)

    command = [
        sys.executable, "-m", "repro", "serve", f"ring={edge_file}",
        "--build-missing", "--cache-dir", os.path.join(workdir, "cache"),
        "--port", "0",
    ]
    print(f"$ {' '.join(command)}", flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    try:
        base = wait_for_boot(process)
        health = get_json(f"{base}/healthz")
        assert health["status"] == "ok", health

        mirror = graph.copy()
        plans = [
            ("first tenant, a new vertex joins", 0,
             dict(batch_edges=6, new_vertex_fraction=0.2, seed=12)),
            ("second tenant", 1, dict(batch_edges=6, seed=14)),
            ("first tenant, deletes only", 0,
             dict(batch_edges=4, insert_fraction=0.0, seed=13)),
        ]
        members = [set(tenant.vertices()) for tenant in tenants]
        for title, tenant, knobs in plans:
            # Generated against the tenant's current edges, so every
            # mutation applies and none leaves the tenant.
            (batch,) = mutation_stream(
                mirror.induced_subgraph(members[tenant]), batches=1, **knobs
            )
            ends = {m["u"] for m in batch} | {m["v"] for m in batch}
            joining = ends - mirror.vertex_set()
            members[tenant] |= ends
            apply_mutations(mirror, batch)
            summary = post_json(
                f"{base}/v1/ring/edges", {"mutations": batch}
            )
            print(f"  POST /v1/ring/edges ({title}) -> {summary}")
            assert summary["applied"] == len(batch), summary
            assert summary["new_vertices"] == len(joining), summary
            checked = check_against_rebuild(base, mirror)
            print(
                f"OK: {checked} served answers identical to a fresh "
                f"rebuild after {len(batch)} mutation(s) ({title})"
            )
        return 0
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
