"""Shared fixtures for the test suite.

Conventions:

* oracles - networkx (installed as a test dependency) provides reference
  implementations for connectivity quantities; ``repro.baselines.naive``
  provides an independent brute-force k-VCC enumeration;
* determinism - every randomized test seeds explicitly;
* sizes - flow-based tests stay under ~20 vertices so the quadratic /
  exponential oracles stay instant.

Plain helper functions (``random_connected_graph``, ``vertex_set_family``,
...) live in :mod:`helpers` - importing them from a conftest is fragile
because ``conftest`` is not a uniquely importable module name.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro.graph.generators import (
    figure1_graph,
    overlapping_cliques_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph


def pytest_configure(config):
    """Pin the repro cache to a per-session temp directory.

    ``registry.load_dataset`` (and anything else going through
    ``repro.data``) writes content-addressed cache files, and the c
    kernel compiles into the same root; without this the suite would
    populate the user's real ``~/.cache/repro`` and golden tests would
    depend on mutable state outside the checkout.  It runs before
    collection, because collecting some modules already selects a
    kernel.  Individual tests still override via monkeypatch /
    ``cache_dir``.
    """
    config._repro_cache = (
        tempfile.mkdtemp(prefix="repro-cache-"),
        os.environ.get("REPRO_CACHE_DIR"),
    )
    os.environ["REPRO_CACHE_DIR"] = config._repro_cache[0]


def pytest_unconfigure(config):
    path, previous = config._repro_cache
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def triangle() -> Graph:
    return Graph([(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def path4() -> Graph:
    """Path 0-1-2-3."""
    return Graph([(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def k5() -> Graph:
    from repro.graph.generators import complete_graph

    return complete_graph(5)


@pytest.fixture
def figure1():
    """The paper's Figure 1 graph and its named blocks."""
    return figure1_graph()


@pytest.fixture
def two_cliques_shared_edge() -> Graph:
    """Two K5s sharing an edge: the canonical overlapped-partition case."""
    return overlapping_cliques_graph(clique_size=5, num_cliques=2, overlap=2)


@pytest.fixture
def clique_ring() -> Graph:
    return ring_of_cliques(num_cliques=4, clique_size=5)
