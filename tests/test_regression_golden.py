"""Golden regression tests: exact k-VCC counts on the seeded stand-ins.

Every generator and the whole enumeration pipeline are deterministic,
so the component counts per (dataset, k) are stable constants.  A
change to any of them means either a generator change (update the
constants deliberately) or an enumeration bug (investigate).  The
values below were produced by the validated pipeline (cross-checked
against naive enumeration and networkx on small graphs) and match
harness_full.txt.
"""

import hashlib

import pytest

from repro.cli import main
from repro.core.kvcc import kvcc_vertex_sets
from repro.datasets.registry import load_dataset

#: (dataset, k) -> expected number of k-VCCs.
GOLDEN_COUNTS = {
    ("dblp", 7): 33,
    ("dblp", 14): 4,
    ("cit", 3): 3,
    ("cit", 6): 2,
    ("youtube", 8): 5,
    ("youtube", 14): 2,
}


@pytest.mark.parametrize(
    "dataset,k",
    sorted(GOLDEN_COUNTS),
    ids=[f"{d}-k{k}" for d, k in sorted(GOLDEN_COUNTS)],
)
def test_golden_counts(dataset, k):
    graph = load_dataset(dataset)
    components = kvcc_vertex_sets(graph, k)
    assert len(components) == GOLDEN_COUNTS[(dataset, k)]


def test_golden_overlap_dblp():
    """dblp at k=7 shows genuine overlap (147 duplicated vertices)."""
    graph = load_dataset("dblp")
    components = kvcc_vertex_sets(graph, 7)
    total = sum(len(c) for c in components)
    distinct = len(set().union(*components))
    assert total - distinct == 147


#: dataset -> first 12 hex digits of the sha256 of the index that
#: ``repro hierarchy name:<dataset> --save-index`` writes.  Recorded in
#: ``benchmarks/BENCH_18.json`` (``cli_outputs``) before the hierarchy
#: skipped levels by connectivity floor; the index bytes must not move.
GOLDEN_INDEX_SHA256 = {
    "cit": "a5766be72597",
    "cnr": "2186a5a69a10",
    "dblp": "20934004956f",
    "google": "0a22a1c51f41",
    "nd": "90bff79390c1",
    "stanford": "268a15e15beb",
    "youtube": "79f31d372b9a",
}


@pytest.mark.slow
@pytest.mark.parametrize("dataset", sorted(GOLDEN_INDEX_SHA256))
def test_golden_index_bytes(dataset, tmp_path, capsys):
    """The CLI path end to end: resolver, interner order, hierarchy and
    index write give byte-identical files."""
    path = tmp_path / f"{dataset}.kvccidx"
    assert main([
        "hierarchy", f"name:{dataset}", "--save-index", str(path),
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
    assert digest == GOLDEN_INDEX_SHA256[dataset]


#: dataset -> first 12 hex digits of the sha256 of the container that
#: ``repro build-cohesion name:<dataset> --out`` writes.  Recorded in
#: ``benchmarks/BENCH_19.json`` (``cli_outputs``), when the k-ECC and
#: k-core forests still came from the baseline enumerators run on the
#: whole graph at every level; the nested build must not move a byte.
GOLDEN_COHESION_SHA256 = {
    "cit": "2ab2d3266fa1",
    "cnr": "881702862b30",
    "dblp": "600cbc689d20",
    "google": "b07e1ef1fc77",
    "nd": "c32b4bf415e7",
    "stanford": "ae5c715971dd",
    "youtube": "a320a417c6d8",
}


@pytest.mark.slow
@pytest.mark.parametrize("dataset", sorted(GOLDEN_COHESION_SHA256))
def test_golden_cohesion_bytes(dataset, tmp_path, capsys):
    """``build-cohesion`` end to end: resolver, interner order, the
    three forests and the container write give byte-identical files."""
    path = tmp_path / f"{dataset}.kvcccoh"
    assert main([
        "build-cohesion", f"name:{dataset}", "--out", str(path),
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
    assert digest == GOLDEN_COHESION_SHA256[dataset]
