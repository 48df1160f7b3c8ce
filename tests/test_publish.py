"""Every persisted file reaches disk through ``repro.data.format.publish``.

``publish`` fills a new sibling and renames it over the target, so a
reader sees the old file or the whole new one.  These tests pin the two
things that promise rests on: a published file gets the mode a plain
``open(path, "wb")`` would give it, and a write (or rename) that raises
leaves the previous file in place and no sibling behind.
"""

import errno
import os
import stat
from array import array
from pathlib import Path

import pytest

from repro.cli import main
from repro.data.format import load_csr, save_csr, write_kvccg
from repro.graph.generators import ring_of_cliques
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.index import IndexUpdater, build_cohesion_index, build_index

#: The graph each writer persists: the first file, a second one that
#: replaces it, and one with a label JSON cannot round-trip, whose
#: write raises.
GRAPHS = {
    "first": ring_of_cliques(3, 5),
    "second": ring_of_cliques(4, 5),
    "write": Graph([((0, 1), "x"), ("x", "y"), ("y", (0, 1))]),
}


def test_published_files_get_a_plain_files_mode(tmp_path):
    """Index, container, cache entry, stat sidecar and delta log are
    created ``0o666 & ~umask``, like any file the user writes."""
    graph_file = tmp_path / "ring.txt"
    write_edge_list(ring_of_cliques(3, 5), graph_file)
    cache = tmp_path / "cache"
    index_path = tmp_path / "g.kvccidx"
    dataset = [str(graph_file), "--cache-dir", str(cache)]
    container = tmp_path / "g.kvcccoh"
    umask = os.umask(0o027)
    try:
        assert main(["hierarchy", *dataset, "--save-index", str(index_path)]) == 0
        assert main(["build-cohesion", *dataset, "--out", str(container)]) == 0
        graph = read_edge_list(graph_file)
        assert IndexUpdater(str(index_path), graph).apply([("+", 2, 12)])["applied"]
    finally:
        os.umask(umask)
    published = [
        index_path,
        container,
        tmp_path / "g.kvccidx.delta",
        *cache.glob("graphs/*.kvccg"),
        *cache.glob("stat/*.txt"),
    ]
    assert len(published) == 5
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in published}
    assert modes == {path.name: 0o640 for path in published}


def _rows_then_fail():
    yield array("i", [1, 0])
    raise RuntimeError("the row source failed")


def _kvccg(path, how):
    if how == "stream":
        write_kvccg(path, 2, array("l", [0, 1, 2]), _rows_then_fail(), [0, 1])
    else:
        save_csr(GRAPHS[how].to_csr(), path)


def _kvccidx(path, how):
    build_index(GRAPHS[how]).save_atomic(path)


def _kvcccoh(path, how):
    build_cohesion_index(GRAPHS[how]).save(path)


def _delta_log(path, how):
    """The log beside a base index: the first is started by a batch,
    the second by a reset that binds it to another graph digest."""
    graph = GRAPHS["first"]
    index_path = str(path)[: -len(".delta")]
    if how == "first":
        build_index(graph).save(index_path)
        IndexUpdater(index_path, graph=graph).apply([("+", 2, 12)])
    else:
        updater = IndexUpdater(index_path, graph=graph)
        updater._graph_digest = "0" * 64
        updater._reset_log()


def _half_written(path, data):
    """A fill that stops half way, as on a full disk."""
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


#: kind -> (file name, writer, the ways its write itself can fail).
WRITERS = {
    "kvccg": ("g.kvccg", _kvccg, ("write", "stream")),
    "kvccidx": ("g.kvccidx", _kvccidx, ("write",)),
    "kvcccoh": ("g.kvcccoh", _kvcccoh, ("write",)),
    "delta-log": ("g.kvccidx.delta", _delta_log, ("disk-full",)),
}

#: What each way of failing raises.
RAISES = {
    "write": TypeError,
    "stream": RuntimeError,
    "disk-full": OSError,
    "rename": OSError,
}


@pytest.mark.parametrize(
    "kind, how",
    [
        pytest.param(kind, how, id=f"{kind}-{how}")
        for kind, (_, _, fails) in WRITERS.items()
        for how in (*fails, "rename")
    ],
)
def test_a_failed_publish_keeps_the_old_file(tmp_path, monkeypatch, kind, how):
    """A write that raises, or a refused rename, leaves the previous
    file's bytes in place and no sibling behind."""
    name, writer, _ = WRITERS[kind]
    writer(tmp_path / name, "first")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    if how == "rename":

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
    elif how == "disk-full":
        monkeypatch.setattr(Path, "write_bytes", _half_written)
    with pytest.raises(RAISES[how]):
        writer(tmp_path / name, how if how in ("write", "stream") else "second")
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_stream_writer_checks_labels_too(tmp_path):
    """The streamed rows meet the same label check as ``save_csr``."""
    path = tmp_path / "g.kvccg"
    indptr, rows = array("l", [0, 1, 2]), [array("i", [1, 0])]
    with pytest.raises(TypeError, match="JSON scalars"):
        write_kvccg(path, 2, indptr, rows, [0, (1,)])
    assert list(tmp_path.iterdir()) == []
    assert write_kvccg(path, 2, indptr, rows, [0, "b"]) == 2
    loaded = load_csr(path)
    assert (list(loaded.indptr), list(loaded.indices)) == ([0, 1, 2], [1, 0])
    assert loaded.interner.labels == [0, "b"]
