"""Dataset resolution and the content-addressed on-disk graph cache.

Every consumer of a graph - CLI commands, the experiment harness, the
benchmark suite, ``repro serve --build-missing`` - speaks one token
grammar and goes through one loader:

=================  =====================================================
Token              Meaning
=================  =====================================================
``graph.txt``      An edge-list file (``.txt``/``.csv``, optionally
                   ``.gz``); a bare token is a path.
``file:PATH``      The same, spelled explicitly (useful when a file name
                   could be mistaken for another token form).
``name:youtube``   A synthetic stand-in from
                   :mod:`repro.datasets.registry`, generated once and
                   cached.
=================  =====================================================

The cache (``~/.cache/repro`` by default, ``$REPRO_CACHE_DIR`` or a
``cache_dir`` argument to override) is **content-addressed**: each
source maps to a fingerprint, and the parsed graph persists as
``graphs/<fingerprint>.kvccg`` (the binary format of
:mod:`repro.data.format`).

* **files** fingerprint by content hash (sha256).  A sidecar under
  ``stat/`` memoizes ``(mtime_ns, size) -> hash`` so a warm start is a
  ``stat`` call, not a re-hash; touching a file re-hashes but maps back
  to the same entry, while changed bytes produce a new fingerprint (and
  the old entry simply goes cold).
* **named datasets** fingerprint by name plus a hash of the generator
  source code, so editing :mod:`repro.datasets.registry` or
  :mod:`repro.graph.generators` invalidates stale stand-ins
  automatically.

Both fingerprints also fold in the ``KVCCG`` format version - a format
bump re-ingests everything rather than failing on old files.

Cache entries and sidecars are written through
:func:`repro.data.format.publish`: a reader sees the old file or the
whole new one, and concurrent cold starts race only on the rename.
"""

from __future__ import annotations

import hashlib
import inspect
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.data.format import FORMAT_VERSION, publish
from repro.data.ingest import read_edge_list_csr
from repro.graph.csr import CSRGraph

PathLike = Union[str, Path]

#: Environment override for the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fixed block size for streaming content hashes: memory spent hashing
#: a file is this constant, never proportional to the file.
HASH_CHUNK_BYTES = 1 << 20

_REGISTRY_SALT: Optional[str] = None


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def _registry_salt() -> str:
    """Hash of the generator source code backing ``name:`` datasets.

    Folding this into the fingerprint means a stale cache cannot
    silently outlive an edit to the generators - the combination
    (name, generator code, format version) is the dataset's identity.
    """
    global _REGISTRY_SALT
    if _REGISTRY_SALT is None:
        from repro.datasets import registry
        from repro.graph import generators

        digest = hashlib.sha256()
        for module in (registry, generators):
            digest.update(inspect.getsource(module).encode("utf-8"))
        _REGISTRY_SALT = digest.hexdigest()[:16]
    return _REGISTRY_SALT


def _hash_file(path: Path) -> str:
    """sha256 of a file's bytes, streamed in fixed-size chunks.

    Chunked reads keep the hash pass O(:data:`HASH_CHUNK_BYTES`)
    resident no matter how large the source file is - the chunking is
    invisible in the digest, which equals ``sha256(whole_file_bytes)``
    exactly.  The ``(mtime_ns, size)`` sidecar in
    :func:`_file_content_hash` memoizes the result either way.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(HASH_CHUNK_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


def _file_content_hash(path: Path, cache_dir: Path) -> str:
    """Content hash of ``path``, memoized by ``(mtime_ns, size)``.

    The sidecar lives under ``stat/`` keyed by the absolute path, so an
    unchanged file costs one ``stat`` on every warm start and is only
    re-read after a modification.
    """
    stat = path.stat()
    key = hashlib.sha256(str(path.resolve()).encode("utf-8")).hexdigest()[:24]
    sidecar = cache_dir / "stat" / f"{key}.txt"
    signature = f"{stat.st_mtime_ns}:{stat.st_size}"
    try:
        recorded_signature, recorded_hash = (
            sidecar.read_text(encoding="utf-8").split()
        )
        if recorded_signature == signature:
            return recorded_hash
    except (OSError, ValueError):
        pass
    content_hash = _hash_file(path)
    record = f"{signature} {content_hash}\n"
    try:
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        publish(sidecar, lambda tmp: Path(tmp).write_text(record, encoding="utf-8"))
    except OSError:
        pass  # memoization is best-effort; the hash itself is correct
    return content_hash


@dataclass(frozen=True)
class Dataset:
    """A resolved graph source: where it comes from and how to build it.

    ``kind`` is ``"file"`` (an edge-list path) or ``"name"`` (a
    registry stand-in); ``source`` is the path or registry name.

    Examples
    --------
    >>> resolve_dataset("name:youtube").source
    'youtube'
    >>> resolve_dataset("name:youtube").kind
    'name'
    """

    spec: str
    kind: str
    source: str

    @property
    def name(self) -> str:
        """A short human name (registry name, or the file's stem)."""
        if self.kind == "name":
            return self.source
        stem = Path(self.source).name
        for suffix in (".gz", ".txt", ".csv", ".edges"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        return stem or self.source

    def fingerprint(self, cache_dir: Optional[PathLike] = None) -> str:
        """Content-addressed identity of this dataset (hex, 24 chars)."""
        root = Path(cache_dir) if cache_dir else default_cache_dir()
        if self.kind == "name":
            identity = f"name:{self.source}:{_registry_salt()}"
        else:
            content = _file_content_hash(Path(self.source), root)
            identity = f"file:{content}"
        digest = hashlib.sha256(
            f"kvccg{FORMAT_VERSION}:{identity}".encode("utf-8")
        )
        return digest.hexdigest()[:24]

    def build_csr(self) -> CSRGraph:
        """Cold build: parse the file / run the generator, no cache."""
        if self.kind == "name":
            from repro.datasets.registry import DATASETS

            return DATASETS[self.source].build().to_csr()
        csr, _ = read_edge_list_csr(self.source)
        return csr

    def cached_path(self, cache_dir: Optional[PathLike] = None) -> Path:
        """Where this dataset's KVCCG file lives in the cache."""
        root = Path(cache_dir) if cache_dir else default_cache_dir()
        return root / "graphs" / f"{self.fingerprint(root)}.kvccg"

    def load(
        self,
        cache_dir: Optional[PathLike] = None,
        refresh: bool = False,
        cache: bool = True,
        mem_budget: Union[int, str, None] = None,
    ) -> CSRGraph:
        """The dataset as a :class:`CSRGraph`, via the on-disk cache.

        A cache hit mmap-loads the KVCCG file in O(header); a miss (or
        ``refresh=True``) builds from source and publishes the entry
        whole (:func:`repro.data.format.publish`, so concurrent cold
        starts cannot corrupt each other).  ``cache=False`` bypasses
        the disk entirely.  An unreadable cache entry (foreign bytes,
        an old format version) is rebuilt rather than surfaced as an
        error; an unwritable cache directory silently degrades to the
        uncached build.

        ``mem_budget`` (bytes, a ``"256M"``-style string, or the
        ``$REPRO_MEM_BUDGET`` default) caps ingest memory for file
        sources on a cache miss: the edge list external-sorts straight
        into the cache entry (:mod:`repro.data.external`) instead of
        building in RAM first.  The entry's bytes are identical either
        way, so hit-vs-miss and the fingerprint are unaffected.  With
        ``cache=False`` there is no on-disk destination, so the budget
        is ignored and the in-memory build runs.

        Cold-miss cost for files is one hash pass plus one parse pass
        over the source: the content hash *decides* hit vs miss, so it
        must run before any parse - a deliberate trade, paid once per
        content (warm starts are a single ``stat`` via the sidecar).
        """
        if not cache:
            return self.build_csr()
        try:
            path = self.cached_path(cache_dir)
        except OSError as exc:
            raise ValueError(f"cannot read dataset {self.spec!r}: {exc}")
        if refresh or not path.exists():
            from repro.data.external import (
                ingest_edge_list_kvccg,
                resolve_mem_budget,
            )

            budget = resolve_mem_budget(mem_budget)
            csr = None
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                if budget is not None and self.kind == "file":
                    ingest_edge_list_kvccg(self.source, path, mem_budget=budget)
                else:
                    csr = self.build_csr()
                    csr.save(path)
            except OSError:
                # The cache is not writable: serve the in-memory build.
                return self.build_csr() if csr is None else csr
            return CSRGraph.load(path)
        try:
            return CSRGraph.load(path)
        except ValueError:
            # Bit rot or a format change mid-flight: rebuild in place.
            return self.load(cache_dir, refresh=True, mem_budget=mem_budget)


def resolve_dataset(token: str) -> Dataset:
    """Parse a dataset token into a :class:`Dataset`.

    Raises
    ------
    ValueError
        For an unknown ``name:`` dataset or a missing file, with the
        available alternatives spelled out.
    """
    token = str(token)
    if token.startswith("name:"):
        name = token[len("name:") :]
        from repro.datasets.registry import DATASETS

        if name not in DATASETS:
            raise ValueError(
                f"unknown dataset name {name!r}; available: "
                f"{', '.join(sorted(DATASETS))}"
            )
        return Dataset(spec=token, kind="name", source=name)
    path = token[len("file:") :] if token.startswith("file:") else token
    if not Path(path).is_file():
        raise ValueError(
            f"no such graph file: {path!r} (synthetic stand-ins are "
            f"spelled name:NAME; see 'repro.datasets')"
        )
    return Dataset(spec=token, kind="file", source=path)


def load_graph_csr(
    spec: str,
    cache_dir: Optional[PathLike] = None,
    refresh: bool = False,
    cache: bool = True,
    mem_budget: Union[int, str, None] = None,
) -> CSRGraph:
    """Resolve ``spec`` and load it as a (cached, mmap-backed) CSR graph.

    The one-stop entry point the CLI, experiments, and benchmarks use::

        base = load_graph_csr("name:youtube")
        base = load_graph_csr("web-Stanford.txt.gz")
        base = load_graph_csr("lj.txt.gz", mem_budget="256M")

    ``mem_budget`` caps cold-start ingest memory for file sources (see
    :meth:`Dataset.load`); ``$REPRO_MEM_BUDGET`` supplies the default.
    """
    return resolve_dataset(spec).load(
        cache_dir=cache_dir,
        refresh=refresh,
        cache=cache,
        mem_budget=mem_budget,
    )


def load_graph(
    spec: str,
    cache_dir: Optional[PathLike] = None,
    refresh: bool = False,
    cache: bool = True,
):
    """Like :func:`load_graph_csr` but materialized as a dict ``Graph``.

    For consumers that mutate the graph (experiments, baselines); the
    expensive parse/generate still happens at most once per content.
    """
    return load_graph_csr(
        spec, cache_dir=cache_dir, refresh=refresh, cache=cache
    ).to_graph()
