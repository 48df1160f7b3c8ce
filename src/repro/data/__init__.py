"""Unified dataset layer: binary graph store, streaming ingest, cache.

One import point for getting a mine-ready graph from any source::

    from repro.data import load_graph_csr

    base = load_graph_csr("name:youtube")       # synthetic stand-in
    base = load_graph_csr("web-Stanford.txt.gz")  # SNAP download

Submodules:

* :mod:`repro.data.format` - the ``KVCCG`` versioned binary CSR format
  (``CSRGraph.save`` / ``CSRGraph.load`` delegate here); a load maps
  the file in O(header);
* :mod:`repro.data.ingest` - streaming edge-list parser (SNAP / CSV /
  whitespace, plus ``.gz``) straight into CSR arrays, with per-file
  int-or-str label normalization;
* :mod:`repro.data.external` - out-of-core ingest under a memory
  budget (``--mem-budget`` / ``$REPRO_MEM_BUDGET``): external-sorted
  spill runs k-way-merged straight into the ``KVCCG`` sections on
  disk, byte-identical to the in-memory path;
* :mod:`repro.data.resolver` - the ``path`` / ``file:`` / ``name:``
  token grammar and the content-addressed cache under
  ``~/.cache/repro`` (``$REPRO_CACHE_DIR``).
"""

from repro.data.external import (
    MEM_BUDGET_ENV,
    IngestReport,
    ingest_edge_list_kvccg,
    parse_mem_budget,
    resolve_mem_budget,
)
from repro.data.format import FORMAT_VERSION, MAGIC, load_csr, save_csr
from repro.data.ingest import (
    iter_edge_labels,
    normalize_mixed_labels,
    open_text,
    read_edge_list_csr,
)
from repro.data.resolver import (
    CACHE_DIR_ENV,
    HASH_CHUNK_BYTES,
    Dataset,
    default_cache_dir,
    load_graph,
    load_graph_csr,
    resolve_dataset,
)

__all__ = [
    "CACHE_DIR_ENV",
    "Dataset",
    "FORMAT_VERSION",
    "HASH_CHUNK_BYTES",
    "IngestReport",
    "MAGIC",
    "MEM_BUDGET_ENV",
    "default_cache_dir",
    "ingest_edge_list_kvccg",
    "iter_edge_labels",
    "load_csr",
    "load_graph",
    "load_graph_csr",
    "normalize_mixed_labels",
    "open_text",
    "parse_mem_budget",
    "read_edge_list_csr",
    "resolve_dataset",
    "resolve_mem_budget",
    "save_csr",
]
