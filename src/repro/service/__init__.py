"""Long-lived, multi-dataset serving layer over persisted indexes.

Where :mod:`repro.index` answers queries for one loaded index in one
process, this package turns that into a *service*: many named datasets,
mmap-backed cold starts measured in microseconds, LRU-bounded residency
with hot reload, and one dependency-free HTTP front end.

* :class:`~repro.service.registry.IndexRegistry` - name -> index file,
  lazy mmap open, LRU of resident indexes, mtime-based hot reload,
  explicit evict;
* :mod:`repro.service.handlers` - the transport-agnostic API routing
  (``/healthz``, ``/datasets``, ``/v1/<dataset>/<query>``, and the
  per-measure ``/v2/<dataset>/<measure>/<query>`` cohesion family);
* :mod:`repro.service.schema` - the declarative per-endpoint parameter
  schemas and stable error codes the handlers validate against;
* :class:`~repro.service.mutation.MutationManager` - the incremental
  updaters behind ``POST /v1/<dataset>/edges``;
* :class:`~repro.service.aserver.AsyncHTTPServer` - the asyncio
  HTTP/1.1 JSON front end ``repro serve`` runs, answering from a
  registry through :func:`~repro.service.aserver.registry_dispatch`.

Examples
--------
>>> import tempfile, os
>>> from repro.graph.generators import ring_of_cliques
>>> from repro.index import build_index
>>> from repro.service import IndexRegistry
>>> from repro.service.handlers import handle_request
>>> workdir = tempfile.TemporaryDirectory()
>>> path = os.path.join(workdir.name, "ring.kvccidx")
>>> build_index(ring_of_cliques(3, 5)).save(path)
>>> registry = IndexRegistry()
>>> registry.register("ring", path)
>>> handle_request(registry, "/v1/ring/vcc-number", {"v": ["0"]})
(200, {'v': '0', 'vcc_number': 4})
>>> registry.evict_all()
1
>>> workdir.cleanup()
"""

from repro.service.aserver import (
    AsyncHTTPServer,
    ServerThread,
    registry_dispatch,
)
from repro.service.handlers import (
    ApiError,
    handle_mutation,
    handle_request,
)
from repro.service.mutation import MutationManager
from repro.service.registry import DatasetNotFound, IndexRegistry
from repro.service.schema import (
    ENDPOINTS,
    ERROR_CODES,
    EndpointSpec,
    ParamSpec,
)

__all__ = [
    "ApiError",
    "AsyncHTTPServer",
    "DatasetNotFound",
    "ENDPOINTS",
    "ERROR_CODES",
    "EndpointSpec",
    "IndexRegistry",
    "ParamSpec",
    "MutationManager",
    "ServerThread",
    "handle_mutation",
    "handle_request",
    "registry_dispatch",
]
