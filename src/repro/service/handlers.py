"""Route serving-API requests to registry queries (transport-agnostic).

The HTTP layer (:func:`repro.service.aserver.registry_dispatch`) is a
thin shell around :func:`handle_request`, which speaks only paths +
query parameters and returns ``(status, payload)``.  Keeping the
routing pure makes every endpoint unit-testable without sockets and
keeps the actual HTTP dispatch to a dozen lines.

Endpoints (every response is a JSON object):

================================================  ===========================
``/healthz``                                      liveness + counters
``/datasets``                                     datasets, residency,
                                                  served measures
``/v1/<ds>/vcc-number?v=...``                     largest k containing ``v``
``/v1/<ds>/same-kvcc?u=..&v=..&k=..``             do ``u``,``v`` share a
                                                  k-VCC?
``/v1/<ds>/components-of?v=..&k=..``              the level-k components
                                                  of ``v``
``/v1/<ds>/max-shared-level?u=..&v=..``           deepest level shared by
                                                  ``u``,``v``
``/v2/<ds>/<measure>/<endpoint>``                 any of the four above,
                                                  plus ``top-communities``
                                                  and ``critical-vertices``,
                                                  under ``kvcc`` / ``kecc``
                                                  / ``kcore``
``/v2/<ds>/cohesion-strength?pair=u:v``           max shared level under
                                                  *every* measure at once
``POST /v1/<ds>/edges``                           apply an edge-mutation
                                                  batch
================================================  ===========================

**v1 is an alias, forever.**  A ``/v1/<ds>/<endpoint>`` request runs
the very same payload function as ``/v2/<ds>/kvcc/<endpoint>`` - the
classic payload shapes carry no ``measure`` key, so the two answer
byte-identically by construction, and v1 clients never see the v2
rollout.  The two new per-measure products and the cross-measure
``cohesion-strength`` exist only under ``/v2``.

Parameter validation is declarative: every endpoint's schema lives in
:data:`repro.service.schema.ENDPOINTS` and is decoded by
:func:`repro.service.schema.validate`, so every endpoint validates and
errors identically.
Error bodies are ``{"error": <message>, "code": <stable code>}`` -
see :data:`repro.service.schema.ERROR_CODES`.

Mutations (:func:`handle_mutation`) go through the incremental-update
path (:mod:`repro.index.delta`): the batch is classified against the
live hierarchy, re-enumerated locally, appended to the dataset's delta
log, and picked up by readers via the registry's log-aware hot reload.

Batching: ``vcc-number`` accepts ``v`` repeated (one answer per value,
in order, via the vectorized :meth:`~repro.index.query.
HierarchyQueryService.vcc_numbers`); ``same-kvcc``,
``max-shared-level`` and ``cohesion-strength`` accept repeated
``pair=u:v`` parameters (the first ``:`` splits, so ``u`` must be
colon-free).

Vertex labels arrive as strings; tokens that parse as integers are
looked up as integers first with a string fallback, matching the CLI's
behavior on edge-list-loaded graphs.
"""

from __future__ import annotations

import json
import logging
from typing import Dict, List, Tuple

from repro.index.cohesion import MEASURES
from repro.service.registry import DatasetNotFound, IndexRegistry
from repro.service.schema import (
    ENDPOINTS,
    V1_ENDPOINTS,
    V2_MEASURE_ENDPOINTS,
    ApiError,
    parse_vertex,
    validate,
)

#: Query-parameter multimap, as ``urllib.parse.parse_qs`` produces.
Params = Dict[str, List[str]]

LOG = logging.getLogger("repro.service")

# Back-compat alias: the canonical-int token rule lives in the schema
# module now, next to the validators that apply it.
_parse_vertex = parse_vertex


def _sorted_labels(component) -> List:
    """Deterministic JSON ordering for a component's label set."""
    return sorted(component, key=str)


def _vcc_number(service, params: Params, measure: str = "kvcc") -> dict:
    """``vcc-number``: scalar for one ``v``, batch for repeated ``v``.

    Under a non-kvcc measure the answer is the analogous quantity -
    the deepest level whose component contains ``v`` - with the same
    payload shape (shape parity across measures is what lets clients
    swap measures by editing one path segment).
    """
    decoded = validate(ENDPOINTS["vcc-number"], params)
    tokens = decoded["v_tokens"]
    numbers = service.vcc_numbers(decoded["v_labels"])
    if len(tokens) == 1:
        return {"v": tokens[0], "vcc_number": numbers[0]}
    return {"v": tokens, "vcc_numbers": numbers}


def _same_kvcc(service, params: Params, measure: str = "kvcc") -> dict:
    """``same-kvcc``: one ``u``/``v`` pair or repeated ``pair=u:v``."""
    decoded = validate(ENDPOINTS["same-kvcc"], params)
    k = decoded["k"]
    if "pairs" in decoded:
        return {"k": k, "results": service.same_kvcc_many(decoded["pairs"], k)}
    return {
        "k": k,
        "same_kvcc": service.same_kvcc(decoded["u"], decoded["v"], k),
    }


def _components_of(service, params: Params, measure: str = "kvcc") -> dict:
    """``components-of``: the level-k components containing ``v``."""
    decoded = validate(ENDPOINTS["components-of"], params)
    k = decoded["k"]
    components = service.components_of(decoded["v"], k)
    # Sorting the component list itself (not just each member list)
    # makes the payload a pure function of the *set* of components, so
    # an incrementally-maintained index and a from-scratch rebuild -
    # whose node orders legitimately differ - answer byte-identically.
    rendered = sorted(
        (_sorted_labels(c) for c in components),
        key=lambda labels: [str(label) for label in labels],
    )
    return {
        "v": decoded["v_token"],
        "k": k,
        "count": len(rendered),
        "components": rendered,
    }


def _max_shared_level(service, params: Params, measure: str = "kvcc") -> dict:
    """``max-shared-level``: one pair or repeated ``pair=u:v``."""
    decoded = validate(ENDPOINTS["max-shared-level"], params)
    if "pairs" in decoded:
        return {"results": service.max_shared_levels(decoded["pairs"])}
    return {
        "max_shared_level": service.max_shared_level(
            decoded["u"], decoded["v"]
        )
    }


def _top_communities(service, params: Params, measure: str = "kvcc") -> dict:
    """``top-communities``: the r strongest communities containing ``v``.

    Ranked deepest level first; ties order by member labels, so the
    payload is a pure function of the component set (byte-stable
    across rebuilds).
    """
    decoded = validate(ENDPOINTS["top-communities"], params)
    ranked = service.top_communities(decoded["v"], decoded["r"])
    return {
        "v": decoded["v_token"],
        "r": decoded["r"],
        "measure": measure,
        "count": len(ranked),
        "communities": [
            {"k": level, "size": len(members), "members": members}
            for level, members in ranked
        ],
    }


def _critical_vertices(
    service, params: Params, measure: str = "kvcc"
) -> dict:
    """``critical-vertices``: members of ``v``'s level-k component(s)
    whose level-(k+1) assignment is not unique (peeled boundary
    vertices, or - under kvcc only - overlap/cut vertices)."""
    decoded = validate(ENDPOINTS["critical-vertices"], params)
    k = decoded["k"]
    critical = service.critical_vertices(decoded["v"], k)
    return {
        "v": decoded["v_token"],
        "k": k,
        "measure": measure,
        "count": len(critical),
        "critical": critical,
    }


def _cohesion_strength(service, params: Params) -> dict:
    """``cohesion-strength``: max shared level under every measure.

    The one cross-measure endpoint: for each ``pair=u:v`` it reports
    ``{measure: max_shared_level}`` over every measure the dataset
    persists, so one response compares how tightly a pair is bound
    under k-VCC vs k-ECC vs k-core.
    """
    decoded = validate(ENDPOINTS["cohesion-strength"], params)
    tokens = decoded["pair_tokens"]
    pairs = decoded["pairs"]
    measures = service.measures
    levels = {
        measure: service.measure_service(measure).max_shared_levels(pairs)
        for measure in measures
    }
    results = [
        {measure: levels[measure][i] for measure in measures}
        for i in range(len(pairs))
    ]
    if len(tokens) == 1:
        return {"pair": tokens[0], "strength": results[0]}
    return {"pairs": tokens, "results": results}


#: Endpoint name -> payload function, the ``/v1/<dataset>/<endpoint>``
#: leg (and, identically, v2 under any measure).
QUERY_ENDPOINTS = {
    "vcc-number": _vcc_number,
    "same-kvcc": _same_kvcc,
    "components-of": _components_of,
    "max-shared-level": _max_shared_level,
}

#: The per-measure v2 table: the v1 endpoints plus the derived products.
MEASURE_ENDPOINTS = {
    **QUERY_ENDPOINTS,
    "top-communities": _top_communities,
    "critical-vertices": _critical_vertices,
}

assert set(QUERY_ENDPOINTS) == set(V1_ENDPOINTS)
assert set(MEASURE_ENDPOINTS) == set(V2_MEASURE_ENDPOINTS)


def _service_for(registry: IndexRegistry, dataset: str):
    """Resolve a dataset name to its query service; 404/503 on failure."""
    try:
        return registry.get(dataset)
    except DatasetNotFound:
        raise ApiError(
            404,
            f"unknown dataset {dataset!r}; see /datasets",
            code="unknown_dataset",
        ) from None
    except (OSError, ValueError) as exc:
        # Missing file or a corrupt/truncated index: a server problem
        # (503), not a client one - the blanket ValueError->400 in
        # handle_request is only for query parameters.
        raise ApiError(
            503,
            f"dataset {dataset!r} unavailable: {exc}",
            code="dataset_unavailable",
        ) from None


def _measure_dispatch(
    registry: IndexRegistry,
    dataset: str,
    measure: str,
    endpoint: str,
    params: Params,
    v1: bool,
) -> dict:
    """Execute one per-measure endpoint (v1 pins ``measure="kvcc"``).

    v1 keeps its original, smaller unknown-endpoint listing so the v1
    error bytes never change; v2 validates the measure segment before
    the endpoint (path order), then checks the dataset actually
    persists that measure.
    """
    if not v1 and measure not in MEASURES:
        raise ApiError(
            404,
            f"unknown measure {measure!r}; expected one of "
            f"{sorted(MEASURES)}",
            code="unknown_measure",
        )
    table = QUERY_ENDPOINTS if v1 else MEASURE_ENDPOINTS
    endpoint_fn = table.get(endpoint)
    if endpoint_fn is None:
        raise ApiError(
            404,
            f"unknown endpoint {endpoint!r}; expected one of "
            f"{sorted(table)}",
            code="unknown_endpoint",
        )
    service = _service_for(registry, dataset)
    try:
        measure_service = service.measure_service(measure)
    except KeyError:
        raise ApiError(
            404,
            f"dataset {dataset!r} does not serve measure {measure!r}; "
            f"see /datasets",
            code="unknown_measure",
        ) from None
    return endpoint_fn(measure_service, params, measure=measure)


def handle_request(
    registry: IndexRegistry, path: str, params: Params
) -> Tuple[int, dict]:
    """Execute one API request; returns ``(http_status, json_payload)``.

    Never raises, period: unknown routes and bad parameters come back
    as ``(4xx, {"error": ..., "code": ...})``, an unreadable index file
    maps to 503 so load balancers treat it as transient, and *any*
    other exception - a bug, a corrupt-but-loadable index - is logged
    with its traceback and answered as a 500 JSON error instead of
    propagating into the transport and dropping the connection.
    """
    try:
        if path == "/healthz":
            return 200, {"status": "ok", **registry.stats()}
        if path == "/datasets":
            return 200, {"datasets": registry.datasets()}
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "v1":
            _, dataset, endpoint = parts
            return 200, _measure_dispatch(
                registry, dataset, "kvcc", endpoint, params, v1=True
            )
        if len(parts) == 3 and parts[0] == "v2":
            _, dataset, endpoint = parts
            if endpoint == "cohesion-strength":
                service = _service_for(registry, dataset)
                return 200, _cohesion_strength(service, params)
            raise ApiError(
                404,
                f"unknown endpoint {endpoint!r}; v2 paths are "
                f"/v2/<dataset>/<measure>/<endpoint> or "
                f"/v2/<dataset>/cohesion-strength",
                code="unknown_endpoint",
            )
        if len(parts) == 4 and parts[0] == "v2":
            _, dataset, measure, endpoint = parts
            return 200, _measure_dispatch(
                registry, dataset, measure, endpoint, params, v1=False
            )
        raise ApiError(404, f"no route for {path!r}", code="unknown_route")
    except ApiError as exc:
        return exc.status, {"error": exc.message, "code": exc.code}
    except ValueError as exc:
        return 400, {"error": str(exc), "code": "bad_param"}
    except Exception:
        # A crashed endpoint must still answer: without this, the HTTP
        # layer aborts the connection mid-keep-alive with no response
        # at all.  The body stays generic (no internals leak to
        # clients); the traceback goes to the server log.
        LOG.exception("unhandled error serving %s %s", path, params)
        return 500, {
            "error": "internal server error",
            "code": "internal_error",
        }


def handle_mutation(
    registry, mutations, path: str, params: Params, body: bytes
) -> Tuple[int, dict]:
    """Execute one ``POST /v1/<ds>/edges`` batch; never raises.

    ``registry`` only needs membership tests for dataset names (the
    server passes its :class:`IndexRegistry`); ``mutations`` is the
    :class:`~repro.service.mutation.MutationManager` holding the
    updaters, or ``None`` when the deployment is read-only.  The body
    is JSON: ``{"mutations": [{"op": "insert"|"delete", "u": ...,
    "v": ...}, ...]}``, labels as strings or ints (string tokens go
    through the same canonical-int rule as query parameters).

    Statuses: 404 unknown route/dataset, 405 non-edges POST target,
    409 dataset registered but not mutable (served from a bare index
    file with no graph to update against), 400 bad JSON or a batch the
    updater rejects (e.g. a self loop), 500 anything else (logged).
    """
    try:
        parts = path.strip("/").split("/")
        if len(parts) != 3 or parts[0] != "v1":
            raise ApiError(
                404, f"no POST route for {path!r}", code="unknown_route"
            )
        _, dataset, endpoint = parts
        if endpoint != "edges":
            raise ApiError(
                405,
                f"endpoint {endpoint!r} does not accept POST",
                code="method_not_allowed",
            )
        if dataset not in registry:
            raise ApiError(
                404,
                f"unknown dataset {dataset!r}; see /datasets",
                code="unknown_dataset",
            )
        if mutations is None or not mutations.mutable(dataset):
            raise ApiError(
                409,
                f"dataset {dataset!r} is not mutable (no source graph "
                f"registered for incremental updates)",
                code="not_mutable",
            )
        try:
            decoded = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            raise ApiError(
                400, "request body must be valid JSON", code="bad_body"
            ) from None
        if (
            not isinstance(decoded, dict)
            or not isinstance(decoded.get("mutations"), list)
        ):
            raise ApiError(
                400,
                "request body must be a JSON object with a "
                "'mutations' list",
                code="bad_body",
            )
        batch = []
        for entry in decoded["mutations"]:
            if not isinstance(entry, dict):
                raise ApiError(
                    400,
                    f"each mutation must be an object, got {entry!r}",
                    code="bad_body",
                )
            try:
                op, u, v = entry["op"], entry["u"], entry["v"]
            except KeyError as exc:
                raise ApiError(
                    400,
                    f"mutation missing key {exc.args[0]!r}",
                    code="bad_body",
                ) from None
            if isinstance(u, str):
                u = parse_vertex(u)
            if isinstance(v, str):
                v = parse_vertex(v)
            batch.append({"op": op, "u": u, "v": v})
        summary = mutations.apply(dataset, batch)
        return 200, {"dataset": dataset, **summary}
    except ApiError as exc:
        return exc.status, {"error": exc.message, "code": exc.code}
    except ValueError as exc:
        return 400, {"error": str(exc), "code": "bad_param"}
    except Exception:
        LOG.exception(
            "unhandled error applying mutations %s %s", path, params
        )
        return 500, {
            "error": "internal server error",
            "code": "internal_error",
        }


def render_json(payload: dict) -> bytes:
    """Canonical wire encoding for a response payload."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")
