"""Declarative request schemas for every serving endpoint.

One :class:`EndpointSpec` per query endpoint replaces the ad-hoc
``_one`` / ``_k_param`` / ``_pairs_param`` helper calls that used to be
scattered through :mod:`repro.service.handlers`: the spec says which
parameters an endpoint takes (name, kind, required, repeatable, and
the pair-batch alternative), and :func:`validate` decodes a
query-string multimap against it.  Every endpoint therefore validates
and errors identically, under ``/v1`` and ``/v2`` alike, and adding an
endpoint is one table row plus its payload function.

Error discipline: every validation failure raises :class:`ApiError`
carrying the HTTP status, a human-readable message (byte-identical to
the messages the old helpers produced, preserving the v1 wire
contract), and a stable machine-readable ``code`` drawn from
:data:`ERROR_CODES` - clients branch on the code, humans read the
message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

#: Query-parameter multimap, as ``urllib.parse.parse_qs`` produces.
Params = Dict[str, List[str]]

#: Every stable machine-readable ``code`` an error envelope can carry.
ERROR_CODES = (
    "bad_param",            # malformed / missing query parameter
    "bad_body",             # malformed / missing / oversized POST body
    "bad_request",          # malformed HTTP request line
    "unknown_dataset",      # dataset name never registered
    "unknown_endpoint",     # endpoint name not in the routing table
    "unknown_measure",      # measure not recognized or not persisted
    "unknown_route",        # path matches no route family
    "method_not_allowed",   # POST to a non-mutation endpoint
    "not_mutable",          # dataset has no source graph to update
    "dataset_unavailable",  # index file missing/corrupt (transient 503)
    "unsupported_method",   # HTTP method the server does not speak
    "internal_error",       # crashed endpoint (logged server-side)
)


class ApiError(Exception):
    """A client-visible request failure with a status and stable code.

    ``message`` is the human-readable half of the envelope; ``code``
    is the machine-readable half (one of :data:`ERROR_CODES`), stable
    across releases even where message wording evolves.
    """

    def __init__(
        self, status: int, message: str, code: str = "bad_param"
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code


def parse_vertex(token: str) -> Hashable:
    """Integer label when the token is a *canonical* int literal.

    Non-canonical spellings (``"05"``, ``" 5"``) keep their string form
    so a string-labeled graph can match them exactly;
    :meth:`~repro.index.store.HierarchyIndex.id_of` then applies the
    int/str fallback, so either spelling resolves on either labeling.
    """
    try:
        value = int(token)
    except ValueError:
        return token
    return value if str(value) == token else token


@dataclass(frozen=True)
class ParamSpec:
    """One query parameter of an endpoint.

    ``kind`` is ``"vertex"`` (decoded through :func:`parse_vertex`) or
    ``"int"`` (decoded as an integer no smaller than ``min_value``).
    A ``repeatable`` vertex parameter accepts one *or more* values and
    batches; a non-repeatable one must be given exactly once.
    """

    name: str
    kind: str = "vertex"
    required: bool = True
    repeatable: bool = False
    min_value: int = 1


@dataclass(frozen=True)
class EndpointSpec:
    """The full request schema of one query endpoint.

    ``params`` validate unconditionally, in order (order fixes which
    error a doubly-bad request reports, part of the wire contract).
    ``pairs=True`` means the endpoint also speaks the repeated
    ``pair=u:v`` batch form: when any ``pair`` parameter is present it
    wins, otherwise the ``scalar`` group (e.g. ``u`` and ``v``)
    validates - and an empty ``scalar`` group makes ``pair`` required.

    ``v1=True`` marks the endpoint as part of the original v1 surface
    (served at ``/v1/<ds>/<name>`` and aliased to v2 ``measure=kvcc``).
    """

    name: str
    params: Tuple[ParamSpec, ...] = ()
    scalar: Tuple[ParamSpec, ...] = ()
    pairs: bool = False
    v1: bool = False


_V = ParamSpec("v")
_U = ParamSpec("u")
_V_BATCH = ParamSpec("v", repeatable=True)
_K = ParamSpec("k", kind="int")
_R = ParamSpec("r", kind="int")

#: Endpoint name -> request schema; the one table the handlers consult.
ENDPOINTS: Dict[str, EndpointSpec] = {
    spec.name: spec
    for spec in (
        EndpointSpec("vcc-number", params=(_V_BATCH,), v1=True),
        EndpointSpec(
            "same-kvcc",
            params=(_K,),
            scalar=(_U, _V),
            pairs=True,
            v1=True,
        ),
        EndpointSpec("components-of", params=(_K, _V), v1=True),
        EndpointSpec(
            "max-shared-level",
            scalar=(_U, _V),
            pairs=True,
            v1=True,
        ),
        EndpointSpec("top-communities", params=(_V, _R)),
        EndpointSpec("critical-vertices", params=(_V, _K)),
        EndpointSpec("cohesion-strength", pairs=True),
    )
}

#: The original serving surface: ``/v1/<ds>/<endpoint>`` names.
V1_ENDPOINTS: Tuple[str, ...] = tuple(
    name for name, spec in ENDPOINTS.items() if spec.v1
)

#: Per-measure v2 endpoints: ``/v2/<ds>/<measure>/<endpoint>`` names.
#: ``cohesion-strength`` is excluded - it is inherently cross-measure
#: and lives at ``/v2/<ds>/cohesion-strength``.
V2_MEASURE_ENDPOINTS: Tuple[str, ...] = tuple(
    name for name in ENDPOINTS if name != "cohesion-strength"
)


def _one(params: Params, key: str) -> str:
    """The single required value of ``key``; 400 if absent or repeated."""
    values = params.get(key, [])
    if len(values) != 1:
        raise ApiError(
            400,
            f"parameter '{key}' must be given exactly once "
            f"(got {len(values)})",
        )
    return values[0]


def _int_param(params: Params, spec: ParamSpec) -> int:
    """A required integer parameter; 400 on absence, junk, or range."""
    token = _one(params, spec.name)
    try:
        value = int(token)
    except ValueError:
        raise ApiError(
            400,
            f"parameter '{spec.name}' must be an integer, got {token!r}",
        ) from None
    if value < spec.min_value:
        raise ApiError(
            400,
            f"{spec.name} must be at least {spec.min_value}, got {value}",
        )
    return value


def decode_pairs(params: Params) -> List[Tuple[Hashable, Hashable]]:
    """Decode repeated ``pair=u:v`` parameters; 400 on malformed pairs.

    The first ``:`` splits, so ``u`` must be colon-free (documented in
    the serving API since v1).
    """
    out = []
    for token in params.get("pair", []):
        u, sep, v = token.partition(":")
        if not sep or not u or not v:
            raise ApiError(
                400, f"parameter 'pair' must look like 'u:v', got {token!r}"
            )
        out.append((parse_vertex(u), parse_vertex(v)))
    return out


def validate(spec: EndpointSpec, params: Params) -> Dict[str, object]:
    """Decode ``params`` against ``spec``; raises :class:`ApiError`.

    Returns a flat dict the payload functions consume:

    * an ``"int"`` param stores its value under its name;
    * a single ``"vertex"`` param stores the decoded label under its
      name and the raw token under ``<name>_token`` (payloads echo the
      token, queries use the label);
    * a repeatable ``"vertex"`` param stores ``<name>_tokens`` and
      ``<name>_labels`` lists;
    * the pair-batch alternative, when taken, stores ``pair_tokens``
      and decoded ``pairs``; otherwise the scalar group validates as
      single vertex params.
    """
    decoded: Dict[str, object] = {}
    for param in spec.params:
        if param.kind == "int":
            decoded[param.name] = _int_param(params, param)
        elif param.repeatable:
            values = params.get(param.name, [])
            if param.required and not values:
                raise ApiError(400, f"parameter '{param.name}' is required")
            decoded[param.name + "_tokens"] = values
            decoded[param.name + "_labels"] = [
                parse_vertex(token) for token in values
            ]
        else:
            token = _one(params, param.name)
            decoded[param.name + "_token"] = token
            decoded[param.name] = parse_vertex(token)
    if spec.pairs:
        if "pair" in params:
            decoded["pair_tokens"] = params.get("pair", [])
            decoded["pairs"] = decode_pairs(params)
        elif spec.scalar:
            for param in spec.scalar:
                token = _one(params, param.name)
                decoded[param.name + "_token"] = token
                decoded[param.name] = parse_vertex(token)
        else:
            raise ApiError(400, "parameter 'pair' is required")
    return decoded
