"""Tests for the v2 cohesion API across every serve tier.

The contract under test, straight from the redesign:

* every v1 endpoint answers **byte-identically** through the v2
  ``measure=kvcc`` alias - on the sync handler path and the async HTTP
  front end;
* the per-measure and cross-measure v2 products answer consistently
  with direct query-service calls;
* every JSON error body carries a stable machine-readable ``code``
  from :data:`repro.service.schema.ERROR_CODES`;
* ``/datasets`` advertises each dataset's served measures.
"""

import http.client

import pytest

from repro.graph.generators import ring_of_cliques
from repro.index import (
    MEASURES,
    build_cohesion_index,
    build_index,
)
from repro.service import (
    AsyncHTTPServer,
    IndexRegistry,
    ServerThread,
    handle_mutation,
    handle_request,
    registry_dispatch,
)
from repro.service.handlers import render_json
from repro.service.schema import (
    ENDPOINTS,
    ERROR_CODES,
    ApiError,
    validate,
)


@pytest.fixture(scope="module")
def ring():
    return ring_of_cliques(3, 5)


@pytest.fixture
def registry(ring, tmp_path):
    """One plain dataset and one cohesion dataset, side by side."""
    plain = str(tmp_path / "plain.kvccidx")
    multi = str(tmp_path / "multi.kvcccoh")
    build_index(ring).save(plain)
    build_cohesion_index(ring).save(multi)
    registry = IndexRegistry()
    registry.register("plain", plain)
    registry.register("multi", multi)
    return registry


#: Endpoint + params requests valid under both /v1/<ds>/... and
#: /v2/<ds>/kvcc/..., success and error shapes alike.
ALIAS_CATALOG = [
    ("vcc-number", {"v": ["0"]}),
    ("vcc-number", {"v": [str(i) for i in range(20)]}),
    ("vcc-number", {"v": ["05", "5", "nope"]}),
    ("same-kvcc", {"u": ["0"], "v": ["7"], "k": ["2"]}),
    ("same-kvcc", {"k": ["3"], "pair": ["0:1", "5:6", "0:99"]}),
    ("components-of", {"v": ["3"], "k": ["2"]}),
    ("max-shared-level", {"u": ["0"], "v": ["9"]}),
    ("max-shared-level", {"pair": ["0:5", "1:2", "0:nope"]}),
    ("vcc-number", {}),                                     # 400
    ("same-kvcc", {"u": ["0"], "v": ["1"], "k": ["zero"]}),  # 400
    ("same-kvcc", {"u": ["0"], "v": ["1"], "k": ["0"]}),     # 400
    ("max-shared-level", {"pair": ["junk"]}),                # 400
]


class TestV1V2Alias:
    @pytest.mark.parametrize("dataset", ["plain", "multi"])
    def test_sync_byte_parity(self, registry, dataset):
        for endpoint, params in ALIAS_CATALOG:
            v1 = handle_request(
                registry, f"/v1/{dataset}/{endpoint}", params
            )
            v2 = handle_request(
                registry, f"/v2/{dataset}/kvcc/{endpoint}", params
            )
            assert v1[0] == v2[0], (endpoint, params)
            assert render_json(v1[1]) == render_json(v2[1]), (
                endpoint, params,
            )

    def test_classic_payloads_carry_no_measure_key(self, registry):
        for endpoint, params in ALIAS_CATALOG[:8]:
            status, payload = handle_request(
                registry, f"/v2/multi/kecc/{endpoint}", params
            )
            assert status == 200
            assert "measure" not in payload, endpoint


class TestV2Endpoints:
    def test_per_measure_answers_differ_where_they_should(self, registry):
        """0 and 5 sit in different cliques: no shared 4-VCC/4-ECC, but
        the whole ring is one 4-core component."""
        for measure, want in (("kvcc", 2), ("kecc", 2), ("kcore", 4)):
            status, payload = handle_request(
                registry,
                f"/v2/multi/{measure}/max-shared-level",
                {"u": ["0"], "v": ["5"]},
            )
            assert status == 200
            assert payload == {"max_shared_level": want}, measure

    def test_top_communities_matches_service(self, registry):
        status, payload = handle_request(
            registry, "/v2/multi/kvcc/top-communities",
            {"v": ["0"], "r": ["2"]},
        )
        assert status == 200
        service = registry.get("multi").measure_service("kvcc")
        want = service.top_communities(0, 2)
        assert payload == {
            "v": "0",
            "r": 2,
            "measure": "kvcc",
            "count": len(want),
            "communities": [
                {"k": k, "size": len(members), "members": members}
                for k, members in want
            ],
        }
        assert payload["communities"][0]["k"] == 4

    def test_critical_vertices_matches_service(self, registry):
        status, payload = handle_request(
            registry, "/v2/multi/kvcc/critical-vertices",
            {"v": ["0"], "k": ["1"]},
        )
        assert status == 200
        service = registry.get("multi").measure_service("kvcc")
        want = service.critical_vertices(0, 1)
        assert payload == {
            "v": "0",
            "k": 1,
            "measure": "kvcc",
            "count": len(want),
            "critical": want,
        }

    def test_cohesion_strength_scalar_and_batch(self, registry):
        status, payload = handle_request(
            registry, "/v2/multi/cohesion-strength", {"pair": ["0:1"]}
        )
        assert status == 200
        assert payload["pair"] == "0:1"
        assert tuple(payload["strength"]) == MEASURES
        status, payload = handle_request(
            registry, "/v2/multi/cohesion-strength",
            {"pair": ["0:1", "0:5"]},
        )
        assert status == 200
        assert payload["pairs"] == ["0:1", "0:5"]
        # Theorem 3 nesting: strength is monotone kvcc <= kecc <= kcore.
        for result in payload["results"]:
            assert result["kvcc"] <= result["kecc"] <= result["kcore"]

    def test_cohesion_strength_on_plain_dataset(self, registry):
        """A single-measure dataset answers for its one measure."""
        status, payload = handle_request(
            registry, "/v2/plain/cohesion-strength", {"pair": ["0:1"]}
        )
        assert status == 200
        assert payload == {"pair": "0:1", "strength": {"kvcc": 4}}

    def test_datasets_advertise_measures(self, registry):
        # Non-resident: measures come from the file-magic sniff.
        _, payload = handle_request(registry, "/datasets", {})
        by_name = {d["name"]: d for d in payload["datasets"]}
        assert by_name["plain"]["measures"] == ["kvcc"]
        assert by_name["multi"]["measures"] == list(MEASURES)
        # Resident: measures come from the loaded service.
        registry.get("multi")
        _, payload = handle_request(registry, "/datasets", {})
        by_name = {d["name"]: d for d in payload["datasets"]}
        assert by_name["multi"]["resident"] is True
        assert by_name["multi"]["measures"] == list(MEASURES)


class TestErrorCodes:
    def assert_error(self, got, status, code):
        assert got[0] == status
        assert got[1]["code"] == code
        assert code in ERROR_CODES
        assert list(got[1]) == ["error", "code"]

    def test_query_error_codes(self, registry, tmp_path):
        cases = [
            (("/v1/plain/vcc-number", {}), 400, "bad_param"),
            (("/v1/nope/vcc-number", {"v": ["1"]}), 404, "unknown_dataset"),
            (("/v1/plain/nope", {}), 404, "unknown_endpoint"),
            (("/v2/plain/kvcc/nope", {}), 404, "unknown_endpoint"),
            (("/v2/plain/nope", {}), 404, "unknown_endpoint"),
            (("/v2/plain/ktruss/vcc-number", {"v": ["1"]}),
             404, "unknown_measure"),
            (("/v2/plain/kecc/vcc-number", {"v": ["1"]}),
             404, "unknown_measure"),
            (("/nowhere", {}), 404, "unknown_route"),
        ]
        for (path, params), status, code in cases:
            self.assert_error(
                handle_request(registry, path, params), status, code
            )

    def test_v1_does_not_serve_v2_endpoints(self, registry):
        got = handle_request(
            registry, "/v1/multi/top-communities", {"v": ["0"], "r": ["1"]}
        )
        self.assert_error(got, 404, "unknown_endpoint")

    def test_dataset_unavailable_503(self, registry, tmp_path):
        registry.register("ghost", str(tmp_path / "ghost.kvcccoh"))
        got = handle_request(registry, "/v1/ghost/vcc-number", {"v": ["1"]})
        self.assert_error(got, 503, "dataset_unavailable")

    def test_mutation_error_codes(self, registry):
        cases = [
            (("/v9/x/edges", b"{}"), 404, "unknown_route"),
            (("/v1/plain/vcc-number", b"{}"), 405, "method_not_allowed"),
            (("/v1/nope/edges", b"{}"), 404, "unknown_dataset"),
            (("/v1/plain/edges", b"{}"), 409, "not_mutable"),
        ]
        for (path, body), status, code in cases:
            got = handle_mutation(registry, None, path, {}, body)
            self.assert_error(got, status, code)


class TestSchemaValidation:
    def test_missing_required_vertex(self):
        with pytest.raises(ApiError) as err:
            validate(ENDPOINTS["vcc-number"], {})
        assert err.value.status == 400
        assert err.value.code == "bad_param"

    def test_repeated_scalar_rejected(self):
        with pytest.raises(ApiError, match="exactly once"):
            validate(
                ENDPOINTS["components-of"],
                {"v": ["1", "2"], "k": ["2"]},
            )

    def test_int_param_junk_and_range(self):
        with pytest.raises(ApiError, match="must be an integer"):
            validate(
                ENDPOINTS["components-of"], {"v": ["1"], "k": ["two"]}
            )
        with pytest.raises(ApiError, match="at least 1"):
            validate(ENDPOINTS["components-of"], {"v": ["1"], "k": ["0"]})

    def test_pair_wins_over_scalar(self):
        decoded = validate(
            ENDPOINTS["same-kvcc"],
            {"k": ["2"], "pair": ["1:2"], "u": ["9"], "v": ["9"]},
        )
        assert decoded["pairs"] == [(1, 2)]
        assert "u" not in decoded

    def test_pair_only_endpoint_requires_pair(self):
        with pytest.raises(ApiError, match="'pair' is required"):
            validate(ENDPOINTS["cohesion-strength"], {})

    def test_malformed_pair(self):
        with pytest.raises(ApiError, match="look like 'u:v'"):
            validate(ENDPOINTS["cohesion-strength"], {"pair": [":v"]})

    def test_canonical_int_rule(self):
        decoded = validate(ENDPOINTS["vcc-number"], {"v": ["5", "05", "x"]})
        assert decoded["v_labels"] == [5, "05", "x"]
        assert decoded["v_tokens"] == ["5", "05", "x"]


#: Paths exercising the v2 family end to end over HTTP.
V2_CATALOG = [
    ("/v2/g/kvcc/vcc-number", {"v": ["0"]}),
    ("/v2/g/kecc/vcc-number", {"v": [str(i) for i in range(20)]}),
    ("/v2/g/kcore/same-kvcc", {"k": ["2"], "pair": ["0:1", "0:5", "0:99"]}),
    ("/v2/g/kecc/components-of", {"v": ["3"], "k": ["2"]}),
    ("/v2/g/kcore/max-shared-level", {"u": ["0"], "v": ["9"]}),
    ("/v2/g/kvcc/top-communities", {"v": ["0"], "r": ["3"]}),
    ("/v2/g/kecc/critical-vertices", {"v": ["0"], "k": ["1"]}),
    ("/v2/g/cohesion-strength", {"pair": ["0:1", "0:5", "2:12"]}),
    ("/v2/g/ktruss/vcc-number", {"v": ["0"]}),              # 404
    ("/v2/g/kvcc/top-communities", {"v": ["0"]}),           # 400
    ("/v1/g/vcc-number", {"v": ["0", "5"]}),
    ("/v1/g/same-kvcc", {"u": ["0"], "v": ["1"], "k": ["4"]}),
]


def _query_string(params):
    from urllib.parse import urlencode

    return urlencode(
        [(key, value) for key, values in params.items() for value in values]
    )


class TestAsyncHTTPCohesion:
    @pytest.fixture
    def cohesion_registry(self, ring, tmp_path):
        path = str(tmp_path / "g.kvcccoh")
        build_cohesion_index(ring).save(path)
        registry = IndexRegistry()
        registry.register("g", path)
        return registry

    def test_v2_parity_over_keep_alive_http(self, cohesion_registry):
        server = AsyncHTTPServer(registry_dispatch(cohesion_registry))
        with ServerThread(server) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                for path, params in V2_CATALOG:
                    target = path
                    if params:
                        target += "?" + _query_string(params)
                    connection.request("GET", target)
                    response = connection.getresponse()
                    body = response.read()
                    want_status, want_payload = handle_request(
                        cohesion_registry, path, params
                    )
                    assert response.status == want_status, target
                    assert body == render_json(want_payload), target
            finally:
                connection.close()
