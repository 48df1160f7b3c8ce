"""Tests for the sharded serving tier: sharder, router, async front end."""

import gc
import http.client
import json
import os
import socket
import sys

import pytest

from repro.graph.generators import ring_of_cliques, web_graph
from repro.graph.graph import Graph
from repro.index import (
    HierarchyIndex,
    HierarchyQueryService,
    build_index,
    ensure_shards,
    load_manifest,
    ring_from_manifest,
    shard_index,
    write_shards,
)
from repro.index.shard import (
    DEFAULT_VNODES,
    MANIFEST_FORMAT,
    HashRing,
    route_key,
    shard_paths,
)
from repro.service import (
    AsyncHTTPServer,
    IndexRegistry,
    RouterDispatch,
    ServerThread,
    ShardCluster,
    ShardRouter,
    handle_request,
    registry_dispatch,
)
from repro.service.handlers import render_json

from helpers import PARITY_CATALOG, raw_exchange, read_to_eof


def string_label_graph():
    """A graph whose labels are strings, some numeric-looking."""
    edges = []
    names = [f"v{i}" for i in range(8)] + ["5", "05", "alice", "bob"]
    for i in range(len(names)):
        for j in range(i + 1, min(i + 4, len(names))):
            edges.append((names[i], names[j]))
    return Graph(edges)


class TestRouteKey:
    def test_numeric_spellings_collapse(self):
        assert route_key(5) == route_key("5") == route_key("05") == "5"
        assert route_key(-3) == route_key("-3")

    def test_non_numeric_strings_distinct(self):
        assert route_key("alice") == "alice"
        assert route_key("v5") != route_key("5")

    def test_bool_is_not_an_int_label(self):
        assert route_key(True) == "True"

    def test_matches_id_of_fallback_classes(self):
        """Whatever id_of unifies, route_key must map to one shard."""
        index = build_index(ring_of_cliques(3, 5))
        for spelling in (5, "5", "05"):
            assert index.id_of(spelling) == index.id_of(5)
            assert route_key(spelling) == route_key(5)


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        keys = [route_key(i) for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_all_shards_reachable(self):
        ring = HashRing(3)
        owners = {ring.shard_of(str(i)) for i in range(500)}
        assert owners == {0, 1, 2}

    def test_single_shard(self):
        ring = HashRing(1)
        assert {ring.shard_of(str(i)) for i in range(50)} == {0}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="num_shards"):
            HashRing(0)
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(2, vnodes=0)


class TestShardIndex:
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_home_shard_answers_match_full_index(self, num_shards):
        index = build_index(web_graph(120, seed=3))
        shards = shard_index(index, num_shards)
        ring = HashRing(num_shards)
        full = HierarchyQueryService(index)
        services = [HierarchyQueryService(s) for s in shards]
        for label in index.labels:
            home = ring.shard_of(route_key(label))
            assert shards[home].vcc_number_of(label) == (
                index.vcc_number_of(label)
            )
            for other in index.labels[:10]:
                assert services[home].max_shared_level(label, other) == (
                    full.max_shared_level(label, other)
                )

    def test_single_shard_reproduces_input(self):
        index = build_index(ring_of_cliques(3, 5))
        assert shard_index(index, 1)[0] == index

    def test_shards_keep_index_invariants(self):
        index = build_index(web_graph(120, seed=3))
        for shard in shard_index(index, 3):
            ks = list(shard.node_k)
            assert ks == sorted(ks), "nodes must stay level-ordered"
            for node in range(shard.num_nodes):
                parent = shard.node_parent[node]
                assert parent == -1 or 0 <= parent < node
                members = shard.members(node)
                assert all(0 <= m < shard.num_vertices for m in members)
                if parent >= 0:
                    assert set(members) <= set(shard.members(parent))

    def test_component_closure_is_replicated(self):
        """Every component containing an owned vertex lives on the
        owner's shard - the invariant pair queries rest on."""
        index = build_index(web_graph(120, seed=3))
        num_shards = 3
        shards = shard_index(index, num_shards)
        ring = HashRing(num_shards)
        sets_by_shard = [
            {
                (s.node_k[n], frozenset(s.member_labels(n)))
                for n in range(s.num_nodes)
            }
            for s in shards
        ]
        for node in range(index.num_nodes):
            members = index.member_labels(node)
            key = (index.node_k[node], frozenset(members))
            for label in members:
                home = ring.shard_of(route_key(label))
                assert key in sets_by_shard[home]

    def test_string_labels_shard_and_answer(self):
        index = build_index(string_label_graph())
        shards = shard_index(index, 2)
        ring = HashRing(2)
        for label in index.labels:
            home = ring.shard_of(route_key(label))
            assert shards[home].vcc_number_of(label) == (
                index.vcc_number_of(label)
            )

    def test_shards_round_trip_through_files(self, tmp_path):
        index = build_index(ring_of_cliques(4, 5))
        for i, shard in enumerate(shard_index(index, 2)):
            path = str(tmp_path / f"s{i}.kvccidx")
            shard.save(path)
            assert HierarchyIndex.load(path, mmap=True) == shard

    def test_rejects_bad_shard_count(self):
        index = build_index(ring_of_cliques(3, 5))
        with pytest.raises(ValueError, match="num_shards"):
            shard_index(index, 0)


class TestManifest:
    def test_write_and_load(self, tmp_path):
        index = build_index(ring_of_cliques(3, 5))
        out = str(tmp_path / "shards")
        manifest = write_shards(index, out, 2)
        assert manifest == load_manifest(out)
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["num_shards"] == 2
        assert manifest["hash"] == {
            "scheme": "fnv1a64-ring",
            "vnodes": DEFAULT_VNODES,
        }
        paths = shard_paths(manifest, out)
        assert [os.path.basename(p) for p in paths] == [
            "shard-0000.kvccidx", "shard-0001.kvccidx",
        ]
        loaded = [HierarchyIndex.load(p, mmap=True) for p in paths]
        assert loaded == shard_index(index, 2)
        ring = ring_from_manifest(manifest)
        assert ring.num_shards == 2

    def test_load_rejects_foreign_format(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": "something-else/9"})
        )
        with pytest.raises(ValueError, match="unsupported shard manifest"):
            load_manifest(str(tmp_path))

    def test_load_rejects_inconsistent_shard_list(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps(
                {"format": MANIFEST_FORMAT, "num_shards": 3, "shards": []}
            )
        )
        with pytest.raises(ValueError, match="corrupt manifest"):
            load_manifest(str(tmp_path))

    def test_ensure_shards_caches_by_content(self, tmp_path):
        index_path = str(tmp_path / "g.kvccidx")
        build_index(ring_of_cliques(3, 5)).save(index_path)
        manifest, paths = ensure_shards(index_path, 2, str(tmp_path))
        # Same bytes, same shard count: the exact same cached files.
        again, paths_again = ensure_shards(index_path, 2, str(tmp_path))
        assert paths == paths_again
        mtimes = [os.stat(p).st_mtime_ns for p in paths]
        ensure_shards(index_path, 2, str(tmp_path))
        assert [os.stat(p).st_mtime_ns for p in paths] == mtimes
        # New index bytes re-shard into a fresh directory.
        build_index(ring_of_cliques(4, 6)).save(index_path)
        _, paths_new = ensure_shards(index_path, 2, str(tmp_path))
        assert set(paths_new).isdisjoint(paths)
        # A different shard count is its own cache entry too.
        _, paths_three = ensure_shards(index_path, 3, str(tmp_path))
        assert len(paths_three) == 3


def make_backends(paths):
    """In-process shard executors over the saved shard files."""
    backends = []
    for path in paths:
        registry = IndexRegistry()
        registry.register("g", path)
        backends.append(
            lambda p, q, _r=registry: handle_request(_r, p, q)
        )
    return backends


class TestShardRouter:
    @pytest.fixture
    def setup(self, tmp_path):
        index_path = str(tmp_path / "g.kvccidx")
        build_index(web_graph(120, seed=3)).save(index_path)
        manifest, paths = ensure_shards(index_path, 3, str(tmp_path))
        single = IndexRegistry()
        single.register("g", index_path)
        router = ShardRouter(
            {"g": ring_from_manifest(manifest)},
            backends=make_backends(paths),
        )
        return single, router

    def test_byte_parity_across_catalog(self, setup):
        single, router = setup
        for path, params in PARITY_CATALOG:
            want_status, want_payload = handle_request(single, path, params)
            got_status, got_payload = router.handle_request(path, params)
            assert got_status == want_status, (path, params)
            assert render_json(got_payload) == render_json(want_payload), (
                path, params,
            )

    def test_byte_parity_string_labels(self, tmp_path):
        index_path = str(tmp_path / "g.kvccidx")
        build_index(string_label_graph()).save(index_path)
        manifest, paths = ensure_shards(index_path, 3, str(tmp_path))
        single = IndexRegistry()
        single.register("g", index_path)
        router = ShardRouter(
            {"g": ring_from_manifest(manifest)},
            backends=make_backends(paths),
        )
        labels = ["v0", "v3", "alice", "bob", "5", "05", "missing"]
        catalog = [
            ("/v1/g/vcc-number", {"v": labels}),
            ("/v1/g/max-shared-level",
             {"pair": [f"{u}:{v}" for u in labels[:4] for v in labels]}),
            ("/v1/g/components-of", {"v": ["alice"], "k": ["2"]}),
        ]
        for path, params in catalog:
            want = handle_request(single, path, params)
            got = router.handle_request(path, params)
            assert got[0] == want[0]
            assert render_json(got[1]) == render_json(want[1])

    def test_batch_fanout_preserves_request_order(self, setup):
        """Answers come back in request order even when adjacent tokens
        live on different shards."""
        single, router = setup
        tokens = [str(i) for i in range(60)]
        _, want = handle_request(
            single, "/v1/g/vcc-number", {"v": tokens}
        )
        plan = router.plan("/v1/g/vcc-number", {"v": tokens})
        assert plan[0] == "fanout" and len(plan[1]) >= 2
        _, got = router.handle_request("/v1/g/vcc-number", {"v": tokens})
        assert got == want

    def test_counters(self, setup):
        _, router = setup
        router.handle_request("/v1/g/vcc-number", {"v": ["0"]})
        router.handle_request(
            "/v1/g/vcc-number", {"v": [str(i) for i in range(60)]}
        )
        router.handle_request("/datasets", {})
        counters = router.counters
        assert counters["requests"] == 3
        assert counters["forwards"] == 1
        assert counters["fanouts"] == 1
        assert counters["local"] == 1

    def test_healthz_aggregates_shards(self, setup):
        _, router = setup
        status, payload = router.handle_request("/healthz", {})
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["role"] == "router"
        assert [s["ok"] for s in payload["shards"]] == [True] * 3

    def test_healthz_degrades_on_dead_shard(self, setup):
        _, router = setup
        router._backends[1] = lambda p, q: (503, {"error": "down"})
        status, payload = router.handle_request("/healthz", {})
        assert status == 503
        assert payload["status"] == "degraded"
        assert payload["shards"][1]["ok"] is False

    def test_upstream_error_propagates_from_fanout(self, setup):
        _, router = setup
        router._backends[1] = lambda p, q: (503, {"error": "down"})
        status, payload = router.handle_request(
            "/v1/g/vcc-number", {"v": [str(i) for i in range(60)]}
        )
        assert status == 503

    def test_constructor_validation(self, setup):
        with pytest.raises(ValueError, match="at least one dataset"):
            ShardRouter({})
        with pytest.raises(ValueError, match="disagree"):
            ShardRouter({"a": HashRing(2), "b": HashRing(3)})
        with pytest.raises(ValueError, match="backend"):
            ShardRouter({"a": HashRing(2)}, backends=[lambda p, q: None])

    def test_plan_only_router_refuses_sync_execution(self):
        router = ShardRouter({"g": HashRing(2)})
        with pytest.raises(RuntimeError, match="without backends"):
            router.handle_request("/healthz", {})


def poison_index_path(tmp_path):
    """An index that loads fine but crashes component queries.

    Its single node claims members far outside the vertex range, so
    ``vcc-number`` answers normally while ``components-of`` raises
    ``IndexError`` inside the handler - the shape of a corrupt-but-
    loadable file, used to exercise the 500 path end to end.
    """
    poison = HierarchyIndex(
        labels=[0, 1, 2],
        node_k=[2],
        node_parent=[-1],
        run_offsets=[0, 1],
        runs=[999_999, 3],
        vcc_numbers=[2, 2, 2],
        max_k=2,
    )
    path = str(tmp_path / "poison.kvccidx")
    poison.save(path)
    return path


def http_get(host, port, target):
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestAsyncServer:
    @pytest.fixture
    def registry(self, tmp_path):
        path = str(tmp_path / "ring.kvccidx")
        build_index(ring_of_cliques(3, 5)).save(path)
        registry = IndexRegistry()
        registry.register("ring", path)
        registry.register("poison", poison_index_path(tmp_path))
        return registry

    def test_keep_alive_parity_with_handlers(self, registry):
        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                targets = [
                    ("/v1/ring/vcc-number?v=0", "/v1/ring/vcc-number",
                     {"v": ["0"]}),
                    ("/v1/ring/vcc-number?v=05", "/v1/ring/vcc-number",
                     {"v": ["05"]}),
                    ("/v1/ring/same-kvcc?u=0&v=1&k=4", "/v1/ring/same-kvcc",
                     {"u": ["0"], "v": ["1"], "k": ["4"]}),
                    ("/v1/ring/vcc-number", "/v1/ring/vcc-number", {}),
                    ("/v1/nope/vcc-number?v=0", "/v1/nope/vcc-number",
                     {"v": ["0"]}),
                ]
                for target, path, params in targets:
                    connection.request("GET", target)
                    response = connection.getresponse()
                    body = response.read()
                    want_status, want_payload = handle_request(
                        registry, path, params
                    )
                    assert response.status == want_status
                    assert body == render_json(want_payload)
            finally:
                connection.close()

    def test_500_keeps_connection_alive(self, registry):
        """The corrupt-but-loadable index answers 500 JSON and the
        keep-alive connection survives for the next request."""
        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request("GET", "/v1/poison/components-of?v=0&k=2")
                response = connection.getresponse()
                assert response.status == 500
                assert json.loads(response.read()) == {
                    "error": "internal server error",
                    "code": "internal_error",
                }
                connection.request("GET", "/v1/ring/vcc-number?v=0")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["vcc_number"] == 4
            finally:
                connection.close()

    def test_poison_vcc_number_still_healthy(self, registry):
        """The poison dataset only breaks component listings."""
        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            status, body = http_get(host, port, "/v1/poison/vcc-number?v=0")
            assert status == 200
            assert json.loads(body)["vcc_number"] == 2

    def test_unsupported_method_answers_501(self, registry):
        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request("PUT", "/healthz", body=b"{}")
                assert connection.getresponse().status == 501
            finally:
                connection.close()

    def test_post_to_non_mutation_route_answers_404(self, registry):
        """POST is a supported method now; a non-``/edges`` target is a
        routing miss, not a 501."""
        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request("POST", "/healthz", body=b"{}")
                assert connection.getresponse().status == 404
            finally:
                connection.close()

    def test_bad_content_length_closes_connection(self, registry):
        """Junk or oversized Content-Length answers 400 *and closes*.

        Regression: the 400 used to keep the connection alive without
        reading the declared body, so the unread body bytes were parsed
        as the next request head, desyncing the keep-alive stream.
        """
        import socket

        from repro.service.aserver import MAX_BODY

        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            for declared in ("abc", str(MAX_BODY + 1)):
                with socket.create_connection(
                    (host, port), timeout=10
                ) as sock:
                    sock.sendall(
                        (
                            f"POST /v1/ring/edges HTTP/1.1\r\n"
                            f"Host: {host}\r\n"
                            f"Content-Length: {declared}\r\n\r\n"
                        ).encode("latin-1")
                        + b"LEFTOVER-BODY-BYTES"
                    )
                    blob = b""
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break  # server closed: no desync possible
                        blob += chunk
                    head = blob.split(b"\r\n\r\n", 1)[0]
                    assert b" 400 " in head.split(b"\r\n")[0]
                    assert b"connection: close" in head.lower()

    def test_chunked_post_answers_411_and_closes(self, registry):
        """A chunked body is not read, so its bytes must not be parsed
        as further requests: one 411, then the connection ends."""
        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            responses = raw_exchange(
                host,
                port,
                b"POST /v1/ring/edges HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
                b"GET /v1/ring/vcc-number?v=0 HTTP/1.1\r\nHost: x\r\n\r\n",
            )
        assert len(responses) == 1
        status, headers, body = responses[0]
        assert status == 411
        assert headers[b"connection"] == b"close"
        assert json.loads(body)["code"] == "bad_body"

    def test_conflicting_content_lengths_answer_400_and_close(
        self, registry
    ):
        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            responses = raw_exchange(
                host,
                port,
                b"POST /v1/ring/edges HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 2\r\nContent-Length: 40\r\n\r\n"
                b"{}GET /v1/ring/vcc-number?v=0 HTTP/1.1\r\n\r\n",
            )
        assert len(responses) == 1
        status, headers, body = responses[0]
        assert status == 400
        assert headers[b"connection"] == b"close"
        assert json.loads(body)["code"] == "bad_body"

    def test_http10_closes_unless_keep_alive(self, registry):
        """HTTP/1.0 defaults to one request per connection; an explicit
        keep-alive keeps it open for exactly the next request."""
        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            one = raw_exchange(
                host, port, b"GET /v1/ring/vcc-number?v=0 HTTP/1.0\r\n\r\n"
            )
            two = raw_exchange(
                host,
                port,
                b"GET /v1/ring/vcc-number?v=0 HTTP/1.0\r\n"
                b"Connection: keep-alive\r\n\r\n"
                b"GET /v1/ring/vcc-number?v=1 HTTP/1.0\r\n\r\n",
            )
        assert [status for status, _, _ in one] == [200]
        assert one[0][1][b"connection"] == b"close"
        assert [status for status, _, _ in two] == [200, 200]
        assert b"connection" not in two[0][1]

    def test_oversized_head_answers_431_and_closes(self, registry):
        """A head past MAX_HEAD gets an answer, not a reset: one 431
        with a bad_request body and ``Connection: close``, then EOF."""
        from repro.service.aserver import MAX_HEAD

        server = AsyncHTTPServer(registry_dispatch(registry))
        with ServerThread(server) as (host, port):
            responses = raw_exchange(
                host,
                port,
                b"GET /healthz?pad=" + b"x" * (2 * MAX_HEAD) + b" HTTP/1.1\r\n"
                b"Host: x\r\n\r\n",
            )
        assert len(responses) == 1
        status, headers, body = responses[0]
        assert status == 431
        assert headers[b"connection"] == b"close"
        assert json.loads(body)["code"] == "bad_request"

    @pytest.mark.parametrize("quiet", [True, False])
    def test_request_log_has_one_line_per_request(
        self, registry, capsys, quiet
    ):
        """``quiet=False`` (``repro serve --verbose``) writes one stderr
        line per request on a keep-alive connection: peer, request line,
        status.  ``quiet=True`` writes nothing."""
        targets = [
            ("/v1/ring/vcc-number?v=0", 200),
            ("/healthz", 200),
            ("/v1/nope/vcc-number?v=0", 404),
            ("/v1/ring/vcc-number", 400),
        ]
        server = AsyncHTTPServer(registry_dispatch(registry), quiet=quiet)
        with ServerThread(server) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                for target, _ in targets:
                    connection.request("GET", target)
                    connection.getresponse().read()
            finally:
                connection.close()
        lines = capsys.readouterr().err.splitlines()
        if quiet:
            assert lines == []
        else:
            assert lines == [
                f'{host} "GET {target} HTTP/1.1" {status}'
                for target, status in targets
            ]

    def test_stop_with_idle_keep_alive_connection(self, registry, caplog):
        """Stopping drains: the idle client sees EOF, and no task is
        destroyed pending or touches the closed loop afterwards."""
        unraisable = []
        previous_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            thread = ServerThread(AsyncHTTPServer(registry_dispatch(registry)))
            host, port = thread.start()
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(
                    b"GET /v1/ring/vcc-number?v=0 HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(65536)
                assert head.startswith(b"HTTP/1.1 200 ")
                thread.stop()
                assert not thread._thread.is_alive()
                read_to_eof(sock)  # times out unless the server closed
            gc.collect()
        finally:
            sys.unraisablehook = previous_hook
        assert not unraisable
        assert not [r for r in caplog.records if r.name == "asyncio"]


@pytest.mark.slow
class TestShardCluster:
    def test_end_to_end_two_process_cluster(self, tmp_path):
        """Real shard processes + async router: byte parity, fan-out,
        batch order, and router health - one boot, many assertions."""
        index_path = str(tmp_path / "g.kvccidx")
        build_index(web_graph(120, seed=3)).save(index_path)
        manifest, paths = ensure_shards(index_path, 2, str(tmp_path))
        single = IndexRegistry()
        single.register("g", index_path)
        with ShardCluster([[("g", p)] for p in paths]) as addresses:
            assert len(addresses) == 2
            router = ShardRouter({"g": ring_from_manifest(manifest)})
            dispatch = RouterDispatch(router, addresses)
            with ServerThread(AsyncHTTPServer(dispatch)) as (host, port):
                connection = http.client.HTTPConnection(
                    host, port, timeout=15
                )
                try:
                    from urllib.parse import urlencode

                    for path, params in PARITY_CATALOG:
                        query = urlencode(params, doseq=True)
                        target = path + ("?" + query if query else "")
                        connection.request("GET", target)
                        response = connection.getresponse()
                        body = response.read()
                        want_status, want_payload = handle_request(
                            single, path, params
                        )
                        assert response.status == want_status, target
                        assert body == render_json(want_payload), target
                    connection.request("GET", "/healthz")
                    health = json.loads(connection.getresponse().read())
                    assert health["status"] == "ok"
                    assert health["num_shards"] == 2
                finally:
                    connection.close()
            dispatch.close()

    def test_cluster_start_failure_is_loud(self, tmp_path):
        missing = str(tmp_path / "missing.kvccidx")
        cluster = ShardCluster([[("g", missing)]])
        # The worker registers lazily, so it boots fine; the router
        # surfaces the unreadable file as 503 per request instead.
        try:
            addresses = cluster.start()
            host, port = addresses[0]
            status, body = http_get(host, port, "/v1/g/vcc-number?v=0")
            assert status == 503
        finally:
            cluster.stop()