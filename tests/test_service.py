"""Tests for the serving layer: registry, handlers, HTTP server, CLI."""

import contextlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import (
    complete_graph,
    ring_of_cliques,
    web_graph,
)
from repro.index import HierarchyQueryService, build_index
from repro.service import (
    AsyncHTTPServer,
    DatasetNotFound,
    IndexRegistry,
    ServerThread,
    handle_request,
    registry_dispatch,
)

from helpers import raw_exchange, read_to_eof


def save_index(graph, path):
    """Build and persist an index; returns the built index."""
    index = build_index(graph)
    index.save(path)
    return index


def bump_mtime(path):
    """Force a visibly different mtime even on coarse filesystems."""
    status = os.stat(path)
    os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns + 1_000_000))


@pytest.fixture
def ring_path(tmp_path):
    path = str(tmp_path / "ring.kvccidx")
    save_index(ring_of_cliques(3, 5), path)
    return path


@pytest.fixture
def web_path(tmp_path):
    path = str(tmp_path / "web.kvccidx")
    save_index(web_graph(150, seed=7), path)
    return path


class TestIndexRegistry:
    def test_lazy_open(self, ring_path):
        registry = IndexRegistry()
        registry.register("ring", ring_path)
        assert [d["resident"] for d in registry.datasets()] == [False]
        assert registry.get("ring").vcc_number(0) == 4
        records = registry.datasets()
        assert records[0]["resident"] is True
        assert records[0]["max_k"] == 4
        assert records[0]["mmap"] is True

    def test_unknown_dataset(self):
        registry = IndexRegistry()
        with pytest.raises(DatasetNotFound):
            registry.get("nope")

    def test_same_service_across_calls(self, ring_path):
        registry = IndexRegistry()
        registry.register("ring", ring_path)
        assert registry.get("ring") is registry.get("ring")
        assert registry.stats()["loads"] == 1
        assert registry.stats()["hits"] == 1

    def test_lru_eviction(self, ring_path, web_path):
        registry = IndexRegistry(capacity=1)
        registry.register("ring", ring_path)
        registry.register("web", web_path)
        registry.get("ring")
        registry.get("web")  # capacity 1: ring must be evicted
        resident = {d["name"]: d["resident"] for d in registry.datasets()}
        assert resident == {"ring": False, "web": True}
        assert registry.stats()["evictions"] == 1
        # Evicted datasets transparently reload on the next query.
        assert registry.get("ring").vcc_number(0) == 4
        assert registry.stats()["loads"] == 3

    def test_hot_reload_on_rewrite(self, tmp_path):
        path = str(tmp_path / "g.kvccidx")
        save_index(ring_of_cliques(3, 5), path)
        registry = IndexRegistry()
        registry.register("g", path)
        assert registry.get("g").vcc_number(0) == 4
        save_index(complete_graph(6), path)
        bump_mtime(path)
        assert registry.get("g").vcc_number(0) == 5
        assert registry.stats()["reloads"] == 1

    def test_no_reload_when_unchanged(self, ring_path):
        registry = IndexRegistry()
        registry.register("ring", ring_path)
        registry.get("ring")
        registry.get("ring")
        assert registry.stats()["reloads"] == 0

    def test_explicit_evict(self, ring_path):
        registry = IndexRegistry()
        registry.register("ring", ring_path)
        assert registry.evict("ring") is False  # nothing resident yet
        registry.get("ring")
        assert registry.evict("ring") is True
        assert registry.datasets()[0]["resident"] is False
        assert registry.get("ring").vcc_number(0) == 4

    def test_evict_all(self, ring_path, web_path):
        registry = IndexRegistry()
        registry.register("ring", ring_path)
        registry.register("web", web_path)
        registry.get("ring")
        registry.get("web")
        assert registry.evict_all() == 2
        assert registry.stats()["resident"] == 0

    def test_unregister(self, ring_path):
        registry = IndexRegistry()
        registry.register("ring", ring_path)
        assert "ring" in registry
        assert registry.unregister("ring") is True
        assert registry.unregister("ring") is False
        assert "ring" not in registry
        with pytest.raises(DatasetNotFound):
            registry.get("ring")

    def test_reregister_repoints(self, ring_path, web_path):
        registry = IndexRegistry()
        registry.register("g", ring_path)
        assert registry.get("g").index.max_k == 4
        registry.register("g", web_path)
        assert registry.get("g").index.num_vertices == 150

    def test_missing_file_raises_oserror(self, tmp_path):
        registry = IndexRegistry()
        registry.register("gone", str(tmp_path / "gone.kvccidx"))
        with pytest.raises(OSError):
            registry.get("gone")

    def test_bad_names_rejected(self, ring_path):
        registry = IndexRegistry()
        with pytest.raises(ValueError, match="slash-free"):
            registry.register("a/b", ring_path)
        with pytest.raises(ValueError, match="slash-free"):
            registry.register("", ring_path)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            IndexRegistry(capacity=0)

    def test_eager_mode(self, ring_path):
        registry = IndexRegistry(mmap=False)
        registry.register("ring", ring_path)
        service = registry.get("ring")
        assert service.index.is_mmap is False
        assert service.vcc_number(0) == 4


@pytest.fixture
def registry(ring_path, web_path):
    reg = IndexRegistry()
    reg.register("ring", ring_path)
    reg.register("web", web_path)
    return reg


class TestHandlers:
    def test_healthz(self, registry):
        status, payload = handle_request(registry, "/healthz", {})
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["registered"] == 2

    def test_datasets(self, registry):
        status, payload = handle_request(registry, "/datasets", {})
        assert status == 200
        assert [d["name"] for d in payload["datasets"]] == ["ring", "web"]

    def test_vcc_number_scalar(self, registry):
        status, payload = handle_request(
            registry, "/v1/ring/vcc-number", {"v": ["0"]}
        )
        assert (status, payload) == (200, {"v": "0", "vcc_number": 4})

    def test_vcc_number_batch(self, registry):
        status, payload = handle_request(
            registry, "/v1/ring/vcc-number", {"v": ["0", "1", "999"]}
        )
        assert status == 200
        assert payload["vcc_numbers"] == [4, 4, 0]

    def test_same_kvcc(self, registry):
        status, payload = handle_request(
            registry, "/v1/ring/same-kvcc",
            {"u": ["0"], "v": ["1"], "k": ["4"]},
        )
        assert (status, payload["same_kvcc"]) == (200, True)

    def test_same_kvcc_pairs(self, registry):
        status, payload = handle_request(
            registry, "/v1/ring/same-kvcc",
            {"pair": ["0:1", "0:14"], "k": ["4"]},
        )
        assert (status, payload["results"]) == (200, [True, False])

    def test_components_of(self, registry):
        status, payload = handle_request(
            registry, "/v1/ring/components-of", {"v": ["0"], "k": ["4"]}
        )
        assert status == 200
        assert payload["count"] == 1
        assert payload["components"] == [[0, 1, 2, 3, 4]]

    def test_max_shared_level(self, registry):
        status, payload = handle_request(
            registry, "/v1/ring/max-shared-level", {"u": ["0"], "v": ["14"]}
        )
        assert (status, payload["max_shared_level"]) == (200, 2)

    def test_max_shared_level_pairs(self, registry):
        status, payload = handle_request(
            registry, "/v1/ring/max-shared-level", {"pair": ["0:1", "0:14"]}
        )
        assert status == 200
        assert payload["results"] == [4, 2]

    def test_unknown_dataset_404(self, registry):
        status, payload = handle_request(
            registry, "/v1/nope/vcc-number", {"v": ["0"]}
        )
        assert status == 404
        assert "nope" in payload["error"]

    def test_unknown_endpoint_404(self, registry):
        status, payload = handle_request(registry, "/v1/ring/bogus", {})
        assert status == 404
        assert "bogus" in payload["error"]

    def test_unknown_route_404(self, registry):
        assert handle_request(registry, "/junk", {})[0] == 404

    def test_missing_param_400(self, registry):
        status, payload = handle_request(registry, "/v1/ring/vcc-number", {})
        assert status == 400
        assert "'v'" in payload["error"]

    def test_repeated_scalar_param_400(self, registry):
        status, _ = handle_request(
            registry, "/v1/ring/same-kvcc",
            {"u": ["0", "1"], "v": ["1"], "k": ["2"]},
        )
        assert status == 400

    def test_bad_k_400(self, registry):
        for bad in (["zero"], ["0"], ["-3"]):
            status, payload = handle_request(
                registry, "/v1/ring/components-of", {"v": ["0"], "k": bad}
            )
            assert status == 400, payload

    def test_bad_pair_400(self, registry):
        status, payload = handle_request(
            registry, "/v1/ring/same-kvcc",
            {"pair": ["nocolon"], "k": ["2"]},
        )
        assert status == 400
        assert "u:v" in payload["error"]

    def test_missing_file_503(self, tmp_path, registry):
        registry.register("gone", str(tmp_path / "gone.kvccidx"))
        status, payload = handle_request(
            registry, "/v1/gone/vcc-number", {"v": ["0"]}
        )
        assert status == 503
        assert "unavailable" in payload["error"]

    def test_corrupt_file_503(self, tmp_path, registry):
        """A truncated/garbage index is a server problem, not a 400."""
        bad = tmp_path / "bad.kvccidx"
        bad.write_bytes(b"garbage, not an index")
        registry.register("bad", str(bad))
        status, payload = handle_request(
            registry, "/v1/bad/vcc-number", {"v": ["0"]}
        )
        assert status == 503
        assert "unavailable" in payload["error"]

    def test_corrupted_behind_live_server_503(self, tmp_path):
        """Hot reload of a file that went bad must 503, then recover."""
        path = str(tmp_path / "g.kvccidx")
        save_index(ring_of_cliques(3, 5), path)
        registry = IndexRegistry()
        registry.register("g", path)
        assert handle_request(
            registry, "/v1/g/vcc-number", {"v": ["0"]}
        )[0] == 200
        with open(path, "wb") as handle:
            handle.write(b"truncated")
        bump_mtime(path)
        assert handle_request(
            registry, "/v1/g/vcc-number", {"v": ["0"]}
        )[0] == 503
        save_index(ring_of_cliques(3, 5), path)
        bump_mtime(path)
        assert handle_request(
            registry, "/v1/g/vcc-number", {"v": ["0"]}
        )[0] == 200

    def test_string_labels_parse(self, tmp_path):
        from repro.graph.graph import Graph

        path = str(tmp_path / "s.kvccidx")
        save_index(
            Graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]), path
        )
        registry = IndexRegistry()
        registry.register("s", path)
        status, payload = handle_request(
            registry, "/v1/s/vcc-number", {"v": ["a"]}
        )
        assert (status, payload["vcc_number"]) == (200, 2)

    def test_numeric_string_spelling_resolves(self, registry):
        """Regression: '05' must answer for int-labeled vertex 5, not 0.

        ``id_of`` documents an int-first-with-string-fallback lookup;
        before the fix a non-canonical numeric spelling fell through
        both the handler's int parse and the exact label match and came
        back as vcc_number 0 - a silent wrong answer over HTTP.
        """
        canonical = handle_request(
            registry, "/v1/ring/vcc-number", {"v": ["5"]}
        )[1]["vcc_number"]
        assert canonical > 0
        status, payload = handle_request(
            registry, "/v1/ring/vcc-number", {"v": ["05"]}
        )
        assert (status, payload["vcc_number"]) == (200, canonical)
        # The batch path takes a different (vectorized) lookup route.
        status, payload = handle_request(
            registry, "/v1/ring/vcc-number", {"v": ["05", "5", "nope"]}
        )
        assert payload["vcc_numbers"] == [canonical, canonical, 0]
        # Pair endpoints resolve the fallback spellings too.
        status, payload = handle_request(
            registry, "/v1/ring/max-shared-level",
            {"u": ["05"], "v": ["5"]},
        )
        assert payload["max_shared_level"] == canonical

    def test_int_token_resolves_string_label(self, tmp_path):
        """The reverse fallback: token '5' against a graph labeled '5'."""
        from repro.graph.graph import Graph

        path = str(tmp_path / "s.kvccidx")
        save_index(
            Graph([("5", "6"), ("6", "7"), ("7", "5"), ("7", "8")]), path
        )
        registry = IndexRegistry()
        registry.register("s", path)
        status, payload = handle_request(
            registry, "/v1/s/vcc-number", {"v": ["5"]}
        )
        assert (status, payload["vcc_number"]) == (200, 2)

    def test_crashed_endpoint_answers_500(self, registry, monkeypatch):
        """Regression: a bug inside an endpoint must map to 500 JSON,
        not propagate into the transport and drop the connection."""
        from repro.service import handlers

        def boom(service, params, measure="kvcc"):
            raise TypeError("endpoint bug")

        monkeypatch.setitem(handlers.QUERY_ENDPOINTS, "vcc-number", boom)
        status, payload = handle_request(
            registry, "/v1/ring/vcc-number", {"v": ["0"]}
        )
        assert status == 500
        assert payload == {
            "error": "internal server error",
            "code": "internal_error",
        }

    def test_stat_error_keeps_serving_resident_index(self, tmp_path):
        """Regression: the index file vanishing must not 503 a dataset
        whose resident copy is still valid."""
        path = str(tmp_path / "g.kvccidx")
        save_index(ring_of_cliques(3, 5), path)
        registry = IndexRegistry()
        registry.register("g", path)
        assert registry.get("g").vcc_number(0) == 4
        os.remove(path)
        # Still answers from the resident index, counted explicitly.
        assert registry.get("g").vcc_number(0) == 4
        assert registry.stats()["stat_errors"] == 1
        status, payload = handle_request(
            registry, "/v1/g/vcc-number", {"v": ["0"]}
        )
        assert (status, payload["vcc_number"]) == (200, 4)
        # Once the file is back, normal reload tracking resumes.
        save_index(complete_graph(6), path)
        bump_mtime(path)
        assert registry.get("g").vcc_number(0) == 5

    def test_stat_error_without_resident_index_raises(self, tmp_path):
        registry = IndexRegistry()
        registry.register("gone", str(tmp_path / "gone.kvccidx"))
        with pytest.raises(OSError):
            registry.get("gone")
        assert registry.stats()["stat_errors"] == 0

    def test_save_atomic_round_trip_and_cleanup(self, tmp_path):
        from repro.index import HierarchyIndex

        index = build_index(ring_of_cliques(3, 5))
        path = tmp_path / "g.kvccidx"
        index.save_atomic(str(path))
        assert HierarchyIndex.load(str(path)) == index
        # Overwriting is atomic too, and no temp litter survives.
        build_index(complete_graph(6)).save_atomic(str(path))
        assert HierarchyIndex.load(str(path)).max_k == 5
        assert [p.name for p in tmp_path.iterdir()] == ["g.kvccidx"]

    def test_save_atomic_failure_leaves_no_litter(self, tmp_path):
        index = build_index(ring_of_cliques(3, 5))
        index._labels[0] = ("not", "persistable")
        with pytest.raises(TypeError):
            index.save_atomic(str(tmp_path / "g.kvccidx"))
        assert list(tmp_path.iterdir()) == []


@pytest.fixture
def server(registry):
    """The registry served over HTTP; yields the bound (host, port)."""
    with ServerThread(AsyncHTTPServer(registry_dispatch(registry))) as address:
        yield address


def http_get(server, path):
    """One GET against the test server; returns (status, payload)."""
    host, port = server
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestHttpServer:
    def test_healthz(self, server):
        status, payload = http_get(server, "/healthz")
        assert (status, payload["status"]) == (200, "ok")

    def test_query_parity_with_direct_service(self, server, ring_path):
        direct = HierarchyQueryService.from_file(ring_path)
        for v in (0, 5, 14):
            status, payload = http_get(server, f"/v1/ring/vcc-number?v={v}")
            assert status == 200
            assert payload["vcc_number"] == direct.vcc_number(v)
        status, payload = http_get(
            server, "/v1/ring/max-shared-level?u=0&v=14"
        )
        assert payload["max_shared_level"] == direct.max_shared_level(0, 14)

    def test_batch_over_http(self, server, ring_path):
        direct = HierarchyQueryService.from_file(ring_path)
        vs = list(range(15))
        query = "&".join(f"v={v}" for v in vs)
        status, payload = http_get(server, f"/v1/ring/vcc-number?{query}")
        assert status == 200
        assert payload["vcc_numbers"] == direct.vcc_numbers(vs)

    def test_error_statuses_over_http(self, server):
        assert http_get(server, "/v1/nope/vcc-number?v=0")[0] == 404
        assert http_get(server, "/v1/ring/vcc-number")[0] == 400
        assert http_get(server, "/bogus")[0] == 404

    def test_keep_alive_connection(self, server):
        host, port = server
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(5):
                connection.request("GET", "/v1/ring/vcc-number?v=0")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["vcc_number"] == 4
        finally:
            connection.close()

    def test_crashed_handler_keeps_keep_alive_connection(
        self, server, monkeypatch
    ):
        """Regression: an endpoint bug used to abort the connection with
        no response bytes; clients saw a dropped keep-alive, not an
        error.  The same connection must now receive a 500 JSON body
        and keep working for subsequent requests."""
        from repro.service import handlers

        def boom(service, params, measure="kvcc"):
            raise TypeError("endpoint bug")

        monkeypatch.setitem(handlers.QUERY_ENDPOINTS, "same-kvcc", boom)
        host, port = server
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/v1/ring/same-kvcc?u=0&v=1&k=2")
            response = connection.getresponse()
            assert response.status == 500
            assert json.loads(response.read()) == {
                "error": "internal server error",
                "code": "internal_error",
            }
            # The very same socket serves the next request fine.
            connection.request("GET", "/v1/ring/vcc-number?v=0")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["vcc_number"] == 4
        finally:
            connection.close()

    def test_numeric_string_spelling_over_http(self, server):
        """End-to-end regression for the silent-wrong-answer bug."""
        status, payload = http_get(server, "/v1/ring/vcc-number?v=05")
        assert (status, payload["vcc_number"]) == (200, 4)

    def test_content_type_json(self, server):
        host, port = server
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.getheader("Content-Type") == "application/json"
        finally:
            connection.close()


class TestServeCli:
    def test_serve_spec_named(self):
        from repro.cli import _serve_spec

        assert _serve_spec("web=/tmp/web.kvccidx") == (
            "web", "/tmp/web.kvccidx"
        )

    def test_serve_spec_bare_path(self):
        from repro.cli import _serve_spec

        assert _serve_spec("graphs/web.kvccidx") == (
            "web", "graphs/web.kvccidx"
        )

    def test_serve_spec_bare_dataset_token(self):
        from repro.cli import _serve_spec

        assert _serve_spec("name:youtube") == ("youtube", "name:youtube")
        assert _serve_spec("file:graphs/web.txt.gz") == (
            "web", "file:graphs/web.txt.gz"
        )
        # Bare edge-list paths strip the full .txt.gz suffix chain too.
        assert _serve_spec("ring.txt.gz") == ("ring", "ring.txt.gz")

    def test_serve_spec_invalid(self):
        import argparse

        from repro.cli import _serve_spec

        with pytest.raises(argparse.ArgumentTypeError):
            _serve_spec("=path")

    def test_parser_wiring(self, ring_path):
        args = build_parser().parse_args(
            ["serve", f"ring={ring_path}", "--port", "0", "--capacity", "2"]
        )
        assert args.datasets == [("ring", ring_path)]
        assert args.port == 0
        assert args.capacity == 2
        assert args.eager is False

    def test_preload_missing_file_fails_fast(self, tmp_path, capsys):
        code = main(
            ["serve", f"gone={tmp_path}/gone.kvccidx", "--preload",
             "--port", "0"]
        )
        assert code == 2
        assert "no such index file" in capsys.readouterr().err

    def test_preload_corrupt_file_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "bad.kvccidx"
        bad.write_bytes(b"definitely not an index file")
        code = main(["serve", f"bad={bad}", "--preload", "--port", "0"])
        assert code == 2
        assert "bad magic" in capsys.readouterr().err


SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: Seconds a ``repro serve`` process may take to exit after SIGINT.
STOP_DEADLINE = 15.0


@contextlib.contextmanager
def serve_process(*args):
    """``python -m repro serve ARGS --port 0`` as a child process.

    Yields ``(process, (host, port))`` once the banner is out, read
    from stdout exactly as scripts do; a child still running when the
    block ends is killed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    watchdog = threading.Timer(60, process.kill)
    watchdog.start()
    try:
        banner = process.stdout.readline()
        match = re.search(r"on http://([\d.]+):(\d+)", banner)
        assert match, banner + process.stderr.read()
        yield process, (match.group(1), int(match.group(2)))
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.communicate()


class TestServeProcess:
    """``repro serve`` booted as a real process, driven over sockets."""

    def test_framing_errors_answer_once_and_close(self, ring_path):
        """A body the server cannot frame gets one error and EOF; its
        bytes are never answered as a second request."""
        body = b'{"mutations": []}'
        chunked = (
            b"POST /v1/ring/edges HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        )
        conflicting = (
            b"POST /v1/ring/edges HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2\r\nContent-Length: 40\r\n\r\n"
            b"{}GET /v1/ring/vcc-number?v=0 HTTP/1.1\r\n\r\n"
        )
        with serve_process(f"ring={ring_path}") as (_, (host, port)):
            for request, want in ((chunked, 411), (conflicting, 400)):
                responses = raw_exchange(host, port, request)
                assert [status for status, _, _ in responses] == [want]
                _, headers, payload = responses[0]
                assert headers[b"connection"] == b"close"
                assert json.loads(payload)["code"] == "bad_body"

    @pytest.mark.parametrize("layout", [[]], ids=["replica"])
    def test_sigint_drains_and_exits_cleanly(
        self, ring_path, tmp_path, layout
    ):
        """SIGINT with an idle keep-alive client: the client sees EOF,
        the process exits 0 within STOP_DEADLINE, ``shutting down`` is
        the last stdout line, and stderr holds no traceback."""
        with serve_process(
            f"ring={ring_path}", "--cache-dir", str(tmp_path), *layout
        ) as (process, (host, port)):
            idle = http.client.HTTPConnection(
                host, port, timeout=STOP_DEADLINE
            )
            try:
                idle.request("GET", "/v1/ring/vcc-number?v=0")
                assert json.loads(idle.getresponse().read())["vcc_number"] == 4
                process.send_signal(signal.SIGINT)
                assert read_to_eof(idle.sock) == b""
            finally:
                idle.close()
            out, err = process.communicate(timeout=STOP_DEADLINE)
        assert process.returncode == 0
        assert out.splitlines()[-1] == "shutting down"
        assert "Traceback" not in err
