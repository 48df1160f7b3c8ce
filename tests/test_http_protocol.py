"""Protocol tests for the HTTP front end.

Hypothesis builds random pipelines of requests - ``PARITY_CATALOG``
GETs, POSTs a read-only deployment refuses, malformed request lines,
unsupported methods, HTTP/1.0 and ``Connection: close`` requests, and
bodies the server cannot frame - and sends each pipeline over one
connection to one :class:`~repro.service.aserver.AsyncHTTPServer`, in
pieces split at hypothesis-chosen byte offsets.  The server must answer
in order, one response per request, up to and including the first
request that ends the connection, and then close it.  Every GET and
POST answer must be byte-equal to the in-process handler's.

:class:`TestAsyncServer` pins the same edges one case at a time over
raw sockets and ``http.client``: keep-alive parity, 500 bodies on a
corrupt-but-loadable index, 400/411/431/501 answers, HTTP/1.0, the
``--verbose`` request log and stopping with an idle connection.
"""

import gc
import http.client
import json
import socket
import string
import sys
import time
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import ring_of_cliques, web_graph
from repro.index import HierarchyIndex, build_index
from repro.service import (
    AsyncHTTPServer,
    IndexRegistry,
    ServerThread,
    handle_mutation,
    handle_request,
    registry_dispatch,
)
from repro.service.aserver import MAX_BODY
from repro.service.handlers import render_json

from helpers import PARITY_CATALOG, raw_exchange, read_to_eof, split_responses


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """``(registry, (host, port))``: one read-only dataset ``g`` behind
    one server, shared by every example."""
    path = str(tmp_path_factory.mktemp("protocol") / "g.kvccidx")
    build_index(web_graph(120, seed=3)).save(path)
    registry = IndexRegistry()
    registry.register("g", path)
    with ServerThread(AsyncHTTPServer(registry_dispatch(registry))) as address:
        yield registry, address


# A generated request is ``(bytes, closes, expect)``; ``expect`` names
# the in-process answer: ``("get", path, params)``, ``("post", path,
# body)`` or ``("error", status, code)``.

# Repeated entries weight the draws towards requests that keep the
# connection open, so most pipelines run past their first request.
VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"])

#: Request-line garbage with no whitespace, so it never parses as a
#: request, and no "." so it cannot end in an HTTP version.
GARBAGE = st.text(
    alphabet=string.ascii_letters + string.digits + "/?=&%-_",
    max_size=12,
)


def encode_head(request_line, headers):
    lines = [request_line] + [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def connection_headers(draw, version):
    """Headers with a random ``Connection`` choice, and whether the
    server must close after answering."""
    connection = draw(st.sampled_from([None, None, "close", "keep-alive"]))
    headers = [("Host", "fuzz")]
    if connection is not None:
        name = draw(st.sampled_from(["Connection", "connection"]))
        headers.append((name, connection))
    if version == "HTTP/1.0":
        return headers, connection != "keep-alive"
    return headers, connection == "close"


@st.composite
def catalog_gets(draw):
    path, params = draw(st.sampled_from(PARITY_CATALOG))
    version = draw(VERSIONS)
    headers, closes = connection_headers(draw, version)
    query = urlencode(params, doseq=True)
    target = path + ("?" + query if query else "")
    head = encode_head(f"GET {target} {version}", headers)
    return head, closes, ("get", path, params)


@st.composite
def refused_posts(draw):
    """POSTs that mutate nothing: 409 ``not_mutable`` on the read-only
    dataset's edges, 404/405 elsewhere."""
    path = draw(
        st.sampled_from(
            ["/v1/g/edges", "/v1/g/edges", "/v1/nope/edges", "/v1/g/vcc-number"]
        )
    )
    body = draw(st.binary(max_size=48))
    version = draw(VERSIONS)
    headers, closes = connection_headers(draw, version)
    headers.append(("Content-Length", str(len(body))))
    head = encode_head(f"POST {path} {version}", headers)
    return head + body, closes, ("post", path, body)


@st.composite
def malformed_lines(draw):
    headers, closes = connection_headers(draw, "HTTP/1.1")
    head = encode_head(draw(GARBAGE), headers)
    return head, closes, ("error", 400, "bad_request")


@st.composite
def unsupported_methods(draw):
    method = draw(st.sampled_from(["PUT", "DELETE", "HEAD", "PATCH", "get"]))
    target = draw(st.sampled_from(["/healthz", "/v1/g/vcc-number?v=0"]))
    version = draw(VERSIONS)
    headers, closes = connection_headers(draw, version)
    body = draw(st.binary(max_size=16))
    if body:
        headers.append(("Content-Length", str(len(body))))
    head = encode_head(f"{method} {target} {version}", headers)
    return head + body, closes, ("error", 501, "unsupported_method")


@st.composite
def unframeable(draw):
    """A body the server cannot frame: one error, then the end."""
    body = draw(st.binary(max_size=32))
    headers = [("Host", "fuzz")]
    kind = draw(
        st.sampled_from(["chunked", "conflicting", "junk", "negative", "huge"])
    )
    if kind == "chunked":
        headers.append(("Transfer-Encoding", "chunked"))
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    elif kind == "conflicting":
        headers.append(("Content-Length", str(len(body))))
        headers.append(("Content-Length", str(len(body) + 1)))
    else:
        length = {"junk": "1x", "negative": "-1", "huge": str(MAX_BODY + 1)}
        headers.append(("Content-Length", length[kind]))
    method = draw(st.sampled_from(["POST", "GET"]))
    head = encode_head(f"{method} /v1/g/edges HTTP/1.1", headers)
    status = 411 if kind == "chunked" else 400
    return head + body, True, ("error", status, "bad_body")


PIPELINES = st.lists(
    st.one_of(
        catalog_gets(),
        refused_posts(),
        malformed_lines(),
        unsupported_methods(),
        unframeable(),
    ),
    min_size=1,
    max_size=8,
)


def expected_answer(registry, expect):
    """``(status, exact body or None, error code or None)``."""
    kind = expect[0]
    if kind == "get":
        status, payload = handle_request(registry, expect[1], expect[2])
        return status, render_json(payload), None
    if kind == "post":
        status, payload = handle_mutation(
            registry, None, expect[1], {}, expect[2]
        )
        return status, render_json(payload), None
    return expect[1], None, expect[2]


@settings(max_examples=80, deadline=None)
@given(pipeline=PIPELINES, data=st.data())
def test_pipelines_answer_in_order_then_close(served, pipeline, data):
    registry, address = served
    blob = b"".join(request for request, _, _ in pipeline)
    cuts = sorted(
        data.draw(st.sets(st.integers(1, len(blob) - 1), max_size=6), "cuts")
    )
    pieces = [blob[a:b] for a, b in zip([0] + cuts, cuts + [len(blob)])]
    with socket.create_connection(address, timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for piece in pieces:
            sock.sendall(piece)
            time.sleep(0.001)  # let the server read each piece apart
        sock.shutdown(socket.SHUT_WR)
        responses = split_responses(read_to_eof(sock))

    expected = []
    for _, closes, expect in pipeline:
        expected.append((expected_answer(registry, expect), closes))
        if closes:
            break  # the server answers nothing after a close
    assert len(responses) == len(expected)
    for (status, headers, body), (want, closes) in zip(responses, expected):
        want_status, want_body, want_code = want
        assert status == want_status
        if want_body is not None:
            assert body == want_body
        else:
            assert json.loads(body)["code"] == want_code
        assert (headers.get(b"connection") == b"close") == closes


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
