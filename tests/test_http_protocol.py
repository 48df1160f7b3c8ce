"""Protocol fuzz suite for the HTTP front end.

Hypothesis builds random pipelines of requests - ``PARITY_CATALOG``
GETs, POSTs a read-only deployment refuses, malformed request lines,
unsupported methods, HTTP/1.0 and ``Connection: close`` requests, and
bodies the server cannot frame - and sends each pipeline over one
connection to one :class:`~repro.service.aserver.AsyncHTTPServer`, in
pieces split at hypothesis-chosen byte offsets.  The server must answer
in order, one response per request, up to and including the first
request that ends the connection, and then close it.  Every GET and
POST answer must be byte-equal to the in-process handler's.
"""

import json
import socket
import string
import time
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import web_graph
from repro.index import build_index
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

from helpers import PARITY_CATALOG, read_to_eof, split_responses


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
