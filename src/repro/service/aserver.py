"""The HTTP/1.1 front end of the serving layer, on one asyncio loop.

:class:`AsyncHTTPServer` is the only HTTP server in the package; ``repro
serve`` runs it.  It is a minimal HTTP/1.1 keep-alive server over
``asyncio`` streams that never drops a connection on a handler failure
(any dispatch failure answers as a 500 JSON body on the still-open
connection).  Request bodies are framed by ``Content-Length`` only; a
body it cannot frame, or a head over :data:`MAX_HEAD`, is answered and
the connection closed.

What it serves is a *dispatch* coroutine - ``(path, params) -> (status,
body bytes)`` - built by :func:`registry_dispatch`, which answers from
a local :class:`~repro.service.registry.IndexRegistry` via
:func:`~repro.service.handlers.handle_request` and applies POSTed
mutation batches through a
:class:`~repro.service.mutation.MutationManager`.

Run it on the current thread (``asyncio.run(server.serve(on_bound))``,
as ``repro serve`` does) or, for tests and benchmarks that need a
server *next to* the measuring code, in a daemon thread via
:class:`ServerThread`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import sys
import threading
from http import HTTPStatus
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.handlers import (
    handle_mutation,
    handle_request,
    render_json,
)
from repro.service.registry import IndexRegistry

LOG = logging.getLogger("repro.service")

#: An async request executor: ``(path, params) -> (status, body
#: bytes)``.  Dispatches also accept ``method=`` ("GET"/"POST") and
#: ``body=`` (raw request body bytes) keyword arguments.
Dispatch = Callable[[str, Dict[str, List[str]]], Awaitable[Tuple[int, bytes]]]

#: Cap on request head size (``readuntil`` limit); far above any real
#: batch URL while still bounding a hostile or broken client.
MAX_HEAD = 1 << 20

#: Cap on POST body size (64 MiB - far above any sane batch).
MAX_BODY = 1 << 26

#: How long :meth:`AsyncHTTPServer.serve` lets in-flight requests finish
#: after a shutdown before cancelling them.
DRAIN_SECONDS = 5.0

#: How long a connection the server ends keeps reading (and dropping)
#: what the client still sends; see :meth:`AsyncHTTPServer._linger`.
LINGER_SECONDS = 2.0

_INTERNAL_ERROR = (
    b'{"error":"internal server error","code":"internal_error"}'
)


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return "Unknown"


def _framing(head: bytes) -> Tuple[int, bool, Optional[Tuple[int, str, str]]]:
    """``(body_length, keep_alive, error)`` for one request head.

    Only ``Content-Length`` bodies are read.  ``error`` is ``(status,
    message, code)`` when the body cannot be framed: any
    ``Transfer-Encoding`` (411), conflicting ``Content-Length`` values,
    or a junk or oversized length (400), all with code ``bad_body``.
    The body's bytes are then still in the stream, where they would
    parse as the next request, so an error always ends the
    connection.  HTTP/1.0 requests stay open only with ``Connection:
    keep-alive``; HTTP/1.1 ones until ``Connection: close``.
    """
    lines = head.split(b"\r\n")
    headers: Dict[bytes, List[bytes]] = {}
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        headers.setdefault(name.strip().lower(), []).append(value.strip().lower())
    connection = b",".join(headers.get(b"connection", []))
    if lines[0].rstrip().endswith(b"HTTP/1.0"):
        keep_alive = b"keep-alive" in connection
    else:
        keep_alive = b"close" not in connection
    if b"transfer-encoding" in headers:
        error = (
            411,
            "Transfer-Encoding is not supported; send Content-Length",
            "bad_body",
        )
        return 0, False, error
    lengths = set(headers.get(b"content-length", [b"0"]))
    if len(lengths) > 1:
        return 0, False, (400, "conflicting Content-Length headers", "bad_body")
    try:
        length = int(lengths.pop())
    except ValueError:
        length = -1
    if not 0 <= length <= MAX_BODY:
        return 0, False, (400, "missing or oversized request body", "bad_body")
    return length, keep_alive, None


def _response_bytes(status: int, body: bytes, close: bool) -> bytes:
    """One buffered write per response: head and body coalesced.

    A single ``write`` is not just tidy - split head/body packets
    interlock Nagle with the client's delayed ACK into a ~40 ms stall
    per keep-alive round trip.
    """
    lines = [
        f"HTTP/1.1 {status} {_reason(status)}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    if close:
        lines.append("Connection: close")
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


class AsyncHTTPServer:
    """Event-loop HTTP server delegating every request to ``dispatch``.

    Listens on ``(host, port)`` (``port=0`` binds an ephemeral port,
    reported to :meth:`serve`'s ``on_bound`` callback), keeps HTTP/1.1
    connections alive across requests, and never aborts a connection
    on handler failure - the catch-all answers 500 JSON.  GETs run
    inline on the loop; ``registry_dispatch`` sends POSTs to a worker
    thread.  ``quiet=False`` writes one line per request to stderr:
    the peer, the request line and the status.  Shutdown drains: idle
    connections close at once, in-flight requests get
    :data:`DRAIN_SECONDS` to finish, and whatever is left is cancelled
    before :meth:`serve` returns.
    """

    def __init__(
        self,
        dispatch: Dispatch,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        self._dispatch = dispatch
        self._host = host
        self._port = port
        self._quiet = quiet
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        #: Every live connection task, and the writers of those waiting
        #: for their next request head or lingering before close (safe
        #: to close on shutdown).
        self._connections: Set[asyncio.Task] = set()
        self._idle: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closing = False

    async def serve(
        self, on_bound: Optional[Callable[[Tuple[str, int]], None]] = None
    ) -> None:
        """Bind, pass the bound ``(host, port)`` to ``on_bound`` once,
        and serve until :meth:`shutdown` or cancellation; then drain."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_client, self._host, self._port, limit=MAX_HEAD
        )
        try:
            if on_bound is not None:
                host, port = self._server.sockets[0].getsockname()[:2]
                on_bound((host, port))
            await self._stopped.wait()
        finally:
            self._server.close()
            await self._drain()
            await self._server.wait_closed()

    def shutdown(self) -> None:
        """Stop accepting and unblock :meth:`serve` (thread-safe not
        required: call from the serving loop, or via
        ``loop.call_soon_threadsafe``)."""
        if self._server is not None:
            self._server.close()
        if self._stopped is not None:
            self._stopped.set()

    async def _drain(self) -> None:
        """Close idle connections, give in-flight requests
        :data:`DRAIN_SECONDS`, then cancel and await the rest."""
        self._closing = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_SECONDS
        # One turn of the loop lets just-accepted connections register
        # (they see ``_closing`` and leave at once).
        await asyncio.sleep(0)
        while self._connections:
            for writer in self._idle.values():
                writer.close()
            tasks = set(self._connections)
            remaining = deadline - loop.time()
            if remaining > 0:
                await asyncio.wait(tasks, timeout=remaining)
                continue
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _serve_client(self, reader, writer) -> None:
        """One connection: read requests until EOF, ``Connection:
        close``, a framing error, or server shutdown."""
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._closing:
                self._idle[task] = writer
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.LimitOverrunError:
                    # The head stays unread in the stream: answer, close.
                    head, length, keep_alive = b"", 0, False
                    error = (431, f"request head over {MAX_HEAD} bytes", "bad_request")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away
                else:
                    length, keep_alive, error = _framing(head)
                finally:
                    self._idle.pop(task, None)
                if error is not None:
                    status, message, code = error
                    body = render_json({"error": message, "code": code})
                else:
                    try:
                        payload = (
                            await reader.readexactly(length)
                            if length
                            else b""
                        )
                    except (
                        asyncio.IncompleteReadError,
                        ConnectionError,
                    ):
                        return  # client died mid-body
                    status, body = await self._answer(head, payload)
                close = not keep_alive or self._closing
                writer.write(_response_bytes(status, body, close))
                await writer.drain()
                if not self._quiet:
                    self._log(writer, head, status)
                if close:
                    if not self._closing:
                        await self._linger(task, reader, writer)
                    return
        except OSError:
            return  # the connection broke: nothing left to tell them
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, TimeoutError):
                pass

    async def _linger(self, task, reader, writer) -> None:
        """Close a connection without resetting it (RFC 9112, 9.6).

        Closing a socket that still holds unread client bytes - the
        rest of a pipeline, an unframed body, an oversized head - makes
        the kernel send a reset, which can destroy the response before
        the client reads it.  So half-close, then drop whatever still
        arrives until the client closes, for at most
        :data:`LINGER_SECONDS`; a shutdown ends the wait at once.
        """
        writer.write_eof()
        self._idle[task] = writer
        try:
            await asyncio.wait_for(_discard(reader), LINGER_SECONDS)
        except asyncio.TimeoutError:
            pass
        finally:
            self._idle.pop(task, None)

    @staticmethod
    def _log(writer, head: bytes, status: int) -> None:
        peer = writer.get_extra_info("peername") or ("-",)
        line = head.split(b"\r\n", 1)[0].decode("latin-1") or "-"
        sys.stderr.write(f'{peer[0]} "{line}" {status}\n')

    async def _answer(self, head: bytes, body: bytes) -> Tuple[int, bytes]:
        """Parse one request head and dispatch it; never raises."""
        try:
            request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            parts = request_line.split()
            if len(parts) < 2:
                return 400, render_json(
                    {"error": "malformed request line", "code": "bad_request"}
                )
            method, target = parts[0], parts[1]
            if method not in ("GET", "POST"):
                return 501, render_json(
                    {
                        "error": f"unsupported method {method!r}",
                        "code": "unsupported_method",
                    }
                )
            url = urlsplit(target)
            return await self._dispatch(
                url.path,
                parse_qs(url.query),
                method=method,
                body=body,
            )
        except Exception:
            LOG.exception("unhandled error in async dispatch")
            return 500, _INTERNAL_ERROR


async def _discard(reader) -> None:
    """Read and drop everything until EOF."""
    while await reader.read(1 << 16):
        pass


def registry_dispatch(registry: IndexRegistry, mutations=None) -> Dispatch:
    """A dispatch answering from a local registry.

    Queries over a resident mmap index are microseconds of pure CPU, so
    running them inline on the event loop beats shipping them to a
    thread pool; mutation batches (real enumeration work) go through
    ``asyncio.to_thread``.
    """

    async def dispatch(path, params, method="GET", body=b"") -> Tuple[int, bytes]:
        if method == "POST":
            status, payload = await asyncio.to_thread(
                handle_mutation, registry, mutations, path, params, body
            )
        else:
            status, payload = handle_request(registry, path, params)
        return status, render_json(payload)

    return dispatch


class ServerThread:
    """Run an :class:`AsyncHTTPServer` on a daemon thread (tests/benches).

    ``start`` returns the bound ``(host, port)``; ``stop`` shuts the
    loop down and joins the thread.  Use as a context manager::

        with ServerThread(AsyncHTTPServer(dispatch)) as (host, port):
            ...
    """

    def __init__(self, server: AsyncHTTPServer) -> None:
        self._server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> Tuple[str, int]:
        """Boot the loop thread; returns the bound ``(host, port)``."""
        bound: concurrent.futures.Future = concurrent.futures.Future()

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            await self._server.serve(bound.set_result)

        def run() -> None:
            # asyncio.run also shuts down the default executor that
            # mutation batches run on before closing the loop.
            asyncio.run(main())

        self._thread = threading.Thread(
            target=run, name="repro-aserver", daemon=True
        )
        self._thread.start()
        try:
            return bound.result(timeout=30)
        except concurrent.futures.TimeoutError:
            raise RuntimeError("async server failed to start within 30s") from None

    def stop(self) -> None:
        """Shut the server down and join the loop thread."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._server.shutdown)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
