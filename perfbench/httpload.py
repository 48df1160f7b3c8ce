"""The server under test and the load generator that drives it.

:class:`ServerProcess` runs ``repro serve`` through
``serve_launcher.py`` in a child process pinned away from the load
generator, and reads its CPU time and peak RSS from ``/proc``.

:func:`drive` is the load generator: one thread, one ``selectors``
loop, raw HTTP/1.1 keep-alive sockets.  Readers are closed loops (a
connection sends its next request when the previous answer is in);
the optional writer is an open loop that sends batch ``i`` at
``start + i / rate`` and times each write from that due time, so a
stall shows in the writes queued behind it.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "serve_launcher.py")
BANNER = re.compile(r"on http://([\d.]+):(\d+)")

#: Seconds a server may take to print its banner (a cold boot builds
#: indexes first).
BOOT_TIMEOUT = 120.0


def cpu_split() -> Tuple[Optional[List[int]], Optional[List[int]]]:
    """(server CPUs, generator CPUs): the generator gets the last CPU,
    the server the others; ``(None, None)`` on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[:-1], cpus[-1:]


class ServerProcess:
    """One ``repro serve`` child process."""

    def __init__(self, serve_args: Sequence[str], logdir: str,
                 cpus: Optional[List[int]], trace_out: str = "") -> None:
        self.log_path = os.path.join(logdir, "serve.log")
        command = [sys.executable, "-u", LAUNCHER]
        if cpus:
            command += ["--cpus", ",".join(map(str, cpus))]
        if trace_out:
            command += ["--trace-out", trace_out]
        command += ["--", *serve_args]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self.address = self._wait_for_banner()

    def _wait_for_banner(self) -> Tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as handle:
                match = BANNER.search(handle.read())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        with open(self.log_path, encoding="utf-8") as handle:
            raise RuntimeError(f"server did not boot:\n{handle.read()}")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK"
        )

    def vm_hwm_mb(self) -> float:
        from run import vm_hwm_mb

        return vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if it
        does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class SpeedProbe:
    """``speed.py`` sampling the server's CPUs during a load window."""

    def __init__(self, cpus: Sequence[int], out_path: str) -> None:
        self.out_path = out_path
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed.py"),
             "--cpus", ",".join(map(str, cpus)), "--out", out_path],
            stdin=subprocess.DEVNULL,
        )

    def stop(self) -> List[Tuple[int, float]]:
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        with open(self.out_path, encoding="utf-8") as handle:
            return [tuple(sample) for sample in json.load(handle)]


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class Request:
    __slots__ = ("kind", "path", "data", "due", "ready", "sent", "done",
                 "status", "body")

    def __init__(self, kind: str, path: str, data: bytes, due: float):
        self.kind = kind
        self.path = path
        self.data = data
        self.due = due
        #: When the request could first be sent: its due time, or when
        #: its connection freed up if that was later.
        self.ready = due
        self.sent = 0.0
        self.done = 0.0
        self.status = 0
        self.body = b""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        """How long the generator itself held the request back."""
        return self.sent - self.ready


def encode_get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def encode_post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


def parse_response(buffer: bytes) -> Optional[Tuple[int, bytes, int]]:
    """``(status, body, bytes consumed)`` of the first complete HTTP
    response in ``buffer``, or ``None`` while it is incomplete."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buffer[:end].decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    total = end + 4 + length
    if len(buffer) < total:
        return None
    return status, buffer[end + 4:total], total


class _Connection:
    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = b""
        self.pending: Optional[Request] = None

    def send(self, request: Request) -> None:
        request.sent = time.perf_counter()
        self.pending = request
        self.sock.setblocking(True)
        self.sock.sendall(request.data)
        self.sock.setblocking(False)


def drive(
    address: Tuple[str, int],
    readers: int,
    next_read: Callable[[], Tuple[str, bytes]],
    seconds: float,
    writes: Sequence[Tuple[str, bytes]] = (),
    write_rate: float = 0.0,
) -> Tuple[List[Request], List[Request], float]:
    """Run the load for ``seconds``; returns (reads, writes, wall).

    ``next_read()`` yields the next read's ``(path, encoded request)``.
    Readers stop issuing at the deadline; every write due before it is
    sent, late if need be, and every answer is awaited.
    """
    selector = selectors.DefaultSelector()
    connections = [_Connection(address) for _ in range(readers)]
    writer = _Connection(address) if writes else None
    for connection in connections + ([writer] if writer else []):
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    reads: List[Request] = []
    done_writes: List[Request] = []
    start = time.perf_counter()
    deadline = start + seconds
    backlog: List[Request] = []
    next_write = 0
    writer_free = start

    def issue_read(connection: _Connection) -> None:
        path, data = next_read()
        connection.send(Request("read", path, data, time.perf_counter()))

    for connection in connections:
        issue_read(connection)
    outstanding = len(connections)
    while True:
        now = time.perf_counter()
        while next_write < len(writes) and (
            start + next_write / write_rate <= now
        ):
            path, data = writes[next_write]
            backlog.append(
                Request("write", path, data, start + next_write / write_rate)
            )
            next_write += 1
        if writer is not None and writer.pending is None and backlog:
            request = backlog.pop(0)
            request.ready = max(request.due, writer_free)
            writer.send(request)
            outstanding += 1
        if outstanding == 0 and next_write >= len(writes) and not backlog:
            break
        timeout = None
        if next_write < len(writes):
            timeout = max(0.0, start + next_write / write_rate - now)
        for key, _ in selector.select(timeout):
            connection = key.data
            chunk = connection.sock.recv(1 << 16)
            if not chunk:
                raise RuntimeError("server closed a keep-alive connection")
            connection.buffer += chunk
            parsed = parse_response(connection.buffer)
            if parsed is None:
                continue
            status, body, used = parsed
            connection.buffer = connection.buffer[used:]
            request = connection.pending
            request.done = time.perf_counter()
            request.status = status
            request.body = body
            connection.pending = None
            outstanding -= 1
            if request.kind == "write":
                done_writes.append(request)
                writer_free = request.done
            else:
                reads.append(request)
                if request.done < deadline:
                    issue_read(connection)
                    outstanding += 1
    wall = time.perf_counter() - start
    for connection in connections + ([writer] if writer else []):
        selector.unregister(connection.sock)
        connection.sock.close()
    selector.close()
    return reads, done_writes, wall


def fetch_json(address: Tuple[str, int], path: str) -> Dict:
    """One blocking GET (outside the measured window)."""
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(encode_get(path))
        buffer = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise RuntimeError(f"connection closed fetching {path}")
            buffer += chunk
            parsed = parse_response(buffer)
            if parsed is not None:
                status, body, _ = parsed
                if status != 200:
                    raise RuntimeError(f"GET {path} -> {status}: {body!r}")
                return json.loads(body)
