"""Spawn and supervise the shard processes behind a router.

A sharded deployment is N ordinary serving processes - each a
:class:`~repro.service.registry.IndexRegistry` full of that shard's
index files behind the same :class:`~repro.service.aserver.AsyncHTTPServer`
a single replica runs - plus the async router in front.
:class:`ShardCluster` owns the N processes: it forks them, collects the
ephemeral port each one bound (sent back over a pipe from the server's
``on_bound`` callback, so there is no port-guessing race), and tears
them down.  Workers log no requests (the router's ``--verbose`` log
covers every client request once) and ignore SIGINT: on Ctrl-C the
router drains first, then stops them.

Shard workers are *entirely* the existing serving stack; nothing in a
shard process knows it is a shard.  That is the point: every behavior
the unsharded server has - hot reload, LRU residency, error bodies -
holds per shard for free, and the router's byte-parity guarantee rests
on the workers running exactly the code a standalone server runs.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional, Sequence, Tuple

#: One dataset inside one shard process: ``(name, index_path)``.
DatasetSpec = Tuple[str, str]


def _shard_worker(specs, conn, host: str) -> None:
    """Entry point of one shard process: serve ``specs`` forever.

    Imports live inside the function so a spawned child pays them
    itself and the module stays importable without triggering server
    machinery.
    """
    import asyncio
    import signal

    from repro.service.aserver import AsyncHTTPServer, registry_dispatch
    from repro.service.registry import IndexRegistry

    # The router owns shutdown: it drains first, then stops the workers,
    # so a Ctrl-C sent to the whole process group must not stop them.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    registry = IndexRegistry()
    for name, path in specs:
        registry.register(name, path)
    server = AsyncHTTPServer(registry_dispatch(registry), host=host, port=0)

    def report(address) -> None:
        conn.send(address)
        conn.close()

    asyncio.run(server.serve(report))


class ShardCluster:
    """N shard serving processes with known addresses.

    Parameters
    ----------
    shard_specs:
        ``shard_specs[s]`` lists the ``(dataset_name, index_path)``
        registrations of shard process ``s`` - every shard registers
        the same dataset *names*, each pointing at its own shard file.
    host:
        Interface the shards bind (loopback by default; shards are an
        implementation detail, only the router should face outward).

    Use as a context manager::

        with ShardCluster(specs) as addresses:
            dispatch = RouterDispatch(router, addresses)
    """

    def __init__(
        self,
        shard_specs: Sequence[Sequence[DatasetSpec]],
        host: str = "127.0.0.1",
    ) -> None:
        if not shard_specs:
            raise ValueError("a cluster needs at least one shard")
        self._specs = [list(spec) for spec in shard_specs]
        self._host = host
        self._processes: List[multiprocessing.Process] = []
        self.addresses: Optional[List[Tuple[str, int]]] = None

    def start(self, timeout: float = 60.0) -> List[Tuple[str, int]]:
        """Launch every shard and return their ``(host, port)`` list.

        Raises ``RuntimeError`` (after cleaning up whatever did start)
        if any shard fails to report its address within ``timeout``
        seconds.
        """
        if self._processes:
            raise RuntimeError("cluster already started")
        pipes = []
        try:
            for shard, specs in enumerate(self._specs):
                parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
                process = multiprocessing.Process(
                    target=_shard_worker,
                    args=(specs, child_conn, self._host),
                    name=f"repro-shard-{shard}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._processes.append(process)
                pipes.append(parent_conn)
            addresses = []
            for shard, parent_conn in enumerate(pipes):
                if not parent_conn.poll(timeout):
                    raise RuntimeError(
                        f"shard {shard} did not report its address "
                        f"within {timeout:.0f}s"
                    )
                try:
                    addresses.append(tuple(parent_conn.recv()))
                except EOFError:
                    raise RuntimeError(
                        f"shard {shard} died before binding its port"
                    ) from None
        except BaseException:
            self.stop()
            raise
        finally:
            for parent_conn in pipes:
                parent_conn.close()
        self.addresses = addresses
        return addresses

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate every shard process and reap it."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout)
        self._processes = []
        self.addresses = None

    def __enter__(self) -> List[Tuple[str, int]]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
