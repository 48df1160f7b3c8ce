"""Compiled flow kernel: Dinic and the residual BFS in C, via ``ctypes``.

:func:`max_flow` and :func:`residual_reachable` run ``dinic.c`` (shipped
beside this module); every other kernel function is numpy's
(:mod:`repro.kernels.numpy_impl`), or the python reference's when numpy
is not installed.  The C code is the python kernel's Dinic step for
step - the BFS that stops at the sink, the iterative current-arc DFS,
each node's arcs in ascending arc-id order - so flow values, the final
``net.cap``, the order of ``net._touched`` and min cuts are identical
to the reference.

Storage
-------
Per network, ``net._kern_state["c"]`` holds int32 mirrors of the arc
arena (``head``, ``initial_cap`` and a working ``cap``), the arc-by-tail
layout, the BFS/DFS scratch and the push log, all in ``array('i')``
buffers whose addresses a :class:`_Net` struct hands to C.  Where
numpy's arc builder made int32 arrays of the arena (the networks numpy
would run as arrays), the builder wrappers copy them in one memcpy each
and drop numpy's stash; other networks convert the lists on their first
flow call.  The working ``cap`` is synced with the list ``net.cap`` the
way numpy's ``_sync_caps`` syncs its mirror: restarted from
``initial_cap`` after a reset (``net._version``), then the
not-yet-applied suffix of ``net._touched`` replayed.  Each
:func:`max_flow` call returns the arcs it pushed in its log; the
wrapper appends them to ``_touched`` and writes their final capacities
back into ``net.cap``, so
:meth:`~repro.flow.flow_network.FlowNetwork.reset` is unchanged.  The
log grows (doubling) whenever the next augmenting path would not fit,
so no ``k`` is too large.  ``ctypes`` releases the GIL for the length
of each call.

Build
-----
:func:`load` (called by :func:`repro.kernels.select`) compiles
``dinic.c`` with ``cc -O2 -shared -fPIC`` into
``default_cache_dir()/kernels/<hash>.so`` unless that file exists;
the hash covers the source, the flags, ``sys.platform`` and
``platform.machine()``.  The compiler writes a temp file in the same
directory, published with ``os.replace``, so concurrent first uses
leave one ``.so`` and no temp files.  With no ``cc`` on ``PATH`` (and
no cached build), or when the compiler fails, :func:`load` raises
``ImportError`` and :func:`repro.kernels.select` falls back; a failing
compiler's stderr is also reported once as a ``RuntimeWarning``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import warnings
from array import array
from collections import deque
from pathlib import Path

try:
    from repro.kernels import numpy_impl as _base
except ImportError:  # pragma: no cover - depends on environment
    from repro.kernels import python_impl as _base

NAME = "c"

#: The C source and the one way it is compiled.
SOURCE = Path(__file__).with_name("dinic.c")
FLAGS = ("-O2", "-shared", "-fPIC")

# Every kernel function but the two flow loops comes from the base.
_base_arcs_from_view = _base.flow_arcs_from_view
_base_arcs_from_lists = _base.flow_arcs_from_lists
peel = _base.peel
active_ids = _base.active_ids
active_degrees = _base.active_degrees
scan_first_forests = _base.scan_first_forests
components = _base.components
fill_forest_adjacency = _base.fill_forest_adjacency
sort_segments = _base.sort_segments


def library_path() -> Path:
    """Where the compiled kernel for this source and platform lives."""
    from repro.data.resolver import default_cache_dir

    digest = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        " ".join(FLAGS).encode(),
        sys.platform.encode(),
        platform.machine().encode(),
    ):
        digest.update(part)
        digest.update(b"\0")
    return default_cache_dir() / "kernels" / f"{digest.hexdigest()[:16]}.so"


def _compile(target: Path) -> None:
    """Compile :data:`SOURCE` to ``target`` through a temp file."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise ImportError("the c kernel needs a C compiler: no 'cc' on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f"{target.stem}.", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            message = (
                f"cc exited {done.returncode} compiling {SOURCE.name}; "
                f"the c kernel is unavailable:\n{done.stderr}"
            )
            warnings.warn(message, RuntimeWarning, stacklevel=2)
            raise ImportError(message)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _Net(ctypes.Structure):
    """``kvcc_net`` of ``dinic.c``: one network's buffers and call state."""

    _fields_ = [("n", ctypes.c_int)] + [
        (name, ctypes.c_void_p)
        for name in ("indptr", "arcs", "head", "cap", "level", "iter",
                     "queue", "path", "log")
    ] + [
        (name, ctypes.c_int)
        for name in ("log_size", "log_len", "flow", "in_phase")
    ]


#: The loaded ``dinic.c`` library (set by :func:`load`).
_lib = None


def load() -> None:
    """Compile (unless cached) and load the shared library, once.

    :func:`repro.kernels.select` calls this before handing out the
    module; it raises ``ImportError`` when the kernel cannot be built.
    """
    global _lib
    if _lib is None:
        _lib = _open_library()


def _open_library():
    path = library_path()
    if not path.exists():
        try:
            _compile(path)
        except OSError as exc:
            raise ImportError(f"cannot build the c kernel: {exc}") from exc
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:  # e.g. a damaged file in the cache
        raise ImportError(f"cannot load the c kernel {path}: {exc}") from exc
    lib.kvcc_layout.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    lib.kvcc_layout.restype = None
    net_p = ctypes.POINTER(_Net)
    lib.kvcc_max_flow.argtypes = [net_p, ctypes.c_int, ctypes.c_int,
                                  ctypes.c_int]
    lib.kvcc_max_flow.restype = ctypes.c_int
    lib.kvcc_pushed_caps.argtypes = [net_p, ctypes.c_void_p,
                                     ctypes.c_void_p]
    lib.kvcc_pushed_caps.restype = None
    lib.kvcc_reachable.argtypes = [net_p, ctypes.c_int, ctypes.c_void_p]
    lib.kvcc_reachable.restype = None
    return lib


def _zeros(n: int) -> array:
    return array("i", bytes(4 * n))


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


# ----------------------------------------------------------------------
# Flow-network kernels
# ----------------------------------------------------------------------
def flow_arcs_from_view(net, view, k: int) -> None:
    """Fill ``net``'s arc arena with the base kernel's builder."""
    _base_arcs_from_view(net, view, k)
    _adopt_numpy_build(net)


def flow_arcs_from_lists(net, rows, verts, k: int) -> None:
    """Fill ``net``'s arc arena with the base kernel's builder."""
    _base_arcs_from_lists(net, rows, verts, k)
    _adopt_numpy_build(net)


def _adopt_numpy_build(net) -> None:
    """Turn numpy's stash of int32 arc arrays into this kernel's state.

    numpy's builder stashes them for the networks it would run as
    arrays (see ``numpy_impl._emit_arcs``); copying them is one memcpy
    each, where :func:`prepare_network` would convert the lists.
    """
    build = net._kern_state.pop("numpy_build", None)
    if build is not None:
        head, init_cap = array("i"), array("i")
        head.frombytes(memoryview(build["head_np"]).cast("B"))
        init_cap.frombytes(memoryview(build["cap_np"]).cast("B"))
        prepare_network(net, head, init_cap)


def prepare_network(net, head=None, init_cap=None) -> dict:
    """int32 mirrors, arc layout and scratch for ``net`` (cached).

    ``head`` / ``init_cap`` are ``array('i')`` copies of the arena's
    lists, when the builder already has them.
    """
    st = net._kern_state.get(NAME)
    if st is not None:
        return st
    n = net.num_nodes
    m = len(net.head)
    if head is None:
        head = array("i", net.head)
        init_cap = array("i", net.initial_cap)
    bufs = {
        "head": head,
        "init_cap": init_cap,
        "cap": array("i", init_cap),
        "indptr": _zeros(n + 1),
        "arcs": _zeros(m),
        "level": _zeros(n),
        "iter": _zeros(n),
        "queue": _zeros(n),
        "path": _zeros(n),
        # One path has at most n - 1 arcs; more room is added on demand.
        "log": _zeros(max(n, 16)),
        "ids": _zeros(0),
        "caps": _zeros(0),
    }
    _lib.kvcc_layout(n, m, _addr(head), _addr(bufs["indptr"]),
                     _addr(bufs["arcs"]))
    ctl = _Net(n=n, log_size=len(bufs["log"]))
    for name in ("indptr", "arcs", "head", "cap", "level", "iter", "queue",
                 "path", "log"):
        setattr(ctl, name, _addr(bufs[name]))
    st = dict(bufs, ctl=ctl, ref=ctypes.byref(ctl),
              cap_sync=[net._version, 0])
    net._kern_state[NAME] = st
    return st


def _sync_caps(net, st) -> None:
    """Bring the int32 ``cap`` mirror up to date with the list ``cap``.

    As numpy's ``_sync_caps``: a reset (``net._version``) restarts the
    mirror from ``initial_cap``, then the unapplied suffix of
    ``net._touched`` is replayed.
    """
    sync = st["cap_sync"]
    mirror = st["cap"]
    if sync[0] != net._version:
        ctypes.memmove(_addr(mirror), _addr(st["init_cap"]), 4 * len(mirror))
        sync[0] = net._version
        sync[1] = 0
    touched = net._touched
    upto = sync[1]
    if upto < len(touched):
        cap = net.cap
        for aid in touched[upto:]:
            rev = aid ^ 1
            mirror[aid] = cap[aid]
            mirror[rev] = cap[rev]
        sync[1] = len(touched)


def _check_nodes(net, *nodes: int) -> None:
    """C indexes its arrays with these ids unchecked."""
    for node in nodes:
        if not 0 <= node < net.num_nodes:
            raise IndexError(f"node {node} is not in the flow network")


def _grow_log(st) -> None:
    """Double the push log, keeping the entries of the current call."""
    ctl = st["ctl"]
    log = _zeros(2 * len(st["log"]))
    log[:ctl.log_len] = st["log"][:ctl.log_len]
    st["log"] = log
    ctl.log = _addr(log)
    ctl.log_size = len(log)


def max_flow(net, source: int, sink: int, k: int) -> int:
    """Dinic capped at ``k`` in C; same flow and residual state as the
    python kernel, pushed arcs appended to ``net._touched``."""
    _check_nodes(net, source, sink)
    st = prepare_network(net)
    _sync_caps(net, st)
    ctl = st["ctl"]
    ctl.flow = ctl.log_len = ctl.in_phase = 0
    while _lib.kvcc_max_flow(st["ref"], source, sink, k):
        _grow_log(st)
    used = ctl.log_len
    if used:
        if 2 * used > len(st["ids"]):
            st["ids"] = _zeros(2 * len(st["log"]))
            st["caps"] = _zeros(2 * len(st["log"]))
        _lib.kvcc_pushed_caps(st["ref"], _addr(st["ids"]), _addr(st["caps"]))
        # Write the final capacities back at C speed (a zero-length
        # deque consumes the map without keeping anything).
        deque(map(net.cap.__setitem__, st["ids"][:2 * used],
                  st["caps"][:2 * used]), maxlen=0)
        touched = net._touched
        touched.extend(st["log"][:used])
        st["cap_sync"][1] = len(touched)
    return ctl.flow


def residual_reachable(net, source: int) -> bytearray:
    """Byte mask of nodes reachable from ``source`` via residual arcs."""
    _check_nodes(net, source)
    st = prepare_network(net)
    _sync_caps(net, st)
    seen = bytearray(net.num_nodes)
    _lib.kvcc_reachable(
        st["ref"], source, (ctypes.c_char * len(seen)).from_buffer(seen)
    )
    return seen
