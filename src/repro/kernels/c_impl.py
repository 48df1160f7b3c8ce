"""Compiled kernel: the hot loops in C, via ``ctypes``.

``kernel.c`` (shipped beside this module) runs every kernel function
but peeling and the segment sort, which are the python reference's
own.  Each C loop is the python kernel's loop, so each function
returns what :mod:`repro.kernels.python_impl` returns, in the same
order, down to the fill order of every returned set.  C reads a CSR
base's ``indptr`` / ``indices`` in place at either width (in-process
``array('l')``, or the read-only int32 views of a mapped KVCCG file,
whose address :func:`_address` gets from ``PyObject_GetBuffer``).  The
arc builders write the flow arena straight into ``array('i')`` buffers
that :func:`max_flow` updates in place, appending the arcs it pushed
to ``net._touched`` for :meth:`FlowNetwork.reset
<repro.flow.flow_network.FlowNetwork.reset>`; ``net._kern_state["c"]``
holds the arc-by-tail layout, the BFS/DFS scratch and the push log,
which doubles whenever the next augmenting path would not fit.

Build: :func:`load` (called by :func:`repro.kernels.select`) compiles
``kernel.c`` with ``cc -O2 -shared -fPIC`` into
``default_cache_dir()/kernels/<hash>.so`` unless that file exists; the
hash covers the source, the flags, ``sys.platform`` and
``platform.machine()``.  The compiler writes a new sibling file that
:func:`repro.data.format.publish` renames into place, so concurrent
first uses leave one ``.so`` and no temp files.  With no ``cc`` on
``PATH`` (and no cached build), or when the compiler fails,
:func:`load` raises ``ImportError`` and :func:`repro.kernels.select`
falls back; a failing compiler's stderr is also reported once as a
``RuntimeWarning``.
"""

from __future__ import annotations

import ctypes
import hashlib
import platform
import shutil
import subprocess
import sys
import warnings
from array import array
from collections import deque
from functools import partial
from itertools import compress
from pathlib import Path

from repro.kernels import python_impl as _py

NAME = "c"

#: The C source and the one way it is compiled.
SOURCE = Path(__file__).with_name("kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC")

#: The python reference's loops that stay in Python.
peel = _py.peel
sort_segments = _py.sort_segments


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
    """Compile :data:`SOURCE` to ``target``, published whole."""
    from repro.data.format import publish

    compiler = shutil.which("cc")
    if compiler is None:
        raise ImportError("the c kernel needs a C compiler: no 'cc' on PATH")

    def write(tmp: str) -> None:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            message = (
                f"cc exited {done.returncode} compiling {SOURCE.name}; "
                f"the c kernel is unavailable:\n{done.stderr}"
            )
            warnings.warn(message, RuntimeWarning, stacklevel=4)
            raise ImportError(message)

    target.parent.mkdir(parents=True, exist_ok=True)
    publish(target, write)


_int, _ptr = ctypes.c_int, ctypes.c_void_p


class _Net(ctypes.Structure):
    """``kvcc_net`` of ``kernel.c``: one network's buffers and call state."""

    _fields_ = [("n", _int)] + [
        (name, _ptr)
        for name in ("indptr", "arcs", "head", "cap", "level", "iter",
                     "queue", "path", "log")
    ] + [
        (name, _int) for name in ("log_size", "log_len", "flow", "in_phase")
    ]


class _View(ctypes.Structure):
    """``kvcc_view`` of ``kernel.c``: a CSR view, read in place."""

    _fields_ = [
        ("n", _int), ("verts", _ptr), ("mask", _ptr), ("indptr", _ptr),
        ("indices", _ptr), ("wide", _int), ("base_n", _int),
        ("nnz", ctypes.c_long),
    ]


class _Cert(ctypes.Structure):
    """``kvcc_cert`` of ``kernel.c``: a certificate's C-owned outputs."""

    _fields_ = [("nforests", _int), ("nedges", _int), ("ngroups", _int)] + [
        (name, _ptr)
        for name in ("block", "fedges", "fends", "rptr", "radj", "rids",
                     "gmem", "gends")
    ]


#: The loaded ``kernel.c`` library (set by :func:`load`).
_lib = None

#: ``(return type, argument types)`` of each function of ``kernel.c``.
_SIGNATURES = {
    "kvcc_layout": (None, [_int, _int, _ptr, _ptr, _ptr]),
    "kvcc_max_flow": (_int, [ctypes.POINTER(_Net), _int, _int, _int]),
    "kvcc_reachable": (None, [ctypes.POINTER(_Net), _int, _ptr]),
    "kvcc_view_arcs": (ctypes.c_long, [ctypes.POINTER(_View), _int, _ptr,
                                       _ptr]),
    "kvcc_rows_arcs": (ctypes.c_long, [_int, _ptr, _ptr, _ptr, _int, _ptr,
                                       _ptr]),
    "kvcc_certificate": (_int, [ctypes.POINTER(_View), _int, _int,
                                ctypes.POINTER(_Cert)]),
    "kvcc_cert_free": (None, [ctypes.POINTER(_Cert)]),
    "kvcc_components": (_int, [ctypes.POINTER(_View), _ptr, _int, _ptr,
                               _ptr]),
    "kvcc_active_ids": (_int, [_ptr, _int, _ptr]),
    "kvcc_active_degrees": (_int, [ctypes.POINTER(_View), _ptr, _int,
                                   _ptr]),
    "kvcc_rows_farthest_first": (_int, [_int, _ptr, _ptr, _ptr, _int,
                                        _ptr]),
    "kvcc_strong": (_int, [ctypes.POINTER(_View), _int, _ptr, _int, _ptr]),
}


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
        for name, (restype, argtypes) in _SIGNATURES.items():
            function = getattr(lib, name)
            function.restype = restype
            function.argtypes = argtypes
    except (OSError, AttributeError) as exc:  # e.g. a damaged cached file
        raise ImportError(f"cannot load the c kernel {path}: {exc}") from exc
    return lib


# ----------------------------------------------------------------------
# Buffers
# ----------------------------------------------------------------------
class _Buffer(ctypes.Structure):
    """CPython's ``Py_buffer``."""

    _fields_ = [
        ("buf", _ptr), ("obj", _ptr), ("len", ctypes.c_ssize_t),
        ("itemsize", ctypes.c_ssize_t), ("readonly", _int), ("ndim", _int),
        ("format", ctypes.c_char_p), ("shape", _ptr), ("strides", _ptr),
        ("suboffsets", _ptr), ("internal", _ptr),
    ]


_get_buffer = ctypes.pythonapi.PyObject_GetBuffer
_get_buffer.argtypes = [ctypes.py_object, ctypes.POINTER(_Buffer), _int]
_get_buffer.restype = _int
_release_buffer = ctypes.pythonapi.PyBuffer_Release
_release_buffer.argtypes = [ctypes.POINTER(_Buffer)]
_release_buffer.restype = None


def _address(buf) -> int:
    """Address of a contiguous buffer's first byte, read-only ones too.

    The address stays valid while ``buf`` lives unresized: a
    ``memoryview`` over a file mapping keeps the mapping open.
    """
    if type(buf) is array:
        return buf.buffer_info()[0]
    if type(buf) is bytearray:
        return ctypes.addressof((ctypes.c_char * len(buf)).from_buffer(buf))
    info = _Buffer()
    _get_buffer(buf, ctypes.byref(info), 0)  # PyBUF_SIMPLE: contiguous
    try:
        return info.buf or 0
    finally:
        _release_buffer(ctypes.byref(info))


def _view(base, mask, verts: array):
    """A ``kvcc_view`` of a base, a mask and its active ids ``verts``.

    The buffers' types and sizes are checked here; C checks every id,
    row and position it reads, as a KVCCG load checks only endpoints.
    """
    indptr, indices = base.indptr, base.indices
    width = indptr.itemsize
    if (width not in (4, 8) or indices.itemsize != width
            or len(indptr) != base.n + 1 or len(mask) != base.n):
        raise ValueError("the CSR arrays or the mask do not match the "
                         "base's vertex count and width")
    return _View(
        len(verts), _address(verts), _address(mask), _address(indptr),
        _address(indices), width == 8, base.n, len(indices),
    )


def _zeros(n: int) -> array:
    return array("i", bytes(4 * n))


def _check(code: int) -> int:
    """A C return value, with the KVCC_E* codes raised."""
    if code == -1:
        raise MemoryError("the c kernel could not allocate its scratch")
    if code < -1:
        raise ValueError("the c kernel met an id or row outside the base, "
                         "a view whose mask and ids disagree, or "
                         "asymmetric rows")
    return code


def _ints(address: int, count: int) -> list:
    """``count`` C ints at ``address`` as a list."""
    return (ctypes.c_int * count).from_address(address)[:] if count else []


def _take(address: int, count: int) -> array:
    """A copy of ``count`` C ints at ``address`` as an ``array('i')``."""
    out = _zeros(count)
    if count:
        ctypes.memmove(_address(out), address, 4 * count)
    return out


# ----------------------------------------------------------------------
# Flow-network kernels
# ----------------------------------------------------------------------
def _fill_arena(net, fill) -> None:
    """Size the arena with ``fill(None, None)``, then ``fill`` it."""
    m = _check(fill(None, None))
    net.head, net.cap = _zeros(m), _zeros(m)
    _check(fill(_address(net.head), _address(net.cap)))
    net.initial_cap = array("i", net.cap)


def flow_arcs_from_view(net, view, k: int) -> None:
    """Fill ``net``'s arc arena from a CSR subgraph view."""
    verts = array("i", view.active_list())
    spec = ctypes.byref(_view(view.base, view.mask, verts))
    _fill_arena(net, partial(_lib.kvcc_view_arcs, spec, k))


def flow_arcs_from_rows(net, graph, k: int) -> None:
    """Fill ``net``'s arc arena from an ``IntAdjacency`` (certificate);
    rows this kernel's certificate did not build take the python
    kernel's builder."""
    if graph._kern_rows is None:
        _py.flow_arcs_from_rows(net, graph, k)
        return
    verts, ptr, adj = graph._kern_rows
    _fill_arena(net, partial(_lib.kvcc_rows_arcs, len(verts), _address(verts),
                             _address(ptr), _address(adj), k))


def prepare_network(net) -> dict:
    """Arc layout, scratch and push log for ``net`` (cached).

    The arena must be ``array('i')`` buffers, as this kernel's builders
    leave it; a network the python kernel built is converted once.
    """
    st = net._kern_state.get(NAME)
    if st is not None:
        return st
    if not (isinstance(net.cap, array) and net.cap.typecode == "i"):
        net.head = array("i", net.head)
        net.cap = array("i", net.cap)
        net.initial_cap = array("i", net.initial_cap)
    n = net.num_nodes
    m = len(net.head)
    bufs = {
        "indptr": _zeros(n + 1),
        "arcs": _zeros(m),
        "level": _zeros(n),
        "iter": _zeros(n),
        "queue": _zeros(n),
        "path": _zeros(n),
        # One path has at most n - 1 arcs; more room is added on demand.
        "log": _zeros(max(n, 16)),
    }
    _lib.kvcc_layout(n, m, _address(net.head), _address(bufs["indptr"]),
                     _address(bufs["arcs"]))
    ctl = _Net(n=n, log_size=len(bufs["log"]), head=_address(net.head),
               cap=_address(net.cap))
    for name, buf in bufs.items():
        setattr(ctl, name, _address(buf))
    st = dict(bufs, ctl=ctl, ref=ctypes.byref(ctl))
    net._kern_state[NAME] = st
    return st


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
    ctl.log = _address(log)
    ctl.log_size = len(log)


def max_flow(net, source: int, sink: int, k: int) -> int:
    """Dinic capped at ``k`` in C on ``net.cap``; the pushed arcs are
    appended to ``net._touched``, as the python kernel's pushes are."""
    _check_nodes(net, source, sink)
    st = prepare_network(net)
    ctl = st["ctl"]
    ctl.flow = ctl.log_len = ctl.in_phase = 0
    while _lib.kvcc_max_flow(st["ref"], source, sink, k):
        _grow_log(st)
    if ctl.log_len:
        net._touched.extend(st["log"][:ctl.log_len])
    return ctl.flow


def residual_reachable(net, source: int) -> bytearray:
    """Byte mask of nodes reachable from ``source`` via residual arcs."""
    _check_nodes(net, source)
    st = prepare_network(net)
    seen = bytearray(net.num_nodes)
    _lib.kvcc_reachable(st["ref"], source, _address(seen))
    return seen


# ----------------------------------------------------------------------
# Subgraph-view kernels
# ----------------------------------------------------------------------
def active_ids(mask) -> list:
    """Indices of the nonzero bytes of ``mask``, ascending."""
    out = _zeros(len(mask) - mask.count(0))
    _lib.kvcc_active_ids(_address(mask), len(mask), _address(out))
    return out.tolist()


def active_degrees(base, mask, members) -> list:
    """Active-degree array (full base length) for the ``members`` ids."""
    members = array("i", members)
    out = _zeros(len(members))
    spec = _view(base, mask, _zeros(0))
    _check(_lib.kvcc_active_degrees(ctypes.byref(spec), _address(members),
                                    len(members), _address(out)))
    deg = [0] * base.n
    # Scatter at C speed (a zero-length deque consumes the map).
    deque(map(deg.__setitem__, members, out), maxlen=0)
    return deg


def components(view, removed) -> list:
    """Components of a CSR view minus ``removed``: discovery in
    ``active_list`` order, each component a set filled in BFS order.

    C returns positions in the active list, and the sets hold the
    list's own int objects: the member lists the enumeration returns
    then share them too, instead of holding freshly boxed ids.
    """
    verts = view.active_list()
    ids = array("i", verts)
    spec = _view(view.base, view.mask, ids)
    cut = array("i", [v for v in removed or () if 0 <= v < view.base.n])
    order, ends = _zeros(len(verts)), _zeros(len(verts))
    count = _check(_lib.kvcc_components(
        ctypes.byref(spec), _address(cut), len(cut), _address(order),
        _address(ends),
    ))
    flat = list(map(verts.__getitem__, order))
    ends = ends[:count].tolist()
    return [set(flat[a:b]) for a, b in zip([0] + ends, ends)]


def certificate(view, k: int):
    """The sparse certificate of a view (see the python kernel): the
    rows (also kept as int32 arrays for :func:`flow_arcs_from_rows` and
    :func:`farthest_first`), the forests as a function that decodes
    their flat copy when asked, and ``F_k``'s side-groups."""
    from repro.graph.csr import IntAdjacency

    verts = view.active_list()
    varr = array("i", verts)
    out = _Cert()
    _check(_lib.kvcc_certificate(
        ctypes.byref(_view(view.base, view.mask, varr)), k, k + 1,
        ctypes.byref(out),
    ))
    try:
        n, m = len(verts), out.nedges
        rptr = _take(out.rptr, n + 1)
        radj = _take(out.radj, 2 * m)
        ids = _ints(out.rids, 2 * m)
        edges = _take(out.fedges, 2 * m)
        ends = _ints(out.fends, out.nforests)
        gends = _ints(out.gends, out.ngroups)
        members = _ints(out.gmem, gends[-1] if gends else 0)
    finally:
        _lib.kvcc_cert_free(ctypes.byref(out))
    ptr = rptr.tolist()
    rows = dict(zip(verts, map(ids.__getitem__, map(slice, ptr, ptr[1:]))))
    graph = IntAdjacency(view.base.n, verts, rows, m)
    graph._kern_rows = (varr, rptr, radj)
    groups = [set(members[a:b]) for a, b in zip([0] + gends, gends)]
    return graph, partial(_decode_forests, edges, ends), groups


def _decode_forests(edges: array, ends: list) -> list:
    """Forests as lists of ``(u, w)`` tuples from the flat edge copy."""
    flat = iter(edges.tolist())
    pairs = list(zip(flat, flat))
    return [pairs[a:b] for a, b in zip([0] + ends, ends)]


def farthest_first(work, source: int) -> list:
    """Phase-1 order over a certificate this kernel built: vertices by
    BFS distance from ``source``, farthest first, ties (and the
    unreachable vertices, which lead) in vertex order.  Other graphs
    take the python kernel's code."""
    rows = getattr(work, "_kern_rows", None)
    if rows is None:
        return _py.farthest_first(work, source)
    verts, ptr, adj = rows
    out = _zeros(len(verts))
    _check(_lib.kvcc_rows_farthest_first(
        len(verts), _address(verts), _address(ptr), _address(adj), source,
        _address(out),
    ))
    return out.tolist()


def strong_side_vertices(view, k: int, candidates=None) -> set:
    """Strong side-vertices of ``view`` (Theorem 8).

    The pool is the python kernel's (every active vertex, or the active
    ``candidates`` in their iteration order) and the set is filled in
    pool order.
    """
    mask = view.mask
    if candidates is None:
        pool = view.active_list()
    else:
        pool = [v for v in candidates if 0 <= v < len(mask) and mask[v]]
    ids = array("i", pool)
    flags = array("B", bytes(len(pool)))
    spec = _view(view.base, mask, _zeros(0))
    _check(_lib.kvcc_strong(ctypes.byref(spec), k, _address(ids), len(ids),
                            _address(flags)))
    return set(compress(pool, flags))
