"""Hot-loop kernels: one seam, three interchangeable implementations.

The KVCC-ENUM inner loops - k-core peeling, Dinic BFS/DFS over the flow
arc arena, active-degree recounts, connected components, and scan-first
forest extraction - all operate on flat integer arrays (the CSR base's
``indptr``/``indices``, a view's byte ``mask`` and int32 ``deg``, a
:class:`~repro.flow.flow_network.FlowNetwork`'s ``head``/``cap``/``tails``
arc arrays).  This package routes every one of those loops through a
selected *kernel module* so the same arrays can be driven by

* :mod:`repro.kernels.python_impl` - the pure-stdlib reference
  implementation (always available, byte-for-byte the library's
  semantics);
* :mod:`repro.kernels.numpy_impl` - an optional fast path that runs
  some loops as numpy array programs over zero-copy views of the very
  same buffers (arc-arena construction, degree recounts, scan-first
  forests, and Dinic's BFS on networks of a few thousand arcs or more),
  each only at the input sizes where it measured faster, and shares
  the reference's code everywhere else (peeling, components, small
  flow networks); or
* :mod:`repro.kernels.c_impl` - Dinic's max flow and the residual BFS
  of LOC-CUT compiled from C (``dinic.c``, built with the system ``cc``
  into ``default_cache_dir()/kernels/`` on first use and loaded through
  ``ctypes``), with every other function taken from numpy, or from the
  reference when numpy is absent.

Selection
---------
:func:`select` resolves once and caches:

1. an explicit :func:`set_kernel`/:func:`use` override (tests, benches);
2. the ``REPRO_KERNELS`` environment variable (``python``, ``numpy`` or
   ``c``);
3. ``c`` if it builds and loads, else ``numpy`` if it imports, else
   ``python``.

Nothing is imported, compiled or loaded before the first :func:`select`
(a read-only ``repro serve`` never calls it).  An explicit request for
a kernel that cannot load raises ``ImportError``; a failed load is
remembered, so each kernel is tried at most once per process.

All kernels produce *identical observable results* - identical max-flow
values, residual states, min-cut sets, peel survivor masks and degrees,
and scan-first forests - which the property-based parity suite
(``tests/test_kernel_parity.py``) asserts directly, with numpy's array
programs forced on at every input size.  Only wall-clock differs.

Examples
--------
>>> import repro.kernels as kernels
>>> kernels.select().NAME in kernels.available()
True
>>> with kernels.use("python"):
...     kernels.active_name()
'python'
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional, Tuple

_ENV_VAR = "REPRO_KERNELS"
_VALID = ("python", "numpy", "c")

#: Explicit override installed by :func:`set_kernel` (None = auto).
_forced: Optional[str] = None
#: Cached selected module (invalidated by :func:`set_kernel`).
_selected = None
#: Kernel name -> the ImportError its load raised (never retried).
_failed: dict = {}


def available() -> Tuple[str, ...]:
    """The kernel names that load in this environment.

    Asking about ``c`` builds it if no cached build exists.
    """
    names = []
    for name in _VALID:
        try:
            _load(name)
        except ImportError:
            continue
        names.append(name)
    return tuple(names)


def _load(name: str):
    if name not in _VALID:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {_VALID}"
        )
    if name in _failed:
        raise ImportError(str(_failed[name]))
    try:
        if name == "python":
            from repro.kernels import python_impl as module
        elif name == "numpy":
            from repro.kernels import numpy_impl as module
        else:
            from repro.kernels import c_impl as module

            module.load()
    except ImportError as exc:
        _failed[name] = exc
        raise
    return module


def select():
    """The active kernel module (resolved once, then cached).

    Resolution order: :func:`set_kernel` override, then the
    ``REPRO_KERNELS`` environment variable, then the first of ``c``,
    ``numpy`` and ``python`` that loads.  Asking explicitly for ``c`` or
    ``numpy`` (override or environment) when it cannot load raises
    ``ImportError`` instead of silently degrading.
    """
    global _selected
    if _selected is not None:
        return _selected
    name = _forced
    if name is None:
        env = os.environ.get(_ENV_VAR, "").strip().lower()
        if env:
            if env not in _VALID:
                raise ValueError(
                    f"{_ENV_VAR}={env!r} is not a kernel; "
                    f"expected one of {_VALID}"
                )
            name = env
    if name is not None:
        _selected = _load(name)  # explicit request: let ImportError out
        return _selected
    for name in ("c", "numpy"):
        try:
            _selected = _load(name)
            return _selected
        except ImportError:
            pass
    _selected = _load("python")
    return _selected


def active_name() -> str:
    """Name of the kernel :func:`select` resolves to right now."""
    return select().NAME


def set_kernel(name: Optional[str]) -> None:
    """Force a kernel by name (``None`` restores auto-selection).

    Takes effect on the next :func:`select` call; existing references to
    a previously selected module keep working (kernels are stateless -
    all state lives on the graph/network objects they operate on).
    """
    global _forced, _selected
    if name is not None and name not in _VALID:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {_VALID}"
        )
    _forced = name
    _selected = None


@contextlib.contextmanager
def use(name: Optional[str]) -> Iterator[None]:
    """Context manager pinning the kernel selection (parity tests)."""
    previous = _forced
    set_kernel(name)
    try:
        yield
    finally:
        set_kernel(previous)
