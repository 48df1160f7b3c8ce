"""Hot-loop kernels: one seam, two interchangeable implementations.

The KVCC-ENUM inner loops - k-core peeling, the sparse certificate's
scan-first forests and side-groups, connected components, active-degree
recounts, the strong side-vertex scan, the phase-1 farthest-first
order, and the flow arc builders and Dinic BFS/DFS of LOC-CUT - all
operate on flat integer arrays (the CSR base's ``indptr``/``indices``,
a view's byte ``mask``, a :class:`~repro.flow.flow_network.FlowNetwork`'s
``head``/``cap`` arc arrays).  This package routes every one of those
loops through a selected *kernel module*, either

* :mod:`repro.kernels.python_impl` - the pure-stdlib reference
  implementation (always available, byte-for-byte the library's
  semantics); or
* :mod:`repro.kernels.c_impl` - the same loops compiled from C
  (``kernel.c``, built with the system ``cc`` into
  ``default_cache_dir()/kernels/`` on first use and loaded through
  ``ctypes``), except peeling and the segment sort, which are the
  reference's own functions.

Selection
---------
:func:`select` resolves once and caches:

1. an explicit :func:`set_kernel`/:func:`use` override (tests, benches);
2. the ``REPRO_KERNELS`` environment variable (``python`` or ``c``);
3. ``c`` if it builds and loads, else ``python``.

Nothing is imported, compiled or loaded before the first :func:`select`
(a read-only ``repro serve`` never calls it).  An explicit request for
a kernel that cannot load raises ``ImportError``; a failed load is
remembered, so each kernel is tried at most once per process.

Both kernels produce *identical observable results* - identical
max-flow values, residual states, min-cut sets, peel survivor masks and
degrees, certificates (forests, rows and side-groups), components and
orders - which the property-based parity suite
(``tests/test_kernel_parity.py``) asserts directly.  Only wall-clock
differs.

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
_VALID = ("python", "c")

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
    ``REPRO_KERNELS`` environment variable, then ``c`` if it loads,
    else ``python``.  Asking explicitly for ``c`` (override or
    environment) when it cannot load raises ``ImportError`` instead of
    silently degrading.
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
    try:
        _selected = _load("c")
    except ImportError:
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
