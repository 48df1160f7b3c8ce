"""Hot-loop kernels: one seam, two interchangeable implementations.

The KVCC-ENUM inner loops - k-core peeling, Dinic BFS/DFS over the flow
arc arena, active-degree recounts, and scan-first forest extraction -
all operate on flat integer arrays (the CSR base's
``indptr``/``indices``, a view's byte ``mask`` and int32 ``deg``, a
:class:`~repro.flow.flow_network.FlowNetwork`'s ``head``/``cap``/``tails``
arc arrays).  This package routes every one of those loops through a
selected *kernel module* so the same arrays can be driven either by

* :mod:`repro.kernels.python_impl` - the pure-stdlib reference
  implementation (always available, byte-for-byte the library's
  semantics), or
* :mod:`repro.kernels.numpy_impl` - an optional fast path that runs the
  batchable loops (peel frontiers, degree recounts, arc-arena
  construction) as numpy array programs over zero-copy
  views of the very same buffers.

Selection
---------
:func:`select` resolves once and caches:

1. an explicit :func:`set_kernel`/:func:`use` override (tests, benches);
2. the ``REPRO_KERNELS`` environment variable (``python`` or ``numpy``);
3. ``numpy`` if it imports, else ``python``.

Both kernels produce *identical observable results* - identical max-flow
values, residual states, min-cut sets, peel survivor masks and degrees,
and scan-first forests - which the property-based parity suite
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
_VALID = ("python", "numpy")

#: Explicit override installed by :func:`set_kernel` (None = auto).
_forced: Optional[str] = None
#: Cached selected module (invalidated by :func:`set_kernel`).
_selected = None


def available() -> Tuple[str, ...]:
    """The kernel names importable in this environment."""
    names = ["python"]
    try:
        import numpy  # noqa: F401

        names.append("numpy")
    except ImportError:  # pragma: no cover - depends on environment
        pass
    return tuple(names)


def _load(name: str):
    if name == "python":
        from repro.kernels import python_impl

        return python_impl
    if name == "numpy":
        from repro.kernels import numpy_impl

        return numpy_impl
    raise ValueError(
        f"unknown kernel {name!r}; expected one of {_VALID}"
    )


def select():
    """The active kernel module (resolved once, then cached).

    Resolution order: :func:`set_kernel` override, then the
    ``REPRO_KERNELS`` environment variable, then numpy-if-importable,
    then the pure-python reference.  Asking explicitly for ``numpy``
    (override or environment) when numpy is not installed raises
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
    if name is None:
        try:
            _selected = _load("numpy")
        except ImportError:
            _selected = _load("python")
    else:
        _selected = _load(name)  # explicit request: let ImportError out
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
