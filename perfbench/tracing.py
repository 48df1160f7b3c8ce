"""Span-recording shims around the layer entry points of ``repro``.

The traced run replaces public functions and methods of the layers with
wrappers that record one span per call: name, start, end, the span that
caused it (the enclosing span on the same thread), the thread, and an
item id shared by every span of one request or work item.  Spans stay
in memory; :meth:`Tracer.dump` writes them when the run ends.

A function is patched by identity: every loaded ``repro`` module whose
attribute *is* the original function gets the wrapper, so names that
were imported with ``from x import f`` are covered as well as the
defining module.  Imports that run later read the patched attribute.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List, Sequence, Tuple

#: (module, attribute, span name, starts a work item) for the functions
#: of the enumeration, hierarchy, data and index-write layers.
OFFLINE_FUNCTIONS = (
    ("repro.core.engine", "expand_work_item", "core.engine.item", True),
    ("repro.core.engine", "root_work_items", "core.engine.roots", False),
    ("repro.core.global_cut", "global_cut", "core.global_cut", False),
    ("repro.core.global_cut", "sparse_certificate", "certificate.sparse",
     False),
    ("repro.core.global_cut", "side_groups_from_forest",
     "certificate.side_groups", False),
    ("repro.core.global_cut", "build_flow_network", "flow.build", False),
    ("repro.core.global_cut", "local_vertex_cut", "flow.loc_cut", False),
    ("repro.core.side_vertex", "strong_side_vertices", "core.side_vertex",
     False),
    ("repro.core.side_vertex", "split_inheritance", "core.side_vertex",
     False),
    ("repro.core.partition", "overlap_partition", "core.partition", False),
    ("repro.graph.core_decomposition", "peel_in_place", "graph.peel", False),
    ("repro.graph.connectivity", "connected_components", "graph.components",
     False),
    ("repro.graph.connectivity", "is_vertex_cut", "graph.bfs", False),
    ("repro.graph.connectivity", "bfs_distances", "graph.bfs", False),
    ("repro.core.hierarchy", "build_hierarchy_csr", "core.hierarchy", False),
    ("repro.data.resolver", "_hash_file", "data.resolver.hash", False),
    ("repro.data.resolver", "read_edge_list_csr", "data.ingest", False),
    ("repro.data.format", "save_csr", "data.format.save", False),
    ("repro.data.format", "load_csr", "data.format.load", False),
)

#: (module, class, method, span name) for the same layers.
OFFLINE_METHODS = (
    ("repro.core.engine", "SerialEngine", "run_many", "core.engine.run_many"),
    ("repro.index.store", "HierarchyIndex", "from_hierarchy",
     "index.store.flatten"),
    ("repro.index.store", "HierarchyIndex", "save_atomic", "index.store.save"),
)

#: The serving layers: request routing, validation, rendering, the
#: registry, index loads, and the incremental write path.
SERVER_FUNCTIONS = (
    ("repro.service.handlers", "handle_request", "service.handlers.request",
     True),
    ("repro.service.handlers", "handle_mutation",
     "service.handlers.mutation", True),
    ("repro.service.handlers", "render_json", "service.handlers.render",
     False),
    ("repro.service.schema", "validate", "service.schema.validate", False),
    ("repro.index.cohesion", "load_any_index", "index.load", False),
    ("repro.index.delta", "load_effective_index", "index.delta.replay",
     False),
)

SERVER_METHODS = (
    ("repro.service.registry", "IndexRegistry", "get",
     "service.registry.get"),
    ("repro.service.mutation", "MutationManager", "apply",
     "service.mutation.apply"),
    ("repro.index.delta", "IndexUpdater", "apply", "index.delta.apply"),
    ("repro.index.delta", "IndexUpdater", "__init__",
     "index.delta.updater_init"),
) + tuple(
    ("repro.index.query", "HierarchyQueryService", method, "index.query")
    for method in (
        "vcc_number", "vcc_numbers", "components_of", "same_kvcc",
        "same_kvcc_many", "max_shared_level", "max_shared_levels",
        "top_communities", "critical_vertices",
    )
)

#: One recorded span: (id, name, start_ns, end_ns, parent id, thread id,
#: item id).  Parent and item are -1 for none.
Span = Tuple[int, str, int, int, int, int, int]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, starts_item: bool = False):
        """``fn`` with a span recorded around every call."""
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent, item = stack[-1]
                if starts_item:
                    item = sid
            else:
                parent, item = -1, sid
            stack.append((sid, item))
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append(
                    (sid, name, start, end, parent,
                     threading.get_ident(), item)
                )

        return traced

    def patch_function(
        self, module: str, attribute: str, name: str, starts_item: bool
    ) -> None:
        original = getattr(importlib.import_module(module), attribute)
        traced = self.wrap(name, original, starts_item)
        for loaded in list(sys.modules.values()):
            if loaded is None or not loaded.__name__.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
                    self._patches.append((loaded, key, original))

    def patch_method(
        self, module: str, cls_name: str, method: str, name: str
    ) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[method]
        if isinstance(original, classmethod):
            patched = classmethod(self.wrap(name, original.__func__))
        else:
            patched = self.wrap(name, original)
        setattr(cls, method, patched)
        self._patches.append((cls, method, original))

    def install(self, functions, methods) -> None:
        for module, attribute, name, starts_item in functions:
            self.patch_function(module, attribute, name, starts_item)
        for module, cls_name, method, name in methods:
            self.patch_method(module, cls_name, method, name)

    def restore(self) -> None:
        """Put every patched attribute back."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the raw spans as JSON (one list per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def covered_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> duration minus the part its children cover (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered_ns(children.get(sid, ()))
        for sid, _, start, end, _, _, _ in spans
    }


class Summary:
    """Per-name aggregates of a span list."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        own = self_times(self.spans)
        names = {sid: name for sid, name, *_ in self.spans}
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        #: Durations of the outermost span of each name (a span whose
        #: parent has the same name is a nested call, not a new one).
        self.durations_ns: Dict[str, List[int]] = defaultdict(list)
        for sid, name, start, end, parent, _, _ in self.spans:
            self.calls[name] += 1
            self.self_ns[name] += own[sid]
            if names.get(parent) != name:
                self.total_ns[name] += end - start
                self.durations_ns[name].append(end - start)

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e9

    def total_s(self, *names: str) -> float:
        return sum(self.total_ns.get(n, 0) for n in names) / 1e9

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def self_sum_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def table(self, wall_s: float) -> List[str]:
        """Per-layer self-time rows plus ``core.other_s``; they sum to
        ``wall_s``."""
        rows = [
            f"  {'layer':28s} {'calls':>8s} {'self_s':>9s} {'share':>7s}"
        ]
        for name in sorted(self.self_ns, key=self.self_ns.get, reverse=True):
            seconds = self.self_ns[name] / 1e9
            rows.append(
                f"  {name:28s} {self.calls[name]:8d} {seconds:9.4f} "
                f"{seconds / wall_s:7.1%}"
            )
        other = wall_s - self.self_sum_s()
        rows.append(
            f"  {'core.other_s':28s} {'':8s} {other:9.4f} "
            f"{other / wall_s:7.1%}"
        )
        rows.append(f"  {'wall':28s} {'':8s} {wall_s:9.4f} {1:7.1%}")
        return rows


def chrome_trace(processes: Dict[str, Sequence[Span]]) -> dict:
    """Chrome trace-event JSON (Perfetto opens it) for named span lists."""
    events = []
    for pid, (process, spans) in enumerate(sorted(processes.items()), 1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": process},
        })
        origin = min((span[2] for span in spans), default=0)
        for sid, name, start, end, parent, tid, item in spans:
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "item": item},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
