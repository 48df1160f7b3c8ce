"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``kvcc``
    Enumerate the k-VCCs of a dataset and print (or save) them.
``stats``
    Print Table 1-style statistics for a dataset.
``connectivity``
    Vertex connectivity of a graph (or of a vertex pair with ``-u/-v``).
``hierarchy``
    The k-VCC hierarchy levels and per-vertex vcc-numbers; can persist
    the forest with ``--save-index``.
``build-cohesion``
    Build the multi-measure ``KVCCCOH`` cohesion index: the k-VCC,
    k-ECC, and k-core hierarchies of one dataset, persisted side by
    side and queryable per measure (``repro query --measure``).
``query``
    Answer vcc-number / components-of / same-kvcc / max-shared-level /
    top-communities / critical-vertices / cohesion-strength queries
    from a saved index file in O(1), without recomputation.  Every
    subcommand mirrors its HTTP endpoint; ``--measure
    {kvcc,kecc,kcore}`` selects the hierarchy on a cohesion index, and
    repeatable ``-v`` / ``--pair u:v`` flags mirror the HTTP batch
    forms (the scalar ``-u``/``-v`` pair spelling survives as a
    deprecated shim).
``serve``
    Long-lived HTTP JSON service over one or more saved index files:
    mmap-backed lazy loads, LRU residency, mtime hot reload, batch
    endpoints (see :mod:`repro.service`); ``--build-missing``
    materializes indexes straight from dataset tokens.
``experiments``
    Run the paper's experiment harness (``--quick`` for a fast pass).

Every graph-consuming command accepts the same dataset grammar
(:mod:`repro.data`): an edge-list path (``.txt``/``.csv``, optionally
``.gz``), ``file:PATH``, or ``name:NAME`` for a synthetic stand-in.
Parsed graphs are cached content-addressed under ``~/.cache/repro``
(override with ``--cache-dir`` or ``$REPRO_CACHE_DIR``) as binary
``KVCCG`` files, so every invocation after the first mmap-loads in
O(header) instead of re-parsing text - and never builds a dict
``Graph`` at all.

Examples
--------
::

    python -m repro kvcc graph.txt -k 4
    python -m repro kvcc name:youtube -k 8
    python -m repro kvcc snap.txt.gz -k 4
    python -m repro kvcc graph.txt -k 4 --variant VCCE --out result.json
    python -m repro stats name:dblp
    python -m repro connectivity graph.txt
    python -m repro connectivity graph.txt -u 3 -v 17
    python -m repro hierarchy name:youtube --max-k 6
    python -m repro hierarchy graph.txt --save-index graph.kvccidx
    python -m repro query vcc-number graph.kvccidx -v 3
    python -m repro query components-of graph.kvccidx -v 3 -k 4
    python -m repro query same-kvcc graph.kvccidx --pair 3:17 -k 4
    python -m repro query max-shared-level graph.kvccidx --pair 3:17
    python -m repro build-cohesion graph.txt --out graph.kvcccoh
    python -m repro query vcc-number graph.kvcccoh -v 3 --measure kecc
    python -m repro query top-communities graph.kvcccoh -v 3 -r 2
    python -m repro query critical-vertices graph.kvcccoh -v 3 -k 4
    python -m repro query cohesion-strength graph.kvcccoh --pair 3:17
    python -m repro serve web=graph.kvccidx --port 8716
    python -m repro serve youtube=name:youtube --build-missing
    python -m repro experiments --quick
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.stats import RunStats
from repro.core.variants import VARIANTS
from repro.graph.csr import lookup_vertex, parse_vertex

#: Default TCP port of ``repro serve`` (chosen to be collision-poor).
#: Defined here, its only user, so building the parser imports no
#: :mod:`repro.service` module.
DEFAULT_PORT = 8716

#: Uniform help text for the dataset positional of every graph command.
_DATASET_HELP = (
    "dataset: an edge-list path (u v per line, # comments; .csv and .gz "
    "work too), 'file:PATH', or 'name:NAME' for a synthetic stand-in "
    "(e.g. name:youtube)"
)


def _level_arg(token: str) -> int:
    """argparse type for -k / --max-k: a level of at least 1, usage
    error otherwise (no k-VCC level 0 exists)."""
    value = int(token)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {value}"
        )
    return value


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    """The dataset positional plus the shared cache knobs."""
    parser.add_argument("graph", help=_DATASET_HELP)
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="graph cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk graph cache (parse/generate in process)",
    )
    parser.add_argument(
        "--refresh-cache", action="store_true",
        help="rebuild this dataset's cache entry even if present",
    )
    parser.add_argument(
        "--mem-budget", metavar="SIZE", default=None,
        help="hard memory budget for the out-of-core data path, e.g. "
        "256M or 2G (default: $REPRO_MEM_BUDGET, else unbounded). "
        "Oversized edge lists external-sort through temp spill runs at "
        "ingest, and 'kvcc' enumerates component-at-a-time over the "
        "mmap CSR instead of faulting the whole graph resident",
    )


def _load_base(args: argparse.Namespace):
    """Resolve the dataset token and return a mine-ready CSR base.

    A cache hit is an O(header) mmap load; a miss parses or generates
    once and materializes the binary entry for next time (under
    ``--mem-budget``, file sources external-sort straight into the
    entry).  The budget is parsed first, cache warm or cold, and
    ``args.mem_budget`` becomes its byte count (``None``: unbounded).
    Exits with an argparse-style error on unknown names / missing
    files / malformed budgets.
    """
    from repro.data import load_graph_csr, resolve_mem_budget

    try:
        args.mem_budget = resolve_mem_budget(args.mem_budget)
        return load_graph_csr(
            args.graph,
            cache_dir=args.cache_dir,
            refresh=args.refresh_cache,
            cache=not args.no_cache,
            mem_budget=args.mem_budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _label_id(base, token: str) -> int:
    """Map a command-line vertex token to the base's dense id.

    The token resolves as ``repro query`` and the HTTP API resolve it
    (:func:`~repro.graph.csr.lookup_vertex`): ``05`` finds vertex
    ``5``, and ``1`` finds the label ``"1"`` of a mixed-id file.
    """
    label = parse_vertex(token)
    if base.interner is not None:
        vid = lookup_vertex(base.interner, label)
    else:
        vid = label if isinstance(label, int) and 0 <= label < base.n else None
    if vid is None:
        raise SystemExit(f"error: vertex {token!r} is not in the graph")
    return vid


def cmd_kvcc(args: argparse.Namespace) -> int:
    """Enumerate the k-VCCs of a dataset."""
    from repro.core.kvcc import enumerate_kvccs_csr
    from repro.graph.serialization import save_decomposition

    base = _load_base(args)
    stats = RunStats(k=args.k)
    options = VARIANTS[args.variant]
    budget = args.mem_budget
    if budget is not None:
        # Budgeted path: enumerate component-at-a-time so only one
        # component's CSR rows are ever resident.
        from repro.core.outofcore import enumerate_kvccs_outofcore

        leaves = enumerate_kvccs_outofcore(
            base, args.k, options, stats, materialize=False
        )
    else:
        # The cached hot path: mmap CSR in, member-id lists out - no
        # dict Graph is constructed anywhere in this branch.
        leaves = enumerate_kvccs_csr(
            base, args.k, options, stats, materialize=False
        )
    components = [[base.label_of(i) for i in leaf] for leaf in leaves]
    mode_note = "" if budget is None else ", component-at-a-time"
    print(
        f"{len(components)} {args.k}-VCC(s) in {stats.elapsed_seconds:.3f}s "
        f"({stats.flow_tests} local connectivity tests, "
        f"{stats.partitions} partitions{mode_note})"
    )
    if args.out:
        graph = base.to_graph() if args.embed_graph else None
        save_decomposition(args.out, components, args.k, graph)
        print(f"wrote {args.out}")
    else:
        for i, members in enumerate(components):
            listing = ", ".join(map(str, sorted(members, key=str)))
            print(f"  [{i}] {len(members)} vertices: {listing}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print Table 1-style statistics for a dataset."""
    from repro.graph.metrics import graph_summary

    base = _load_base(args)
    summary = graph_summary(base)
    print(f"vertices:   {int(summary['num_vertices'])}")
    print(f"edges:      {int(summary['num_edges'])}")
    print(f"density:    {summary['density']:.3f}")
    print(f"max degree: {int(summary['max_degree'])}")
    return 0


def cmd_connectivity(args: argparse.Namespace) -> int:
    """Vertex connectivity of the graph or a pair."""
    from repro.core.connectivity_api import (
        local_connectivity,
        minimum_vertex_cut,
        vertex_connectivity,
    )

    base = _load_base(args)
    view = base.full_view()
    if (args.u is None) != (args.v is None):
        print("error: -u and -v must be given together", file=sys.stderr)
        return 2
    if args.u is not None:
        iu, iv = _label_id(base, args.u), _label_id(base, args.v)
        value = local_connectivity(view, iu, iv)
        print(
            f"kappa({base.label_of(iu)}, {base.label_of(iv)}) = {value}"
        )
    else:
        kappa = vertex_connectivity(view)
        print(f"kappa(G) = {kappa}")
        if args.show_cut:
            try:
                cut = minimum_vertex_cut(view)
            except ValueError as exc:
                print(f"no cut: {exc}")
            else:
                labels = [base.label_of(i) for i in cut]
                print(f"minimum vertex cut: {sorted(labels, key=str)}")
    return 0


def cmd_hierarchy(args: argparse.Namespace) -> int:
    """Print the k-VCC hierarchy levels; optionally persist the index."""
    from repro.core.hierarchy import build_hierarchy_csr

    base = _load_base(args)
    hierarchy = build_hierarchy_csr(base, max_k=args.max_k)
    print(f"max level: {hierarchy.max_k}")
    for k in range(1, hierarchy.max_k + 1):
        comps = hierarchy.components_at(k)
        sizes = sorted((len(c) for c in comps), reverse=True)
        print(f"  k={k}: {len(comps)} component(s), sizes {sizes}")
    if args.vcc_numbers:
        numbers = hierarchy.vcc_number_map()
        for v in sorted(numbers, key=str):
            print(f"  vcc-number({v}) = {numbers[v]}")
    if args.save_index:
        from repro.index import HierarchyIndex

        index = HierarchyIndex.from_hierarchy(hierarchy, base.interner)
        index.save_atomic(args.save_index)
        print(
            f"wrote {args.save_index} ({index.num_nodes} components, "
            f"{index.num_vertices} vertices, max level {index.max_k})"
        )
    return 0


def cmd_build_cohesion(args: argparse.Namespace) -> int:
    """Build and persist the multi-measure ``KVCCCOH`` cohesion index."""
    from repro.index import build_cohesion_index

    base = _load_base(args)
    cohesion = build_cohesion_index(base, max_k=args.max_k)
    cohesion.save(args.out)
    shapes = "; ".join(
        f"{measure}: {cohesion.index_for(measure).num_nodes} components, "
        f"max level {cohesion.index_for(measure).max_k}"
        for measure in cohesion.measures
    )
    print(
        f"wrote {args.out} "
        f"({cohesion.index_for('kvcc').num_vertices} vertices; {shapes})"
    )
    return 0


def _query_pairs(args: argparse.Namespace):
    """Resolve ``--pair u:v`` flags (plus the deprecated ``-u``/``-v``
    scalar spelling) into a list of label pairs, or exit 2."""
    pairs = []
    for token in args.pair or ():
        u, sep, v = token.partition(":")
        if not sep or not u or not v:
            print(
                f"error: --pair must look like 'u:v', got {token!r}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        pairs.append((parse_vertex(u), parse_vertex(v)))
    legacy = getattr(args, "u", None) is not None or (
        getattr(args, "v", None) is not None
    )
    if legacy:
        if args.u is None or args.v is None:
            print(
                "error: -u and -v must be given together",
                file=sys.stderr,
            )
            raise SystemExit(2)
        print(
            f"note: '-u/-v' is deprecated for '{args.query_command}'; "
            f"use --pair {args.u}:{args.v}",
            file=sys.stderr,
        )
        pairs.append((parse_vertex(args.u), parse_vertex(args.v)))
    if not pairs:
        print(
            "error: give at least one --pair u:v",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return pairs


def cmd_query(args: argparse.Namespace) -> int:
    """Answer one query from a saved hierarchy or cohesion index file."""
    from repro.index import (
        CohesionIndex,
        CohesionQueryService,
        HierarchyQueryService,
        load_any_index,
    )

    measure = getattr(args, "measure", "kvcc")
    try:
        index = load_any_index(args.index)
        if isinstance(index, CohesionIndex):
            container = CohesionQueryService(index)
        else:
            container = HierarchyQueryService(index)
        try:
            service = container.measure_service(measure)
        except KeyError:
            served = ", ".join(container.measures)
            print(
                f"error: {args.index} does not serve measure "
                f"{measure!r} (it serves: {served}); build a "
                f"multi-measure index with 'repro build-cohesion'",
                file=sys.stderr,
            )
            return 2
        try:
            return _run_query(args, container, service, measure)
        except SystemExit as exc:
            # _query_pairs prints its own message and signals the exit
            # code; surface it as a return so embedders (and tests)
            # calling main() see a code, not an exception.
            return exc.code if isinstance(exc.code, int) else 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_query(args, container, service, measure: str) -> int:
    """Dispatch one parsed ``repro query`` subcommand and print the
    answer; ``service`` is the per-measure view, ``container`` the
    whole (possibly multi-measure) service for cross-measure queries."""
    command = args.query_command
    tag = "" if measure == "kvcc" else f" [{measure}]"
    if command == "vcc-number":
        for token in args.v:
            v = parse_vertex(token)
            print(f"vcc-number({v}){tag} = {service.vcc_number(v)}")
    elif command == "components-of":
        v = parse_vertex(args.v)
        comps = service.components_of(v, args.k)
        noun = {"kvcc": "VCC", "kecc": "ECC", "kcore": "core"}[measure]
        print(f"{len(comps)} {args.k}-{noun}(s) contain {v}")
        for i, comp in enumerate(comps):
            members = ", ".join(map(str, sorted(comp, key=str)))
            print(f"  [{i}] {len(comp)} vertices: {members}")
    elif command == "same-kvcc":
        for u, v in _query_pairs(args):
            answer = service.same_kvcc(u, v, args.k)
            print(f"same-kvcc({u}, {v}, k={args.k}){tag} = {answer}")
    elif command == "max-shared-level":
        for u, v in _query_pairs(args):
            print(
                f"max-shared-level({u}, {v}){tag} = "
                f"{service.max_shared_level(u, v)}"
            )
    elif command == "top-communities":
        v = parse_vertex(args.v)
        ranked = service.top_communities(v, args.r)
        print(
            f"{len(ranked)} strongest communities containing {v}{tag}"
        )
        for i, (k, members) in enumerate(ranked):
            listing = ", ".join(map(str, members))
            print(f"  [{i}] k={k}, {len(members)} vertices: {listing}")
    elif command == "critical-vertices":
        v = parse_vertex(args.v)
        critical = service.critical_vertices(v, args.k)
        print(
            f"{len(critical)} critical vertex(es) of {v} "
            f"at level {args.k}{tag}"
        )
        if critical:
            print("  " + ", ".join(map(str, critical)))
    else:  # cohesion-strength (cross-measure; ignores --measure)
        pairs = _query_pairs(args)
        per_measure = {
            m: container.measure_service(m).max_shared_levels(pairs)
            for m in container.measures
        }
        for i, (u, v) in enumerate(pairs):
            strengths = " ".join(
                f"{m}={per_measure[m][i]}" for m in container.measures
            )
            print(f"cohesion-strength({u}, {v}): {strengths}")
    return 0


def _serve_spec(token: str):
    """argparse type for serve datasets: ``name=target`` or a bare target.

    The target is either a saved ``.kvccidx`` file or (with
    ``--build-missing``) any dataset token the resolver understands.  A
    bare target serves under a derived name: the file's stem, or the
    dataset's short name for ``name:``/``file:`` tokens.
    """
    name, sep, target = token.partition("=")
    if not sep:
        target = token
        name = _spec_short_name(token)
    if not name or not target:
        raise argparse.ArgumentTypeError(
            f"dataset spec must be 'name=target' or a target, got {token!r}"
        )
    return name, target


def _spec_short_name(token: str) -> str:
    """Derived serve name for a bare target: the index file's stem, or
    the dataset's short name (``name:``/``file:``/path tokens alike,
    with ``.txt``/``.csv``/``.gz`` suffixes stripped)."""
    import os

    from repro.data.resolver import Dataset

    if token.startswith("name:"):
        return Dataset(
            spec=token, kind="name", source=token[len("name:") :]
        ).name
    path = token[len("file:") :] if token.startswith("file:") else token
    if path.endswith((".kvccidx", ".kvcccoh")):
        return os.path.splitext(os.path.basename(path))[0]
    return Dataset(spec=token, kind="file", source=path).name


def _is_index_file(path: str) -> bool:
    """True when ``path`` starts with a servable index magic - a plain
    hierarchy index (``KVCCIDX``) or a cohesion container (``KVCCCOH``)."""
    from repro.index.cohesion import COHESION_MAGIC
    from repro.index.store import MAGIC

    try:
        with open(path, "rb") as handle:
            head = handle.read(max(len(MAGIC), len(COHESION_MAGIC)))
    except OSError:
        return False
    return head.startswith(MAGIC) or head.startswith(COHESION_MAGIC)


def prepare_serve_datasets(
    specs, build_missing: bool, cache_dir=None
):
    """Turn ``(name, target)`` serve specs into
    ``(name, index path, source token)``.

    An existing index file (``KVCCIDX`` magic) is served as-is with a
    ``None`` source.  Otherwise, with ``build_missing`` set, the target
    is resolved as a dataset token, its hierarchy is built (cached CSR
    in, ``KVCCIDX`` out), the index persists in the cache's
    ``indexes/`` tier keyed by the dataset fingerprint - the next serve
    boot mmap-loads it directly - and the token rides along as the
    source.  A non-``None`` source makes the dataset *mutable*: the
    serve layer can reload its graph to build the incremental updater
    behind ``POST /v1/<ds>/edges``.

    Raises
    ------
    ValueError
        If a target neither is an index file nor can be materialized.
    """
    import os

    from repro.data import default_cache_dir, resolve_dataset

    out = []
    for name, target in specs:
        if os.path.exists(target) and (
            not build_missing or _is_index_file(target)
        ):
            out.append((name, target, None))
            continue
        if not build_missing:
            raise ValueError(
                f"no such index file: {target!r} (pass --build-missing "
                f"to materialize it from a dataset token)"
            )
        from repro.index import HierarchyIndex, load_index
        from repro.index.store import FORMAT_VERSION as _IDX_VERSION

        dataset = resolve_dataset(target)
        root = (
            default_cache_dir() if cache_dir is None else cache_dir
        )
        index_dir = os.path.join(str(root), "indexes")
        # The KVCCIDX format version is folded into the key so a format
        # bump re-materializes instead of serving an unreadable file.
        index_path = os.path.join(
            index_dir,
            f"{dataset.fingerprint(root)}-v{_IDX_VERSION}.kvccidx",
        )
        if os.path.exists(index_path):
            try:
                # O(header) mmap validation; a corrupt entry rebuilds.
                load_index(index_path)
            except ValueError:
                os.remove(index_path)
        if not os.path.exists(index_path):
            from repro.core.hierarchy import build_hierarchy_csr

            base = dataset.load(cache_dir=cache_dir)
            hierarchy = build_hierarchy_csr(base)
            index = HierarchyIndex.from_hierarchy(hierarchy, base.interner)
            os.makedirs(index_dir, exist_ok=True)
            try:
                index.save_atomic(index_path)
            except OSError:
                # A concurrent boot that published it first serves too.
                if not os.path.exists(index_path):
                    raise
        out.append((name, index_path, target))
    return out


def _make_graph_loader(token: str, cache_dir):
    """A zero-argument loader of the CSR graph behind a dataset token.

    Deferred (not loaded at serve boot): the graph is only needed if a
    mutation batch actually arrives for the dataset.
    """

    def load():
        from repro.data import resolve_dataset

        return resolve_dataset(token).load(cache_dir=cache_dir)

    return load


def _build_mutation_manager(datasets, cache_dir):
    """A MutationManager covering every dataset with a source token."""
    from repro.service import MutationManager

    manager = MutationManager()
    for name, index_path, source in datasets:
        if source is not None:
            manager.register(
                name, index_path, _make_graph_loader(source, cache_dir)
            )
    return manager


def _serve_foreground(server, datasets, layout: str) -> int:
    """Run ``server`` on this thread until SIGINT; returns 0.

    Prints the banner once the socket is bound (scripts parse ``on
    http://HOST:PORT`` from it).  SIGINT stops the server, which drains
    its connections; ``shutting down`` is the last line printed.
    """
    import asyncio
    import signal

    names = ", ".join(name for name, _, _ in datasets)

    def announce(address) -> None:
        host, port = address
        print(f"serving {len(datasets)} dataset(s) [{names}] "
              f"on http://{host}:{port} ({layout}); Ctrl-C to stop",
              flush=True)

    async def run() -> None:
        # A handler rather than KeyboardInterrupt, which can land inside
        # any task and skip the drain.
        loop = asyncio.get_running_loop()
        signal.signal(signal.SIGINT,
                      lambda *_: loop.call_soon_threadsafe(server.shutdown))
        await server.serve(announce)

    previous = signal.getsignal(signal.SIGINT)
    try:
        asyncio.run(run())
    finally:
        signal.signal(signal.SIGINT, previous)
    print("\nshutting down")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP index-serving front end until interrupted."""
    from repro.service import AsyncHTTPServer, IndexRegistry, registry_dispatch

    try:
        datasets = prepare_serve_datasets(
            args.datasets, args.build_missing, args.cache_dir
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = IndexRegistry(capacity=args.capacity)
    for name, path, _ in datasets:
        try:
            registry.register(name, path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.preload:
            try:
                registry.get(name)
            except (OSError, ValueError) as exc:
                print(f"error: cannot load {name!r}: {exc}", file=sys.stderr)
                return 2
    mutations = _build_mutation_manager(datasets, args.cache_dir)
    server = AsyncHTTPServer(
        registry_dispatch(registry, mutations),
        host=args.host, port=args.port, quiet=not args.verbose,
    )
    return _serve_foreground(
        server, datasets,
        f"mmap loads, capacity {args.capacity}",
    )


def cmd_experiments(args: argparse.Namespace) -> int:
    """Run the paper's experiment harness."""
    from repro.experiments.harness import run_all

    run_all(quick=args.quick)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-vertex connected component enumeration "
        "(Wen et al., ICDE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "kvcc", help="enumerate k-VCCs of a dataset",
        epilog="examples: repro kvcc graph.txt -k 4; "
        "repro kvcc name:youtube -k 8 (generated once, mmap-cached "
        "thereafter); repro kvcc snap.txt.gz -k 5",
    )
    _add_dataset_args(p)
    p.add_argument(
        "-k", type=_level_arg, required=True, help="connectivity threshold"
    )
    p.add_argument(
        "--variant", choices=sorted(VARIANTS), default="VCCE*",
        help="algorithm variant (default: VCCE*)",
    )
    p.add_argument("--out", help="write the decomposition to this JSON file")
    p.add_argument(
        "--embed-graph", action="store_true",
        help="embed the input graph in the JSON output",
    )
    p.set_defaults(func=cmd_kvcc)

    p = sub.add_parser("stats", help="print graph statistics")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "connectivity", help="vertex connectivity (whole graph or a pair)"
    )
    _add_dataset_args(p)
    p.add_argument("-u", help="first vertex of a pair query")
    p.add_argument("-v", help="second vertex of a pair query")
    p.add_argument(
        "--show-cut", action="store_true",
        help="also print a minimum vertex cut (whole-graph query only)",
    )
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser(
        "hierarchy", help="k-VCC hierarchy across k",
        epilog="examples: repro hierarchy name:youtube --max-k 6; "
        "repro hierarchy graph.txt --save-index graph.kvccidx (then "
        "query it with 'repro query')",
    )
    _add_dataset_args(p)
    p.add_argument("--max-k", type=_level_arg, default=None)
    p.add_argument(
        "--vcc-numbers", action="store_true",
        help="also print the per-vertex vcc-number",
    )
    p.add_argument(
        "--save-index", metavar="PATH",
        help="persist the hierarchy as a binary index file answering "
        "'repro query' lookups in O(1)",
    )
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser(
        "build-cohesion",
        help="build the multi-measure cohesion index "
        "(k-VCC + k-ECC + k-core side by side)",
        epilog="example: repro build-cohesion graph.txt --out "
        "graph.kvcccoh; then query any measure ('repro query vcc-number "
        "graph.kvcccoh -v 3 --measure kecc') or serve it ('repro serve "
        "web=graph.kvcccoh' exposes the /v2 route family)",
    )
    _add_dataset_args(p)
    p.add_argument(
        "--out", metavar="PATH", required=True,
        help="write the KVCCCOH container here (atomic rename)",
    )
    p.add_argument(
        "--max-k", type=_level_arg, default=None,
        help="cap every measure's hierarchy at this level",
    )
    p.set_defaults(func=cmd_build_cohesion)

    p = sub.add_parser(
        "query", help="O(1) queries against a saved hierarchy or "
        "cohesion index",
        epilog="build an index first: repro hierarchy graph.txt "
        "--save-index graph.kvccidx, or repro build-cohesion graph.txt "
        "--out graph.kvcccoh (then pick a hierarchy with "
        "--measure {kvcc,kecc,kcore})",
    )
    qsub = p.add_subparsers(dest="query_command", required=True)
    _INDEX_HELP = (
        "index file from 'hierarchy --save-index' or 'build-cohesion'"
    )

    def _add_measure_flag(q: argparse.ArgumentParser) -> None:
        # Choices mirror repro.index.MEASURES; spelled out so building
        # the parser never imports the index package.
        q.add_argument(
            "--measure", choices=("kvcc", "kecc", "kcore"),
            default="kvcc",
            help="which hierarchy of a cohesion index to query "
            "(default: kvcc; plain .kvccidx files serve kvcc only)",
        )

    def _add_pair_flags(q: argparse.ArgumentParser) -> None:
        q.add_argument(
            "--pair", action="append", metavar="U:V",
            help="a vertex pair; repeat for a batch (mirrors the HTTP "
            "pair=u:v parameter)",
        )
        q.add_argument("-u", help="first vertex label (deprecated; "
                       "use --pair U:V)")
        q.add_argument("-v", help="second vertex label (deprecated; "
                       "use --pair U:V)")

    q = qsub.add_parser(
        "vcc-number", help="largest k with the vertex in some "
        "k-component of the chosen measure"
    )
    q.add_argument("index", help=_INDEX_HELP)
    q.add_argument(
        "-v", required=True, action="append", help="vertex label; "
        "repeat for a batch (mirrors the HTTP v= parameter)",
    )
    _add_measure_flag(q)

    q = qsub.add_parser(
        "components-of", help="all level-k components containing a vertex"
    )
    q.add_argument("index", help=_INDEX_HELP)
    q.add_argument("-v", required=True, help="vertex label")
    q.add_argument("-k", type=int, required=True, help="hierarchy level")
    _add_measure_flag(q)

    q = qsub.add_parser(
        "same-kvcc", help="do two vertices share a component at level k?"
    )
    q.add_argument("index", help=_INDEX_HELP)
    _add_pair_flags(q)
    q.add_argument("-k", type=int, required=True, help="hierarchy level")
    _add_measure_flag(q)

    q = qsub.add_parser(
        "max-shared-level", help="deepest level at which two vertices share "
        "a component",
    )
    q.add_argument("index", help=_INDEX_HELP)
    _add_pair_flags(q)
    _add_measure_flag(q)

    q = qsub.add_parser(
        "top-communities", help="the r strongest communities containing "
        "a vertex, ranked by level",
    )
    q.add_argument("index", help=_INDEX_HELP)
    q.add_argument("-v", required=True, help="vertex label")
    q.add_argument("-r", type=int, required=True,
                   help="how many communities to return")
    _add_measure_flag(q)

    q = qsub.add_parser(
        "critical-vertices", help="vertices whose removal drops a "
        "vertex's level-k component apart at level k+1",
    )
    q.add_argument("index", help=_INDEX_HELP)
    q.add_argument("-v", required=True, help="vertex label")
    q.add_argument("-k", type=int, required=True, help="hierarchy level")
    _add_measure_flag(q)

    q = qsub.add_parser(
        "cohesion-strength", help="max shared level of a pair under "
        "every persisted measure at once",
    )
    q.add_argument("index", help=_INDEX_HELP)
    _add_pair_flags(q)

    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "serve", help="HTTP JSON service over saved hierarchy indexes",
        epilog="examples: repro serve web=web.kvccidx; "
        "repro serve youtube=name:youtube --build-missing (hierarchy "
        "built and cached on first boot); then curl "
        f"'http://127.0.0.1:{DEFAULT_PORT}/v1/web/vcc-number?v=42' or "
        "batch with repeated params: '...?v=1&v=2&v=3'",
    )
    p.add_argument(
        "datasets", nargs="+", type=_serve_spec, metavar="NAME=TARGET",
        help="one or more index files from 'hierarchy --save-index' - "
        "or, with --build-missing, dataset tokens (path / file:PATH / "
        "name:NAME) to materialize; a bare target serves under the "
        "file's stem or the dataset's short name",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"TCP port (default {DEFAULT_PORT}; 0 = ephemeral)",
    )
    p.add_argument(
        "--capacity", type=int, default=8, metavar="N",
        help="max indexes resident at once (LRU evicts beyond this)",
    )
    p.add_argument(
        "--preload", action="store_true",
        help="load every dataset up front instead of on first query, "
        "failing fast on unreadable files",
    )
    p.add_argument(
        "--build-missing", action="store_true",
        help="targets that are not existing index files are resolved "
        "as dataset tokens; their hierarchy index is built once and "
        "cached under the cache dir's indexes/ tier",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache root for --build-missing (default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro)",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="log every request to stderr",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("experiments", help="run the paper's experiments")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI dispatch; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
