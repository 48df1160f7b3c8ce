"""The serving workloads: ``serve`` and ``serve-write``.

A run writes its input files once, untimed.  Each set-up then builds
what ``repro serve`` needs from them in a fresh directory and boots a
server, all on the server's CPUs; ``setup_s`` is the median of three
such cold set-ups.  The last server is measured.  A traced run measures
half the window on the second (untraced) server and half on the third,
which runs under the span-recording shims.

The server is pinned to every CPU but the last and the load generator
(this process) to the last, so the client never competes with the
server for a CPU.  A :mod:`speed` probe process samples the server's
CPUs through each window (about 2% of one CPU), and read rates and
latencies are reported at the reference speed.  A window holds only the
measured traffic: warm-up writes run before it and the checks after it,
and its request counts, CPU seconds, speed samples and server spans are
all taken over the same interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from typing import Dict, List, Tuple
from urllib.parse import parse_qs, quote, urlsplit

import httpload
import inputs
import metrics
import speed
import stats
import tracing

SETUPS = 3

#: ``serve``: the KVCCCOH container's tenants and the larger KVCCIDX's.
COHESION_TENANTS, COHESION_SIZE = 4, 80
INDEX_TENANTS, INDEX_SIZE = 24, 110
#: Keep-alive read connections (at most one per CPU).
SERVE_READERS = 2
#: Queries folded into a batch ``vcc-number`` request.
BATCH = 64
#: Distinct request paths generated per run (cycled).
REQUESTS = 4096
#: Every SAMPLE_EVERY-th read is compared byte for byte in process.
SAMPLE_EVERY = 50

#: ``serve-write``: the mutable dataset and the writer's schedule.  At
#: 10 batches/s the applies take 40-50% of the server's time at
#: reference speed (over 60% on a slowed core), and writes do not
#: queue; a 10 s window already gives the 100 writes a p90 needs.
#: Tenants share one shape so the cost of a write does not depend on
#: which tenants the seed's batches hit.
WRITE_TENANTS, WRITE_SIZE = 24, 40
WRITE_RATE = 10.0


def run(ctx) -> dict:
    server_cpus, client_cpus = httpload.cpu_split()
    if client_cpus is None:
        ctx.log("note: one CPU only; server and load generator share it")
    workload = Serve(ctx) if ctx.workload == "serve" else ServeWrite(ctx)
    return workload.run(server_cpus, client_cpus)


def _quiet_cli(argv: List[str]) -> None:
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro {argv[0]} exited {code}")


class _Workload:
    """Shared set-up, measurement and reporting of both workloads."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0

    # -- to override ---------------------------------------------------
    def generate(self, directory: str) -> None:
        """Write the run's input files into ``directory`` and set
        ``self.digest`` (once per run, untimed)."""
        raise NotImplementedError

    def setup_once(self, server_cpus, trace_out: str):
        raise NotImplementedError

    def warm(self, server, seconds: float) -> None:
        """Traffic a server needs before a measured window (untimed)."""

    def window(self, server, seconds: float):
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the request stream (after set-up, outside its timing)."""

    # ------------------------------------------------------------------
    def run(self, server_cpus, client_cpus) -> dict:
        ctx = self.ctx
        self.generate(ctx.fresh_dir("inputs"))
        ctx.log(f"input digest: {self.digest}")
        setup_times = []
        servers = []
        trace_out = ""
        try:
            for i in range(SETUPS):
                if ctx.trace and i == SETUPS - 1:
                    trace_out = os.path.join(ctx.workdir,
                                             "server-spans.json")
                server, seconds = self.timed_setup(server_cpus, trace_out)
                servers.append(server)
                setup_times.append(seconds)
                if i < SETUPS - (2 if ctx.trace else 1):
                    servers.pop().stop()
            ctx.log(f"setups: "
                    f"{', '.join(f'{t:.3f}s' for t in setup_times)}")
            self.prepare()
            if ctx.trace:
                plain = self.measure(servers[0], server_cpus, client_cpus,
                                     ctx.seconds / 2)
                servers.pop(0).stop()
            traced = self.measure(servers[0], server_cpus, client_cpus,
                                  ctx.seconds / 2 if ctx.trace
                                  else ctx.seconds)
            self.check(servers[0])
        finally:
            for server in servers:
                server.stop()
        e2e = self.end_to_end(traced)
        e2e["setup_s"] = stats.median(setup_times)
        ctx.log(f"counters: {json.dumps(self.counters, sort_keys=True)}")
        for name, unit, _ in metrics.END_TO_END:
            ctx.log(f"  {name:20s} {e2e[name]:12.4f} {unit}")
        layers = {}
        if ctx.trace:
            layers = self.layers(plain, traced, trace_out)
        return metrics.result(ctx, self.attempted, self.failed, e2e, layers)

    def timed_setup(self, server_cpus, trace_out: str):
        """One set-up on the server's CPUs, in seconds at reference
        speed (builds run in this process, so it moves there too)."""
        own = os.sched_getaffinity(0)
        cpus = server_cpus or sorted(own)
        probe = httpload.SpeedProbe(
            cpus, os.path.join(self.ctx.workdir,
                               f"speed-{time.time_ns()}.json"),
        )
        os.sched_setaffinity(0, cpus)
        try:
            start_ns = time.perf_counter_ns()
            server = self.setup_once(server_cpus, trace_out)
            end_ns = time.perf_counter_ns()
        finally:
            os.sched_setaffinity(0, own)
            samples = probe.stop()
        raw = (end_ns - start_ns) / 1e9
        return server, raw * speed.mean_speed(samples, start_ns, end_ns)

    def measure(self, server, server_cpus, client_cpus,
                seconds: float) -> dict:
        """One load window after :meth:`warm`: requests, both processes'
        CPU seconds and the server CPUs' mean speed, all over the same
        interval."""
        own = os.sched_getaffinity(0)
        probe = httpload.SpeedProbe(
            server_cpus or sorted(own),
            os.path.join(self.ctx.workdir, f"speed-{time.time_ns()}.json"),
        )
        if client_cpus:
            os.sched_setaffinity(0, client_cpus)
        try:
            self.warm(server, seconds)
            server_cpu = server.cpu_seconds()
            client_cpu = time.process_time()
            start_ns = time.perf_counter_ns()
            reads, writes, _ = self.window(server, seconds)
            end_ns = time.perf_counter_ns()
            client_cpu = time.process_time() - client_cpu
            server_cpu = server.cpu_seconds() - server_cpu
        finally:
            os.sched_setaffinity(0, own)
            samples = probe.stop()
        wall = (end_ns - start_ns) / 1e9
        rate = speed.mean_speed(samples, start_ns, end_ns)
        latencies = [r.latency for r in reads]
        window = {
            "reads": reads, "writes": writes, "wall": wall,
            "start_ns": start_ns, "end_ns": end_ns, "speed": rate,
            "raw_rps": len(reads) / wall,
            "read_rps": len(reads) / wall / rate,
            "raw_p50_ms": stats.percentile(latencies, 500) * 1e3,
            "read_p50_ms": stats.percentile(latencies, 500) * 1e3 * rate,
            "read_p99_ms": stats.tail(latencies, 990) * 1e3 * rate,
            "server_busy": server_cpu / wall,
            "client_busy": client_cpu / wall,
            "rss_mb": server.vm_hwm_mb(),
        }
        self.attempted += len(reads) + len(writes)
        self.failed += sum(r.status != 200 for r in reads + writes)
        self.ctx.log(
            f"window {seconds:.1f}s: {len(reads)} reads "
            f"({window['raw_rps']:.0f}/s raw, server CPU speed {rate:.3f}; "
            f"at reference speed {window['read_rps']:.0f}/s, p50 "
            f"{window['read_p50_ms']:.3f} ms, p99 "
            f"{window['read_p99_ms']:.3f} ms), {len(writes)} writes; "
            f"server cpu {window['server_busy']:.0%}, generator cpu "
            f"{window['client_busy']:.0%}"
        )
        if window["client_busy"] > 0.9:
            self.ctx.log("warning: the load generator was CPU-bound; "
                         "the run measured the client, not the server")
        return window

    def server_layers(self, plain, traced, trace_out) -> Tuple[
            Dict[str, float], tracing.Summary]:
        """Per-layer numbers from the traced server's spans that lie
        inside the window."""
        spans = [s for s in tracing.load_spans(trace_out)
                 if traced["start_ns"] <= s[2] and s[3] <= traced["end_ns"]]
        summary = tracing.Summary(spans)
        wall = traced["wall"]
        layers = metrics.layer_metrics(summary, 1, wall)
        handler_p50_us = metrics.p50_us(summary, "service.handlers.request")
        layers.update({
            "service.handlers.us_p50": handler_p50_us,
            "service.schema.validate_us":
                metrics.p50_us(summary, "service.schema.validate"),
            "index.query.us_p50": metrics.p50_us(summary, "index.query"),
            "service.handlers.render_us":
                metrics.p50_us(summary, "service.handlers.render"),
            "service.registry.get_us":
                metrics.p50_us(summary, "service.registry.get"),
            "index.delta.replay_ms":
                metrics.p50_us(summary, "index.delta.replay") / 1e3,
            "service.server.overhead_ms":
                traced["raw_p50_ms"] - handler_p50_us / 1e3,
            "service.server.cpu_busy": traced["server_busy"],
            "serve.read_p50_ms": traced["read_p50_ms"],
            "serve.read_p99_ms": traced["read_p99_ms"],
            "loadgen.cpu_busy": traced["client_busy"],
            "host.cpu_speed": traced["speed"],
            # Time per read, traced over untraced.
            "trace.overhead_ratio": plain["read_rps"] / traced["read_rps"],
        })
        self.ctx.log(f"server self time in the traced window "
                     f"({wall:.3f}s wall):")
        for row in summary.table(wall):
            self.ctx.log(row)
        self.ctx.write_trace("repro serve", spans)
        return layers, summary

    def registry_layers(self, health: dict) -> Dict[str, float]:
        lookups = health["hits"] + health["loads"] + health["reloads"]
        return {
            "service.registry.hit_ratio": metrics.ratio(health["hits"],
                                                        lookups),
            "service.registry.reloads": health["reloads"],
        }

    def compare_sample(self, reads, datasets: Dict[str, str]) -> None:
        """Byte-compare a sample of served answers with in-process
        ``handle_request`` + ``render_json`` over the same files."""
        from repro.service import IndexRegistry
        from repro.service.handlers import handle_request, render_json

        registry = IndexRegistry()
        for name, path in datasets.items():
            registry.register(name, path)
        checked = mismatched = 0
        for request in reads[::SAMPLE_EVERY]:
            url = urlsplit(request.path)
            _, payload = handle_request(registry, url.path,
                                        parse_qs(url.query))
            checked += 1
            mismatched += render_json(payload) != request.body
        self.attempted += checked
        self.failed += mismatched
        self.ctx.log(f"byte-compared {checked} sampled answers: "
                     f"{mismatched} differ")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Serve(_Workload):
    """Zipf-skewed mixed reads from two keep-alive connections."""

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.cohesion_builds: List[float] = []

    def generate(self, directory):
        self.sources = {}
        for name, tenants, size in (("coh", COHESION_TENANTS, COHESION_SIZE),
                                    ("idx", INDEX_TENANTS, INDEX_SIZE)):
            edges, _ = inputs.tenant_graph(self.ctx.seed, tenants, size)
            self.sources[name] = os.path.join(directory, f"{name}.txt")
            inputs.write_edge_list(self.sources[name], edges)
        self.digest = inputs.file_digest(*self.sources.values())

    def setup_once(self, server_cpus, trace_out):
        directory = self.ctx.fresh_dir("serve-setup")
        cache = os.path.join(directory, "cache")
        self.files = {
            "coh": os.path.join(directory, "coh.kvcccoh"),
            "idx": os.path.join(directory, "idx.kvccidx"),
        }
        t0 = time.perf_counter()
        _quiet_cli(["build-cohesion", self.sources["coh"], "--out",
                    self.files["coh"], "--cache-dir", cache])
        self.cohesion_builds.append(time.perf_counter() - t0)
        _quiet_cli(["hierarchy", self.sources["idx"], "--save-index",
                    self.files["idx"], "--cache-dir", cache])
        return httpload.ServerProcess(
            ["serve", *(f"{n}={p}" for n, p in self.files.items()),
             "--port", "0", "--preload", "--cache-dir", cache],
            directory, server_cpus, trace_out,
        )

    def prepare(self) -> None:
        """The seeded request sequence: the ten read kinds the service
        offers (v1 scalar and batch lookups, v2 per-measure reads and
        the derived products) in equal shares, with Zipf-skewed keys.
        No recorded traffic of this service exists to weight them by."""
        from repro.index import load_any_index

        rng = random.Random(self.ctx.seed)
        idx = load_any_index(self.files["idx"])
        coh = load_any_index(self.files["coh"])
        idx_keys = inputs.ZipfKeys(idx.labels, rng)
        coh_keys = inputs.ZipfKeys(coh.index_for("kvcc").labels, rng)
        idx_top = idx.max_k
        coh_top = {m: coh.index_for(m).max_k for m in coh.measures}

        def level(top):
            return rng.randint(1, max(1, top))

        makers = (
            lambda: f"/v1/idx/vcc-number?v={idx_keys.draw()}",
            lambda: "/v1/idx/vcc-number?" + "&".join(
                f"v={idx_keys.draw()}" for _ in range(BATCH)),
            lambda: (f"/v1/idx/components-of?v={idx_keys.draw()}"
                     f"&k={level(idx_top)}"),
            lambda: (f"/v1/idx/same-kvcc?u={idx_keys.draw()}"
                     f"&v={idx_keys.draw()}&k={level(idx_top)}"),
            lambda: (f"/v1/idx/max-shared-level?u={idx_keys.draw()}"
                     f"&v={idx_keys.draw()}"),
            lambda: f"/v2/coh/kecc/vcc-number?v={coh_keys.draw()}",
            lambda: (f"/v2/coh/kcore/components-of?v={coh_keys.draw()}"
                     f"&k={level(coh_top['kcore'])}"),
            lambda: f"/v2/coh/kvcc/top-communities?v={coh_keys.draw()}&r=3",
            lambda: (f"/v2/coh/kvcc/critical-vertices?v={coh_keys.draw()}"
                     f"&k={level(coh_top['kvcc'])}"),
            lambda: (f"/v2/coh/cohesion-strength"
                     f"?pair={coh_keys.draw()}:{coh_keys.draw()}"),
        )
        self.paths = []
        for _ in range(REQUESTS):
            path = rng.choice(makers)()
            self.paths.append((path, httpload.encode_get(path)))

    def window(self, server, seconds):
        counter = iter(range(1 << 62))
        paths = self.paths

        def next_read():
            return paths[next(counter) % len(paths)]

        return httpload.drive(server.address, SERVE_READERS, next_read,
                              seconds)

    def check(self, server) -> None:
        self.health = httpload.fetch_json(server.address, "/healthz")
        datasets = httpload.fetch_json(server.address, "/datasets")
        self.counters = {
            d["name"]: {"nodes": d["nodes"], "vertices": d["vertices"]}
            for d in datasets["datasets"]
        }

    def end_to_end(self, window) -> Dict[str, float]:
        self.compare_sample(window["reads"], self.files)
        return {
            "rss_peak_mb": window["rss_mb"],
            "throughput_per_s": window["read_rps"],
            "latency_p50_ms": window["read_p50_ms"],
            "latency_tail_ms": window["read_p99_ms"],
        }

    def layers(self, plain, traced, trace_out) -> Dict[str, float]:
        layers, _ = self.server_layers(plain, traced, trace_out)
        layers.update(self.registry_layers(self.health))
        layers["index.cohesion.build_s"] = stats.median(self.cohesion_builds)
        return layers


# ----------------------------------------------------------------------
# serve-write
# ----------------------------------------------------------------------
class ServeWrite(_Workload):
    """One uniform closed-loop reader plus an open-loop writer."""

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.warm_writes = []

    def generate(self, directory):
        self.source = os.path.join(directory, "dyn.txt")
        self.edges, self.ranges = inputs.tenant_graph(
            self.ctx.seed, WRITE_TENANTS, WRITE_SIZE, mixed=False
        )
        inputs.write_edge_list(self.source, self.edges)
        self.digest = inputs.file_digest(self.source)
        self.labels = sorted({v for edge in self.edges for v in edge})

    def setup_once(self, server_cpus, trace_out):
        directory = self.ctx.fresh_dir("serve-write-setup")
        return httpload.ServerProcess(
            ["serve", f"dyn={self.source}", "--build-missing", "--port",
             "0", "--preload", "--cache-dir",
             os.path.join(directory, "cache")],
            directory, server_cpus, trace_out,
        )

    def warm(self, server, seconds):
        """Seed this window's batches and send batch 0 ahead of it: the
        server builds its updater lazily on the first batch.  The warm
        write is checked, not timed."""
        self.batches = inputs.tenant_mutations(
            self.ctx.seed, self.edges, self.ranges,
            int(round(WRITE_RATE * seconds)) + 1,
        )
        self.encoded = [("/v1/dyn/edges",
                         httpload.encode_post("/v1/dyn/edges",
                                              {"mutations": batch}))
                        for batch in self.batches]
        _, warm, _ = httpload.drive(server.address, 0, None, 0,
                                    self.encoded[:1], 1e9)
        self.warm_writes.extend(warm)

    def window(self, server, seconds):
        rng = random.Random(self.ctx.seed)
        labels = self.labels

        def next_read():
            path = f"/v1/dyn/vcc-number?v={rng.choice(labels)}"
            return path, httpload.encode_get(path)

        return httpload.drive(server.address, 1, next_read, seconds,
                              self.encoded[1:], WRITE_RATE)

    def check(self, server) -> None:
        """Every served answer equals a from-scratch build of the
        mirrored graph (the check ``scripts/mutation_smoke.py`` does)."""
        from repro.graph.graph import Graph
        from repro.index import HierarchyQueryService, build_index
        from repro.service.handlers import QUERY_ENDPOINTS

        mirror = Graph(self.edges)
        for batch in self.batches:
            for m in batch:
                if m["op"] == "insert":
                    mirror.add_edge(m["u"], m["v"])
                else:
                    mirror.remove_edge(m["u"], m["v"])
        service = HierarchyQueryService(build_index(mirror))
        tokens = [str(v) for v in sorted(mirror.vertices())]
        checked = differ = 0
        for i in range(0, len(tokens), BATCH):
            chunk = tokens[i:i + BATCH]
            query = "&".join(f"v={quote(t)}" for t in chunk)
            served = httpload.fetch_json(server.address,
                                         f"/v1/dyn/vcc-number?{query}")
            expected = QUERY_ENDPOINTS["vcc-number"](service, {"v": chunk})
            checked += 1
            differ += served != expected
        rng = random.Random(self.ctx.seed)
        for token in rng.sample(tokens, 8):
            for k in range(1, service.index.max_k + 2):
                served = httpload.fetch_json(
                    server.address,
                    f"/v1/dyn/components-of?v={quote(token)}&k={k}",
                )
                expected = QUERY_ENDPOINTS["components-of"](
                    service, {"v": [token], "k": [str(k)]}
                )
                checked += 1
                differ += served != expected
        warm = self.warm_writes
        self.attempted += checked + len(warm)
        self.failed += differ + sum(w.status != 200 for w in warm)
        self.ctx.log(f"rebuild check: {checked} answers, {differ} differ "
                     f"from a from-scratch build of the mirrored graph")
        self.health = httpload.fetch_json(server.address, "/healthz")
        datasets = httpload.fetch_json(server.address, "/datasets")
        self.index_path = datasets["datasets"][0]["path"]
        self.index_nodes = datasets["datasets"][0]["nodes"]

    def end_to_end(self, window) -> Dict[str, float]:
        summaries = [json.loads(w.body) for w in window["writes"]]
        self.failed += sum(
            s.get("applied") != inputs.WRITE_BATCH_EDGES for s in summaries
        )
        latencies = [w.latency * window["speed"] for w in window["writes"]]
        lateness = [w.late for w in window["writes"]]
        changed = sum(s["nodes_added"] + s["nodes_removed"]
                      + s["nodes_reparented"] for s in summaries)
        self.counters = {
            "writes": len(summaries),
            "delta_nodes_changed": changed,
            "index_nodes": self.index_nodes,
        }
        from repro.index.delta import delta_log_path

        self.write_layers = {
            "index.delta.apply_ms_p50": stats.percentile(
                [s["elapsed_seconds"] for s in summaries], 500) * 1e3,
            "index.delta.nodes_changed": changed / len(summaries),
            "index.delta.log_bytes":
                os.path.getsize(delta_log_path(self.index_path)),
            "loadgen.write_late_p99_ms": stats.tail(lateness, 990) * 1e3,
        }
        # The reader gets the server time the writer's applies leave, and
        # on a slow core the fixed-rate applies take a larger share of
        # it, so read rate falls faster than the core speed and scaling
        # alone cannot steady it.  Reads per second of server time left
        # beside the applies, at reference speed, is the read capacity.
        apply_share = sum(s["elapsed_seconds"] for s in summaries) / (
            window["wall"]
        )
        read_capacity = window["raw_rps"] / (1 - apply_share) / (
            window["speed"]
        )
        self.ctx.log(
            f"writes: {len(latencies)} at {WRITE_RATE:g}/s, at reference "
            f"speed p50 "
            f"{stats.percentile(latencies, 500) * 1e3:.2f} ms, p90 "
            f"{stats.tail(latencies, 900) * 1e3:.2f} ms from due time, "
            f"generator late p99 "
            f"{self.write_layers['loadgen.write_late_p99_ms']:.3f} ms; "
            f"applies {apply_share:.1%} of the window, read capacity "
            f"beside them {read_capacity:.0f}/s"
        )
        return {
            "rss_peak_mb": window["rss_mb"],
            "throughput_per_s": read_capacity,
            "latency_p50_ms": stats.percentile(latencies, 500) * 1e3,
            "latency_tail_ms": stats.tail(latencies, 900) * 1e3,
        }

    def layers(self, plain, traced, trace_out) -> Dict[str, float]:
        layers, summary = self.server_layers(plain, traced, trace_out)
        layers.update(self.registry_layers(self.health))
        layers.update(self.write_layers)
        own = tracing.self_times(summary.spans)
        # The manager's self time is its lock wait: the updater's work
        # is a child span, and its lazy construction ran at warm-up.
        waits = [own[span[0]] for span in summary.spans
                 if span[1] == "service.mutation.apply"]
        layers["service.mutation.wait_ms"] = (
            stats.percentile(waits, 500) / 1e6 if waits else 0.0
        )
        return layers
