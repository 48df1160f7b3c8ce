"""One benchmark for the whole k-VCC pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 15 \\
        --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

``enumerate``    serial KVCC-ENUM over the seven registry stand-ins at
                 their ``scaled_k_values`` grid (the paper's Fig. 10).
``build``        a cold ``repro hierarchy FILE --save-index`` build.
``serve``        a closed read loop against ``repro serve``.
``serve-write``  one reader plus an open-loop writer of tenant-local
                 edge batches against ``repro serve --build-missing``.

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` also runs with span-recording shims on every layer, prints
the per-layer metrics, and writes a Chrome trace-event file under
``.perfbench_out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("enumerate", "build", "serve", "serve-write")


class Context:
    """Per-run settings plus the scratch space every workload writes to.

    Everything the run writes lives under ``.perfbench_work/`` in the
    checkout and is removed when the run ends; only the trace file
    under ``.perfbench_out/`` is kept.
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = os.path.join(
            ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}"
        )
        self.outdir = os.path.join(ROOT, ".perfbench_out")
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{self._dirs:02d}-{label}")
        os.makedirs(path)
        return path

    def write_trace(self, process: str, spans) -> None:
        """Write spans as a Chrome trace-event file under the out dir."""
        import tracing

        os.makedirs(self.outdir, exist_ok=True)
        path = os.path.join(
            self.outdir, f"trace-{self.workload}-{self.seed}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracing.chrome_trace({process: spans}), handle)
        self.log(f"trace: {os.path.relpath(path)} ({len(spans)} spans)")

    def log(self, line: str = "") -> None:
        print(line, flush=True)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError(f"no VmHWM for process {pid}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the k-VCC pipeline on one workload."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(ctx.workdir)
    # Every cache the program would otherwise keep under ~/.cache.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(ctx.workdir, "cache")
    try:
        if args.workload in ("enumerate", "build"):
            import offline as module
        else:
            import serving as module
        result = module.run(ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
