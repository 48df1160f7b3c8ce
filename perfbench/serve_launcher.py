"""Run ``repro serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py [--cpus 0] [--trace-out SPANS.json] \\
        -- serve NAME=TARGET ... --port 0

Pins itself to ``--cpus``, installs the span-recording shims when
``--trace-out`` is given, then hands the remaining arguments to
``repro.cli.main``.  When the server stops (SIGINT), the spans are
written to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cpus", default="",
                        help="comma-separated CPUs to pin the server to")
    parser.add_argument("--trace-out", default="")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from repro import cli

    tracer = None
    if args.trace_out:
        import repro.service  # noqa: F401  (load every layer to patch)
        import tracing

        tracer = tracing.Tracer()
        tracer.install(
            tracing.OFFLINE_FUNCTIONS + tracing.SERVER_FUNCTIONS,
            tracing.OFFLINE_METHODS + tracing.SERVER_METHODS,
        )
    try:
        return cli.main(command)
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
