"""CPU-speed probe: scale timings to a reference speed.

On a virtual machine whose cores are shared with other tenants' work
(such as the 2-vCPU Xeon machine the reference below comes from), a
core runs at full speed or, while a neighbour keeps its sibling
hyperthread busy, at about 60% of it, flipping every second or so, and
the busy share drifts over minutes; raw wall times of identical runs
differ by 20-40%.  So every time the benchmark reports is taken at a
reference speed: a fixed pure-Python loop (:func:`probe`) is timed in
thread CPU time on the CPU doing the work, and

    speed = REFERENCE_S / probe time        (1.0 on an idle core)
    reported time = measured time * speed

Offline workloads sample the core under the main thread from a timer
signal (:class:`Sampler`); for the serving workloads :func:`main` is a
probe process that samples the server's CPUs at a low duty cycle.  Raw
times are printed next to the scaled ones.

The scaling is sound only for work that runs on the probed core alone.
Work spread over several cores (threads, pool workers) can slow the
probed core itself, from a sibling hyperthread, and scaling would take
that slowdown back out and credit the spread with speed it did not
deliver.  So :meth:`Sampler.timed` reports the raw time of any call
that used more CPU than the main thread.  The serving workloads cannot
make that check: the load generator's CPU share grows with the server's
throughput, so on a host that maps the two onto sibling hyperthreads a
server-side gain reads somewhat larger than it is.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import time
from typing import List, Sequence, Tuple

#: Loop iterations of one probe, and its CPU time on an idle core of
#: the reference host (an Intel Xeon vCPU at 2.0 GHz, CPython 3.11).
LOOPS = 10_000
REFERENCE_S = 0.0006

#: Seconds between probes: from the offline :class:`Sampler` (about 1%
#: of the main thread), and from the probe process beside a server
#: (about 2% of one CPU).
SAMPLER_INTERVAL = 0.05
PROBE_INTERVAL = 0.025

#: CPU the process tree may use beyond the main thread, as a share of
#: the main thread's, before a call counts as spread over several cores.
PARALLEL_SLACK = 0.05


def probe() -> float:
    """Thread CPU seconds of one fixed loop (time spent preempted does
    not count, so only the core's speed shows)."""
    started = time.thread_time()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.thread_time() - started


def mean_speed(samples: Sequence[Tuple[int, float]], start_ns: int,
               end_ns: int) -> float:
    """Mean speed of the probe samples taken inside a window, or of the
    last one before its end when the window is shorter than the
    sampling interval."""
    inside = [REFERENCE_S / p for t, p in samples if start_ns <= t <= end_ns]
    if not inside:
        before = [p for t, p in samples if t <= end_ns]
        if not before:
            raise RuntimeError("no speed samples before the window ends")
        inside = [REFERENCE_S / before[-1]]
    return sum(inside) / len(inside)


def tree_cpu_seconds() -> float:
    """CPU seconds of every thread of this process plus the children it
    has reaped (a process pool shut down inside a call counts)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Sampler:
    """Probe the speed of the core running the main thread every
    :data:`SAMPLER_INTERVAL` seconds, from a ``SIGALRM`` handler, while
    active.

    The handler runs between bytecodes on whichever core the (unpinned)
    main thread is on, so the samples follow the work.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[int, float]] = [
            (time.perf_counter_ns(), min(probe(), probe(), probe()))
        ]
        #: Calls reported raw because they used more than one core.
        self.unscaled = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.perf_counter_ns(), probe()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLER_INTERVAL,
                         SAMPLER_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn) -> Tuple[float, float]:
        """``(raw seconds, seconds at reference speed)`` of ``fn()``;
        both are the raw time when other threads or child processes
        used more than :data:`PARALLEL_SLACK` of the main thread's CPU."""
        start = time.perf_counter_ns()
        thread = time.thread_time()
        tree = tree_cpu_seconds()
        fn()
        end = time.perf_counter_ns()
        thread = time.thread_time() - thread
        tree = tree_cpu_seconds() - tree
        raw = (end - start) / 1e9
        if tree - thread > PARALLEL_SLACK * thread:
            self.unscaled += 1
            return raw, raw
        return raw, raw * mean_speed(self.samples, start, end)


def main() -> int:
    """Sample the speed of ``--cpus`` every :data:`PROBE_INTERVAL`
    seconds until SIGINT or SIGTERM, then write
    ``[[perf_counter_ns, probe_s], ...]``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cpus", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
    stopping = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stopping.append(True))
    samples: List[Tuple[int, float]] = []
    while not stopping:
        samples.append((time.perf_counter_ns(), probe()))
        time.sleep(PROBE_INTERVAL)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
