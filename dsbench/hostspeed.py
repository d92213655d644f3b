"""Pinned CPUs kept busy by calibrating spinners, and the host speed they saw.

In a closed loop with one connection the client and the server take
turns, so a CPU idles between every request and response.  On a virtual
machine the host is slow to run an idle virtual CPU again: measured on a
2-core VM, 20-26% of the window was steal time and throughput varied by
30% between identical runs.  With the CPUs kept busy by a spinner at the
lowest priority, steal fell to 1-4%; a nice-19 spinner yields to the
client and the server whenever they can run.

The same VM's CPUs also change speed on a scale of seconds: the CPU time a
fixed loop takes moved between 4.1 and 6.3 ms on one CPU within half a
minute while the other held 6.7 ms, and a run's figures followed.  So each
spinner also times every chunk of its loop in its own thread CPU time,
which counts only while it runs and so measures how fast that CPU executes
pure-Python code at that moment, whatever else is scheduled.  The
benchmark divides each time it measures by how slow the CPUs that did the
work were at that moment (:meth:`HostSpeed.slowdown`): reported times are
in *reference* seconds, the time the work would have taken on a CPU that
runs one chunk in :data:`REFERENCE_CHUNK_NS`.
"""

from __future__ import annotations

import array
import bisect
import os
import statistics
import subprocess
import sys
from contextlib import contextmanager

#: Iterations of the spinner's empty loop per timed chunk (about 1 ms).
CHUNK = 20_000
#: The chunk time, in thread CPU nanoseconds, of the reference CPU.  Any
#: fixed number would do; this is about what one chunk takes on the
#: 2-core VM the benchmark was tuned on, so reported times are close to
#: raw ones there.
REFERENCE_CHUNK_NS = 1_200_000
#: Chunk samples one speed reading wants; a shorter interval is widened
#: on both sides until it holds this many.
MIN_SAMPLES = 9
#: A long interval is corrected slice by slice: the speed switched
#: between two levels about 1.8x apart within seconds, so one median over
#: a whole set-up would take the majority level for all of it.
SLICE_NS = 100_000_000

_SPINNER = f"""
import array, os, signal, sys, time
os.sched_setaffinity(0, {{int(sys.argv[1])}})
os.nice(19)
parent = os.getppid()
stopped = []
signal.signal(signal.SIGTERM, lambda *_: stopped.append(1))
samples = array.array("q")
clock, cpu = time.monotonic_ns, time.thread_time_ns
while not stopped and os.getppid() == parent:
    started = cpu()
    for _ in range({CHUNK}):
        pass
    samples.append(clock())
    samples.append(cpu() - started)
sys.stdout.buffer.write(samples.tobytes())
"""


class HostSpeed:
    """Per-CPU chunk times the spinners recorded, by monotonic time."""

    def __init__(self):
        #: cpu -> (sorted end times in ns, chunk CPU times in ns)
        self.samples: dict[int, tuple[list, list]] = {}

    def add(self, cpu: int, raw: bytes) -> None:
        values = array.array("q")
        values.frombytes(raw)
        self.samples[cpu] = (list(values[0::2]), list(values[1::2]))

    def slowdown(self, cpu: int, start_ns: int, end_ns: int) -> float:
        """How slow ``cpu`` ran over ``[start_ns, end_ns]`` relative to the
        reference CPU: above 1 is slower.  A duration measured on that CPU
        divided by it is in reference time."""
        times, costs = self.samples[cpu]
        if len(costs) < MIN_SAMPLES:
            raise RuntimeError(f"the spinner on CPU {cpu} recorded only"
                               f" {len(costs)} chunks")
        low = bisect.bisect_left(times, start_ns)
        high = bisect.bisect_right(times, end_ns)
        while high - low < MIN_SAMPLES:
            low, high = max(low - 1, 0), min(high + 1, len(times))
        return statistics.median(costs[low:high]) / REFERENCE_CHUNK_NS

    def blended(self, cpu_seconds: dict, start_ns: int, end_ns: int) -> float:
        """The slowdown of work that spent ``cpu_seconds[cpu]`` on each CPU:
        the CPU-time-weighted harmonic mean, so that a duration divided by
        it is the sum of each CPU's share in reference time."""
        total = sum(cpu_seconds.values())  # keys: CPU numbers
        if total <= 0:
            cpu_seconds, total = dict.fromkeys(cpu_seconds, 1.0), len(cpu_seconds)
        return total / sum(seconds / self.slowdown(cpu, start_ns, end_ns)
                           for cpu, seconds in cpu_seconds.items())

    def speedup(self, cpu_seconds: dict, start_ns: int, end_ns: int) -> float:
        """The mean of 1 / :meth:`blended` over ``[start_ns, end_ns]``,
        slice by slice (SLICE_NS): a CPU-busy duration over the interval
        times this is in reference time."""
        total = 0.0
        for edge in range(start_ns, end_ns, SLICE_NS):
            stop = min(edge + SLICE_NS, end_ns)
            total += (stop - edge) / self.blended(cpu_seconds, edge, stop)
        return total / (end_ns - start_ns)

    def reference_seconds(self, cpu_seconds: dict, start_ns: int, end_ns: int) -> float:
        """The wall interval ``[start_ns, end_ns]`` in reference seconds,
        for work that spent ``cpu_seconds[cpu]`` on each CPU.  Only the
        CPU-busy share is rescaled; time in which the work waited on
        neither CPU (disk, process start) stays as measured."""
        wall = (end_ns - start_ns) / 1e9
        busy = min(sum(cpu_seconds.values()), wall)
        return wall - busy + busy * self.speedup(cpu_seconds, start_ns, end_ns)

    def summary(self) -> str:
        return "; ".join(
            f"CPU {cpu}: {len(costs)} chunks, median {statistics.median(costs) / 1e6:.3f} ms"
            f" (p10 {statistics.quantiles(costs, n=10)[0] / 1e6:.3f},"
            f" p90 {statistics.quantiles(costs, n=10)[-1] / 1e6:.3f})"
            for cpu, (_, costs) in sorted(self.samples.items()) if len(costs) > 1)


@contextmanager
def pinned_busy_cpus():
    """Pin this process to one CPU, keep every CPU busy with a calibrating
    spinner while the block runs, and yield ``(client_cpu, server_cpu,
    speed)``.  ``speed`` is filled in when the block ends.

    With two CPUs the client and the server get one each, so the loop's
    two processes never migrate or share a CPU; pinning took another 10%
    off the server's CPU time per request.
    """
    cpus = sorted(os.sched_getaffinity(0))
    client, server = (cpus[0], cpus[1]) if len(cpus) > 1 else (cpus[0], cpus[0])
    spinners = {
        cpu: subprocess.Popen([sys.executable, "-c", _SPINNER, str(cpu)],
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        for cpu in cpus
    }
    speed = HostSpeed()
    os.sched_setaffinity(0, {client})
    try:
        yield client, server, speed
    finally:
        os.sched_setaffinity(0, cpus)
        for spinner in spinners.values():
            spinner.terminate()
        for cpu, spinner in spinners.items():
            raw, _ = spinner.communicate()
            speed.add(cpu, raw)
