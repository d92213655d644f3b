"""The dataspace benchmark: one ``imprecise serve --http`` server, one client.

    python3 dsbench/run.py --workload warm_serve --seed 1 --seconds 10 --trace 0

Run from the root of a repository checkout.  With ``--trace 0`` it sets the
workload up three times (``setup_s`` is the median), runs the closed loop on
each set-up for a third of ``--seconds`` and prints the end-to-end metrics,
every time in reference seconds (see ``hostspeed``).  With ``--trace 1`` it
replays a fixed number of operations on two servers at once, one plain and
one whose layers are wrapped by ``traced_serve.py``, sending each operation
to both in turn, and prints the per-layer metrics.  Either way every served answer is checked against an in-process
reference afterwards, no operation may fail, and the workload's
self-checks must hold; the last line of standard output is one JSON
object, and the exit status is 0 only when everything was correct.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from server import HASH_SEED

#: Set-ups per untraced run, each serving an equal share of the window;
#: ``setup_s`` reports their median.
SETUPS = 3
#: Each latency is corrected by the host speed the spinners saw from this
#: long before the request to this long after its answer.
SPEED_HALO_NS = 100_000_000
WORKLOAD_NAMES = ("warm_serve", "cold_price", "feedback_cycle")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tail(latencies: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    count = len(latencies)
    if count < 11:
        return f"latency tail: too few samples ({count}) for a tail percentile"
    ordered = sorted(latencies)
    percentile = 100.0 * (count - 10) / count
    return (f"latency tail: p{percentile:.1f} = {ordered[count - 11] * 1e3:.3f} ms"
            f" ({count} samples, 10 beyond)")


def _check(reference, deployment, records, delta, after, seed) -> list:
    workload = deployment.workload
    problems = workload.self_check(delta, after, records)
    for key in ("persistent_busy_retries", "cache_write_failures"):
        if delta.get(key, 0):
            problems.append(f"{delta[key]} {key} (expected 0)")
    mismatches, enumerated = reference.check(
        workload.texts, deployment.primed + records,
        memoize=workload.answers_repeat, seed=seed)
    print(f"reference: {len(deployment.primed) + len(records)} answers compared,"
          f" {enumerated} also against world enumeration, {len(mismatches)} mismatches")
    return problems + mismatches


def _split(cpus, client_s: float, server_s: float) -> dict:
    """CPU seconds by CPU number (one key when client and server share)."""
    client, server = cpus
    split = {client: client_s}
    split[server] = split.get(server, 0.0) + server_s
    return split


def _untraced(args, root: Path, work: Path, cpus, harness, reference, workload_class):
    # Each set-up serves a third of the window, so one run's figures
    # average three server processes at three moments rather than one,
    # and each draws its own inputs from the seed, so they average three
    # input streams too.
    deployments, windows, problems = [], [], []
    for index in range(SETUPS):
        deployment = harness.Deployment(workload_class, f"{args.seed}.{index}",
                                        args.seconds, root, work / f"setup{index}",
                                        server_cpus={cpus[1]})
        deployments.append(deployment)
        try:
            before = deployment.stats()
            window = harness.timed_window(deployment, args.seconds / SETUPS)
            after = deployment.stats()
        finally:
            deployment.close()
        windows.append(window)
        problems += _check(reference, deployment, window.records,
                           harness.stats_delta(before, after), after, args.seed)
    records = [record for window in windows for record in window.records]
    failed = sum(1 for r in records if r.failed)
    if failed:
        problems.append(f"{failed} of {len(records)} operations failed (expected 0)")
    return records, failed, problems, (deployments, windows)


def _reference_latency(speed, split: dict, busy: float, record) -> float:
    """A record's latency in reference seconds; ``busy`` is the share of
    it the CPUs worked (the rest, waiting on neither, is not rescaled)."""
    slowdown = speed.blended(
        split, record.started - SPEED_HALO_NS,
        record.started + int(record.latency * 1e9) + SPEED_HALO_NS)
    return record.latency * (1.0 - busy + busy / slowdown)


def _end_to_end(args, cpus, speed, measured) -> dict:
    """The end-to-end metrics, every time in reference seconds (see
    ``hostspeed``): the CPU-busy share of each duration is divided by the
    slowdown of the CPUs that did the work, at the moment they did it."""
    deployments, windows = measured
    server = cpus[1]
    setups, latencies, raw_latencies = [], [], []
    elapsed = server_cpu = 0.0
    completed = 0
    for deployment in deployments:
        setups.append(speed.reference_seconds(
            _split(cpus, deployment.client_cpu, deployment.server_cpu),
            deployment.start_ns, deployment.end_ns))
    for window in windows:
        split = _split(cpus, window.client_cpu, window.server_cpu)
        elapsed += speed.reference_seconds(split, window.start_ns, window.end_ns)
        server_cpu += window.server_cpu * speed.speedup(
            {server: 1.0}, window.start_ns, window.end_ns)
        busy = min(sum(split.values()) / window.elapsed, 1.0)
        for record in window.records:
            if record.failed:
                continue
            completed += 1
            raw_latencies.append(record.latency)
            latencies.append(_reference_latency(speed, split, busy, record))
    raw_elapsed = sum(window.elapsed for window in windows)
    print(f"{args.workload} seed {args.seed}: {completed} operations completed in"
          f" {raw_elapsed:.2f} s ({elapsed:.2f} reference s); set-ups"
          f" {', '.join(f'{d.seconds:.3f}' for d in deployments)} s"
          f" ({', '.join(f'{s:.3f}' for s in setups)} reference s)")
    print(f"host speed: {speed.summary()}")
    print(_tail(latencies))
    print(f"raw (not speed-corrected): ops_per_s {completed / raw_elapsed:.3f},"
          f" latency_p50_ms {statistics.median(raw_latencies) * 1e3:.3f},"
          f" server_cpu_ms_per_op"
          f" {sum(w.server_cpu for w in windows) * 1e3 / completed:.3f}")
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentiles[89] * 1e3, "ms"),
        "server_cpu_ms_per_op": (server_cpu * 1e3 / completed, "ms"),
        "server_rss_mb": (statistics.median(w.rss_mb for w in windows), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _traced(args, root: Path, work: Path, cpus, harness, reference, workload_class):
    import spans as span_io

    count = workload_class.traced_ops
    # Both replays send the same operations: the same inputs from one seed.
    seed = f"{args.seed}.0"
    span_file = work / "spans.json"
    plain = harness.Deployment(workload_class, seed, args.seconds, root,
                               work / "plain", server_cpus={cpus[1]})
    try:
        traced_run = harness.Deployment(workload_class, seed, args.seconds, root,
                                        work / "traced", server_cpus={cpus[1]},
                                        spans=span_file)
        try:
            befores = plain.stats(), traced_run.stats()
            untraced, traced, decode_ns = [], [], 0
            start = time.perf_counter_ns()
            # Each operation goes to both servers in turn, so a change of
            # host speed reaches both replays alike; which goes first
            # alternates, so neither gains from following the other.
            for index in range(count):
                if index % 2:
                    untraced.append(harness.step(plain.workload, plain.client))
                with harness.client_decode_timer() as decode:
                    traced.append(harness.step(traced_run.workload, traced_run.client))
                decode_ns += decode[0]
                if not index % 2:
                    untraced.append(harness.step(plain.workload, plain.client))
            end = time.perf_counter_ns()
            afters = plain.stats(), traced_run.stats()
        finally:
            traced_run.close()
    finally:
        plain.close()
    problems = []
    for deployment, records, before, after in zip(
            (plain, traced_run), (untraced, traced), befores, afters):
        problems += _check(reference, deployment, records,
                           harness.stats_delta(before, after), after, args.seed)
    measured = (span_io.load(span_file), (start, end), traced, untraced,
                harness.stats_delta(befores[1], afters[1]), afters[1], decode_ns)
    span_file.unlink()
    print(f"{args.workload} seed {args.seed}: traced replay of {count} operations")
    records = untraced + traced
    failed = sum(1 for r in records if r.failed)
    if failed:
        problems.append(f"{failed} of {len(records)} operations failed (expected 0)")
    return records, failed, problems, measured


def _per_layer(cpus, speed, measured) -> dict:
    import layers

    # trace.overhead_share compares two replays made at different
    # moments, so it compares them in reference time.
    split = dict.fromkeys(cpus, 1.0)
    return layers.compute(
        *measured, lambda record: _reference_latency(speed, split, 1.0, record))


def main(argv=None) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set-up integrates in this process; give it the server's fixed
        # hash order too (see server.HASH_SEED).  exec keeps the pid.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import harness
    import hostspeed
    import reference
    from workloads import WORKLOADS

    work = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = _traced if args.trace else _untraced
    # A SIGTERM unwinds like an error, so the servers are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with hostspeed.pinned_busy_cpus() as (client_cpu, server_cpu, speed):
            cpus = (client_cpu, server_cpu)
            records, failed, problems, measured = run(
                args, root, work, cpus, harness, reference, WORKLOADS[args.workload])
        finish = _per_layer if args.trace else functools.partial(_end_to_end, args)
        metrics = finish(cpus, speed, measured)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    for problem in problems[:20]:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
