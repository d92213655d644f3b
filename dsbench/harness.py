"""Set-up, timed window and fixed-length replay of one workload.

One benchmark process drives one server over one keep-alive connection in
a closed loop: the next request is sent when the previous answer is in.
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.client import HTTPException
from pathlib import Path

from repro.errors import DeadlineExceededError, WireFormatError
from repro.server import client as client_module
from repro.server.client import DataspaceClient, ServerError as ResponseError

from server import Server

#: What a request can fail with; each one is counted as a failed operation.
REQUEST_ERRORS = (ResponseError, DeadlineExceededError, WireFormatError,
                  HTTPException, OSError)
CLIENT_TIMEOUT_S = 120.0


def stats_delta(before: dict, after: dict) -> dict:
    """How far each integer counter of ``GET /stats`` moved."""
    return {key: value - before.get(key, 0) for key, value in after.items()
            if isinstance(value, int)}


class SetUpError(RuntimeError):
    """A request sent while priming failed."""


@dataclass
class Record:
    op: object
    result: object
    #: Seconds, client-observed.
    latency: float
    #: ``time.monotonic_ns()`` when the request was sent.
    started: int

    @property
    def failed(self) -> bool:
        return isinstance(self.result, Exception)


def execute(client: DataspaceClient, op) -> Record:
    started = time.monotonic_ns()
    start = time.perf_counter()
    try:
        result = op.run(client)
    except REQUEST_ERRORS as error:
        result = error
    return Record(op, result, time.perf_counter() - start, started)


def step(workload, client: DataspaceClient) -> Record:
    """Send the workload's next request and show it the answer."""
    op = workload.next_op()
    record = execute(client, op)
    workload.observe(op, record.result)
    return record


class Deployment:
    """One set-up: an empty directory turned into a primed, serving
    dataspace.  ``seconds`` is the wall time that took, between the
    monotonic instants ``start_ns`` and ``end_ns``; ``client_cpu`` and
    ``server_cpu`` are the CPU seconds this process and the server spent
    on it."""

    def __init__(self, workload_class, seed: str, run_seconds: int, root: Path,
                 directory: Path, *, server_cpus: set | None = None,
                 spans: Path | None = None):
        self.start_ns = time.monotonic_ns()
        started, client_cpu = time.perf_counter(), time.process_time()
        directory.mkdir(parents=True)
        store = directory / "store"
        store.mkdir()
        self.directory = directory
        self.workload = workload_class(seed, run_seconds)
        self.workload.build(store)
        self.server = Server(root, store, directory / "cache",
                             max_cached=self.workload.max_cached, spans=spans,
                             log=directory / "server.log", cpus=server_cpus)
        self.client = None
        try:
            self.server.start()
            self.client = DataspaceClient(self.server.host, self.server.port,
                                          timeout=CLIENT_TIMEOUT_S)
            self.primed = [execute(self.client, op) for op in self.workload.prime_ops()]
            self.primed += replay(self, self.workload.primed_stream_ops)
            failed = [r for r in self.primed if isinstance(r.result, Exception)]
            if failed:
                raise SetUpError(f"priming request {failed[0].op.key()} failed:"
                                 f" {failed[0].result}")
        except BaseException:
            self.close()
            raise
        self.seconds = time.perf_counter() - started
        self.end_ns = time.monotonic_ns()
        self.client_cpu = time.process_time() - client_cpu
        self.server_cpu = self.server.cpu_seconds()

    def stats(self) -> dict:
        return self.client.stats()

    def close(self) -> None:
        """Stop the server (waiting for it) and drop the directory."""
        try:
            if self.client is not None:
                self.client.close()
            self.server.stop()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


@dataclass
class Window:
    records: list
    elapsed: float
    start_ns: int
    end_ns: int
    #: CPU seconds of this process and of the server in the window.
    client_cpu: float
    server_cpu: float
    rss_mb: float


def timed_window(deployment: Deployment, seconds: float) -> Window:
    """Closed loop for ``seconds``, and on until at least the workload's
    ``rss_after`` operations have completed: the server's peak RSS is read
    right after that many, so it always measures the same work, even in a
    window the host stalled (a 3.3 s cold_price window once completed 7
    operations where 30 are usual)."""
    workload, server, client = deployment.workload, deployment.server, deployment.client
    records: list = []
    rss = None
    cpu_before, client_before = server.cpu_seconds(), time.process_time()
    start_ns = time.monotonic_ns()
    start = time.perf_counter()
    end = start + seconds
    while rss is None or time.perf_counter() < end:
        records.append(step(workload, client))
        if rss is None and len(records) >= workload.rss_after:
            rss = server.peak_rss_mb()
    elapsed = time.perf_counter() - start
    end_ns = time.monotonic_ns()
    client_cpu = time.process_time() - client_before
    server_cpu = server.cpu_seconds() - cpu_before
    return Window(records, elapsed, start_ns, end_ns, client_cpu, server_cpu, rss)


def replay(deployment: Deployment, count: int) -> list:
    """The workload's next ``count`` operations, however long they take."""
    return [step(deployment.workload, deployment.client) for _ in range(count)]


@contextmanager
def client_decode_timer():
    """Accumulate, in nanoseconds, the time the client spends parsing
    response JSON and decoding it into exact answers."""
    total = [0]
    names = ("decode_answer", "decode_aggregate_distribution",
             "decode_fused_answer", "decode_fraction")
    originals = {name: getattr(client_module, name) for name in names}
    original_json = client_module.json

    def timed(fn):
        def call(*args, **kwargs):
            started = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                total[0] += time.perf_counter_ns() - started
        return call

    class TimedJson:
        dumps = staticmethod(json.dumps)
        loads = staticmethod(timed(json.loads))

    for name, fn in originals.items():
        setattr(client_module, name, timed(fn))
    client_module.json = TimedJson
    try:
        yield total
    finally:
        for name, fn in originals.items():
            setattr(client_module, name, fn)
        client_module.json = original_json
