"""One ``imprecise serve --http`` child process, seen only from outside.

Readiness is the server's own ``serving on http://HOST:PORT`` stdout
line; nothing polls ``/healthz``.  CPU time and peak resident set are
read from ``/proc``.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

READY = re.compile(r"serving on http://(\[[^\]]+\]|[^:]+):(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_TICKS = os.sysconf("SC_CLK_TCK")
#: The pricing kernel's work depends on string-hash iteration order: one
#: cold query measured 0.08 s under one hash seed and 0.14 s under
#: another.  Both processes run with one fixed seed (0: randomization
#: off), so runs and commits are compared under the same order.
HASH_SEED = "0"


class ServerError(RuntimeError):
    """The server failed to start or stop cleanly."""


class Server:
    """Start with :meth:`start`; always :meth:`stop` (also on error)."""

    def __init__(self, root: Path, store: Path, cache: Path, *,
                 max_cached: int | None = None, spans: Path | None = None,
                 log: Path, cpus: set | None = None):
        command = [sys.executable]
        if spans is None:
            command += ["-m", "repro"]
        else:
            command += [str(Path(__file__).with_name("traced_serve.py")), str(spans)]
        command += ["serve", str(store), "--cache-dir", str(cache),
                    "--http", "127.0.0.1:0"]
        if max_cached is not None:
            command += ["--max-cached", str(max_cached)]
        self.command = command
        self.cpus = cpus
        self.root = root
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = HASH_SEED
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                self.command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL,
                preexec_fn=self._pin if self.cpus else None,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        buffered = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise ServerError(f"server not ready in {START_TIMEOUT_S}s")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise ServerError(
                        f"server exited before ready (status {self.proc.wait()});"
                        f" see {self.log}"
                    )
                buffered += chunk
                match = READY.search(buffered.decode("utf-8", "replace"))
                if match:
                    self.host = match.group(1).strip("[]")
                    self.port = int(match.group(2))
                    return

    def _pin(self) -> None:
        # Runs in the child before exec; every server thread inherits it.
        os.sched_setaffinity(0, self.cpus)

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server process so far."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ServerError("server ignored SIGTERM") from None
        finally:
            proc.stdout.close()
        if proc.returncode != 0:
            raise ServerError(f"server exited with {proc.returncode}; see {self.log}")
