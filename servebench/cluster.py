"""Launch and stop served nodes (``python -m repro serve``) for one run.

Every node runs with :data:`SERVE_FLAGS`, the documented durable,
isolated configuration; a follower adds only ``--follower-of``.  All
files a node writes (data dir, telemetry dir, its log) live under the
run directory :mod:`run` hands in, inside the checkout.  A traced node
runs the same ``serve`` command through :data:`TRACED_SERVE`, which
adds the benchmark's layer spans and writes them out when it stops.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import List, Optional

from client import Client

#: Runs ``repro serve`` with the layer spans of :mod:`layers` installed.
TRACED_SERVE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "traced_serve.py"
)

#: The served configuration of every run.  Everything not named here
#: stays at its default, notably ``--compact-every 256``.  ``--isolate
#: fm-sql`` is what sends requests to the worker pool; ``--telemetry``
#: is what turns on the live plane and the dispatcher's conflict-shape
#: stats.  ``--max-requests-per-worker`` is raised from its default of
#: 200 so that no worker is recycled within a run: the pool hands jobs
#: to its two workers in turn, so both reach the limit one job apart and
#: the pool is empty while the first replacement spawns (~0.4 s).  The
#: service answers every read in that window from the in-process
#: certain-core bracket, mostly incomplete, and how many fall in it
#: depends on the host's speed, not on the seed (about 2% of the reads
#: of ``many-small-tenants``, a count that differed between runs).
SERVE_FLAGS = (
    "--workers", "2",
    "--isolate", "fm-sql",
    "--fsync", "always",
    "--max-requests-per-worker", "100000",
)


class BenchError(Exception):
    """The run cannot produce a trustworthy result (exit non-zero)."""


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of *pid* in KiB; 0 once gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def dir_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass
    return total


class Node:
    """One ``repro serve`` process plus the directories it owns."""

    def __init__(
        self,
        run_dir: str,
        name: str,
        src_dir: str,
        follower_of: Optional[str] = None,
        traced: bool = False,
    ) -> None:
        self.name = name
        self.src_dir = src_dir
        self.port = free_port()
        self.follower_of = follower_of
        self.traced = traced
        self.starts = 0
        self.home = os.path.join(run_dir, name)
        self.data_dir = os.path.join(self.home, "data")
        self.telemetry_dir = os.path.join(self.home, "telemetry")
        os.makedirs(self.home, exist_ok=True)
        self.proc: Optional[subprocess.Popen] = None
        self._log = None
        self.worker_pids: List[int] = []

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def argv(self) -> List[str]:
        if self.traced:
            # One span file per start: a restart must not overwrite the
            # spans of the process it replaces.
            spans = os.path.join(self.home, f"spans-{self.starts}.pickle")
            head = [sys.executable, TRACED_SERVE, spans]
        else:
            head = [sys.executable, "-m", "repro"]
        argv = head + [
            "serve",
            "--port", str(self.port),
            *SERVE_FLAGS,
            "--telemetry", self.telemetry_dir,
            "--data-dir", self.data_dir,
        ]
        if self.follower_of:
            argv += ["--follower-of", self.follower_of,
                     "--replica-id", self.name]
        return argv

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir
        # Fixed hashing keeps set and dict orders, and with them which
        # request lands on which worker, the same in every run.
        env["PYTHONHASHSEED"] = "0"
        self._log = open(os.path.join(self.home, "serve.log"), "ab")
        argv = self.argv()
        self.starts += 1
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
        )

    def wait_ready(self, timeout_s: float = 60.0) -> dict:
        """Poll ``/healthz`` until it answers 200; returns its body."""
        probe = Client("127.0.0.1", self.port, timeout_s=5.0)
        deadline = time.monotonic() + timeout_s
        try:
            while time.monotonic() < deadline:
                if self.proc is not None and self.proc.poll() is not None:
                    raise BenchError(
                        f"{self.name} exited with {self.proc.returncode} "
                        f"before becoming ready (see {self.home}/serve.log)"
                    )
                reply = probe.get("/healthz")
                if reply.status == 200:
                    pool = reply.body.get("pool") or {}
                    self.worker_pids = list(pool.get("pids") or [])
                    return reply.body
                time.sleep(0.005)
        finally:
            probe.close()
        raise BenchError(f"{self.name} not ready within {timeout_s}s")

    def refresh_worker_pids(self) -> None:
        """Note the current workers' pids once the pool is full: a
        recycled worker is respawned in the background, and a pool
        caught mid-respawn would leave a worker out of ``hwm_kb``."""
        probe = Client("127.0.0.1", self.port, timeout_s=10.0)
        deadline = time.monotonic() + 30.0
        try:
            while time.monotonic() < deadline:
                reply = probe.get("/healthz")
                pool = (reply.body.get("pool") or {}) if (
                    reply.status == 200
                ) else {}
                pids = list(pool.get("pids") or [])
                if pool and len(pids) >= pool.get("size", 0):
                    self.worker_pids = pids
                    return
                time.sleep(0.01)
        finally:
            probe.close()
        raise BenchError(f"{self.name}: worker pool not full within 30s")

    def hwm_kb(self) -> int:
        """Summed peak RSS of the server and its current workers."""
        if self.proc is None:
            return 0
        self.refresh_worker_pids()
        return vm_hwm_kb(self.proc.pid) + sum(
            vm_hwm_kb(pid) for pid in self.worker_pids
        )

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM (graceful drain reaps the workers), then make sure
        the server and every worker it reported are gone."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        deadline = time.monotonic() + timeout_s
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None


class Cluster:
    """A primary and one follower, each a ``repro serve`` process."""

    def __init__(self, run_dir: str, src_dir: str, traced: bool = False):
        self.run_dir = run_dir
        self.src_dir = src_dir
        self.traced = traced
        self.primary: Optional[Node] = None
        self.follower: Optional[Node] = None

    def launch(self) -> None:
        self.primary = Node(
            self.run_dir, "primary", self.src_dir, traced=self.traced
        )
        self.follower = Node(
            self.run_dir, "follower", self.src_dir,
            follower_of=self.primary.url, traced=self.traced,
        )
        self.primary.start()
        self.follower.start()
        self.primary.wait_ready()
        self.follower.wait_ready()

    def ports(self) -> dict:
        ports = {"primary": self.primary.port}
        if self.follower is not None:
            ports["follower"] = self.follower.port
        return ports

    def wait_follower(self, lsn: int, timeout_s: float = 60.0) -> None:
        """Block until the follower has applied every record to *lsn*."""
        probe = Client("127.0.0.1", self.follower.port, timeout_s=10.0)
        deadline = time.monotonic() + timeout_s
        try:
            while time.monotonic() < deadline:
                reply = probe.get("/v1/replica/status")
                if reply.status == 200 and (
                    reply.body.get("last_lsn") or 0
                ) >= lsn:
                    return
                time.sleep(0.005)
        finally:
            probe.close()
        raise BenchError(f"follower did not reach lsn {lsn}")

    def status(self) -> dict:
        probe = Client("127.0.0.1", self.primary.port, timeout_s=10.0)
        try:
            return probe.get("/status").body
        finally:
            probe.close()

    def health(self) -> dict:
        probe = Client("127.0.0.1", self.primary.port, timeout_s=10.0)
        try:
            return probe.get("/healthz").body
        finally:
            probe.close()

    def hwm_kb(self) -> int:
        return sum(
            node.hwm_kb() for node in (self.primary, self.follower) if node
        )

    def stop_follower(self) -> None:
        if self.follower is not None:
            self.follower.stop()
            self.follower = None

    def restart_primary(self) -> float:
        """Stop the primary, start it on the same data dir and port;
        returns seconds from launch until ``/healthz`` answers 200."""
        self.primary.stop()
        started = time.perf_counter()
        self.primary.start()
        self.primary.wait_ready()
        return time.perf_counter() - started

    @property
    def primary_data_dir(self) -> str:
        return self.primary.data_dir

    def teardown(self) -> None:
        for node in (self.follower, self.primary):
            if node is not None:
                node.stop()
        self.primary = self.follower = None
