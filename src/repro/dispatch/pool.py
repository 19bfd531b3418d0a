"""Supervised warm worker pool: isolation without the spawn tax.

:func:`repro.dispatch.worker.run_isolated` pays a full interpreter
start-up plus package import per request — fine for one CLI dispatch,
two orders of magnitude too slow for serving.  The pool keeps a fixed
set of **warm** workers (``python -m repro.dispatch.worker --loop``)
that paid that cost once at spawn; a request is then one framed pickle
round-trip over the worker's pipes (sub-millisecond for the employee
workload, ~300ms for a cold spawn).

The pool is a *supervisor*, not just a free-list:

* **spawn → warm** — a worker counts only after answering a ``ping``
  handshake within ``spawn_timeout_s``; a worker that cannot warm up is
  killed and retried by the respawner.
* **warm → busy → warm** — :meth:`WorkerPool.run_engine` checks a
  worker out, runs exactly one job on it under a deadline-aware framed
  read (``select`` on the raw pipe fd — no blocking buffered reads in
  the serving path), and checks it back in.
* **recycle** — a worker is retired and replaced when it (a) blows its
  watchdog (killed, ``WorkerTimeoutError``), (b) crashes or garbles the
  stream (``WorkerCrashError``), (c) has served ``max_requests`` jobs,
  or (d) reports RSS above ``max_rss_kb``.  Every run result carries the
  child's ``served``/``rss_kb``, so (c) and (d) need no extra syscalls.
  Replacement spawns happen on a background respawner thread so the
  request that discovered the bad worker is not taxed with the ~300ms
  spawn.  (c) and (d) are planned: the worker keeps serving until its
  replacement is warm and admitted, so recycles never empty the pool.
* **residency** — a request for a registered tenant
  (``request.tenant``) ships only the deltas since the version the
  worker holds (:mod:`repro.dispatch.resident`); a ``resident-miss``
  reply gets the full instance resent to the same worker.
* **drain** — graceful shutdown: stop admitting, send each idle worker
  an ``exit`` frame, wait, then hard-kill stragglers.  Every retirement
  funnels through one reap path (kill if alive, close pipe fds,
  ``wait``), so the pool can never leak processes or fds.

When every worker is busy (or replacement spawns have not caught up),
checkout fails *fast* with :class:`PoolSaturatedError` after
``grab_timeout_s`` instead of queueing — backpressure is the admission
controller's job (:mod:`repro.serve.admission`), and the dispatcher
treats saturation as "this rung is temporarily unavailable": it falls
through the ladder (typically to the in-process anytime certain-core
bracket) without charging the engine's circuit breaker.

Thread safety: ``run_engine`` may be called from many serving threads
at once.  The idle set is a ``queue.Queue``; per-worker state is only
ever touched by the thread that checked the worker out; pool-wide
accounting sits behind one lock.
"""

from __future__ import annotations

import os
import pickle
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from queue import Empty, Queue
from typing import Dict, List, Optional

from ..observability import add
from ..observability.live import emit_event, live_add, live_gauge, live_observe
from .resident import TenantVersion
from .worker import (
    WorkerCrashError,
    WorkerError,
    WorkerTimeoutError,
    _FRAME,
    _child_env,
    build_job,
    unmarshal_answer,
)

__all__ = [
    "PoolConfig",
    "PoolSaturatedError",
    "PoolWorker",
    "WorkerPool",
]


class PoolSaturatedError(WorkerError):
    """No warm worker could be checked out before ``grab_timeout_s``.

    Deliberately *not* an engine failure: the dispatcher skips the rung
    without penalizing its breaker, and the serving layer answers from
    the degraded bracket or sheds.
    """


@dataclass(frozen=True)
class PoolConfig:
    """Supervision policy for a :class:`WorkerPool`."""

    #: Number of warm workers kept alive.
    size: int = 2
    #: Retire a worker after this many served requests (None = never).
    max_requests: Optional[int] = 200
    #: Retire a worker whose reported RSS exceeds this (None = never).
    max_rss_kb: Optional[int] = None
    #: Deadline for the spawn→warm ping handshake.
    spawn_timeout_s: float = 15.0
    #: How long checkout waits for an idle worker before declaring
    #: saturation.  Kept short: queueing is admission control's job.
    grab_timeout_s: float = 0.25
    #: Graceful-drain deadline before stragglers are hard-killed.
    drain_timeout_s: float = 5.0


class PoolWorker:
    """Parent-side handle on one warm worker process.

    Owned by at most one thread at a time (whoever checked it out of
    the pool), so it carries no locks.  All reads go through
    :meth:`_read_frame` — ``select`` plus ``os.read`` on the raw pipe
    fd under an absolute deadline; the ``Popen`` buffered reader is
    never used, so a timeout can never strand bytes in a buffer we do
    not control.
    """

    _ids = iter(range(1, 1 << 30))

    def __init__(self) -> None:
        self.worker_id = next(self._ids)
        self.served = 0
        self.rss_kb = 0
        #: Tenant name -> version key this worker holds resident.
        self.resident: Dict[str, tuple] = {}
        #: A planned replacement is spawning; keep serving meanwhile.
        self.retiring = False
        #: The replacement is serving: reap at the next check-in.
        self.replaced = False
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.dispatch.worker", "--loop"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_child_env(),
        )
        self._fd = self.proc.stdout.fileno()
        self._buf = bytearray()

    @property
    def pid(self) -> int:
        return self.proc.pid

    # -- framed I/O under a deadline ----------------------------------

    def _recv_exact(self, n: int, end: Optional[float]) -> bytes:
        while len(self._buf) < n:
            if end is not None:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise WorkerTimeoutError(
                        f"worker {self.pid} exceeded its read deadline"
                    )
                ready, _, _ = select.select([self._fd], [], [], remaining)
            else:
                ready, _, _ = select.select([self._fd], [], [], None)
            if not ready:
                continue
            chunk = os.read(self._fd, 65536)
            if not chunk:
                raise WorkerCrashError(
                    f"worker {self.pid} closed its pipe mid-request"
                )
            self._buf.extend(chunk)
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def _read_frame(self, deadline_s: Optional[float]) -> bytes:
        end = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        (length,) = _FRAME.unpack(self._recv_exact(_FRAME.size, end))
        return self._recv_exact(length, end)

    def _send(self, payload: bytes) -> None:
        try:
            self.proc.stdin.write(_FRAME.pack(len(payload)))
            self.proc.stdin.write(payload)
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashError(
                f"worker {self.pid} rejected a frame: {exc}"
            )

    def call(
        self, job: Dict[str, object], deadline_s: Optional[float]
    ) -> Dict[str, object]:
        """One request/response round-trip; raises Worker*Error."""
        self._send(pickle.dumps(job))
        frame = self._read_frame(deadline_s)
        try:
            result = pickle.loads(frame)
        except Exception as exc:
            raise WorkerCrashError(
                f"worker {self.pid} returned unreadable output: {exc}"
            )
        self.served = int(result.get("served", self.served))
        self.rss_kb = int(result.get("rss_kb", self.rss_kb))
        return result

    def ping(self, deadline_s: float) -> Dict[str, object]:
        result = self.call({"op": "ping"}, deadline_s)
        if not (result.get("ok") and result.get("op") == "pong"):
            raise WorkerCrashError(
                f"worker {self.pid} answered ping with {result!r}"
            )
        return result

    # -- teardown ------------------------------------------------------

    def send_exit(self) -> None:
        """Best-effort graceful-exit request (drain path)."""
        try:
            self._send(pickle.dumps({"op": "exit"}))
        except WorkerError:
            pass

    def reap(self) -> None:
        """Kill if alive, close pipe fds, wait: never a zombie or
        leaked fd, whatever state the worker died in."""
        proc = self.proc
        try:
            if proc.poll() is None:
                proc.kill()
        except OSError:  # pragma: no cover - racing an exiting child
            pass
        for stream in (proc.stdin, proc.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except OSError:  # pragma: no cover
                    pass
        try:
            proc.wait(timeout=5.0)
        except Exception:  # pragma: no cover - unkillable child
            pass


class WorkerPool:
    """Fixed-size supervised pool of warm isolation workers."""

    def __init__(self, config: Optional[PoolConfig] = None) -> None:
        self.config = config or PoolConfig()
        self._idle: "Queue[PoolWorker]" = Queue()
        self._lock = threading.Lock()
        self._workers: List[PoolWorker] = []  # every live worker
        self._draining = False
        self._spawns = 0
        self._recycles = 0
        self._recycle_reasons: Dict[str, int] = {}
        self._respawners: List[threading.Thread] = []
        self._pending = 0  # spawns under way
        self._resident = {"hits": 0, "misses": 0, "delta_records": 0}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn and warm the full complement; raises if any worker
        cannot pass its handshake."""
        for _ in range(self.config.size):
            self._admit(self._spawn_warm())
        self._publish_gauges()
        return self

    def _spawn_warm(self) -> PoolWorker:
        worker = PoolWorker()
        try:
            worker.ping(self.config.spawn_timeout_s)
        except WorkerError:
            worker.reap()
            raise
        with self._lock:
            self._spawns += 1
        add("pool.spawns")
        live_add("pool.spawns")
        emit_event("pool.spawn", pid=worker.pid, worker_id=worker.worker_id)
        return worker

    def _admit(self, worker: PoolWorker) -> bool:
        with self._lock:
            if self._draining:
                worker.reap()
                return False
            self._workers.append(worker)
        self._idle.put(worker)
        return True

    def _count_recycle(self, worker: PoolWorker, reason: str) -> None:
        with self._lock:
            self._recycles += 1
            self._recycle_reasons[reason] = (
                self._recycle_reasons.get(reason, 0) + 1
            )
        add("pool.recycles")
        live_add("pool.recycles")
        live_add(f"pool.recycles.{reason}")
        emit_event(
            "pool.recycle",
            pid=worker.pid,
            worker_id=worker.worker_id,
            reason=reason,
            served=worker.served,
            rss_kb=worker.rss_kb,
        )

    def _retire(self, worker: PoolWorker, reason: str) -> None:
        """Take a broken worker out of service now and backfill it,
        unless its planned replacement is already spawning."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
            planned = worker.retiring
            draining = self._draining
        worker.reap()
        if not planned:  # else counted once, and its replacement backfills
            self._count_recycle(worker, reason)
            if not draining:
                self._respawn_async()
        self._publish_gauges()

    def _replace(self, worker: PoolWorker, reason: str) -> None:
        """Planned retirement of a healthy worker: it keeps serving
        until its warm replacement is admitted, so a recycle never
        empties the pool (two workers handed jobs in turn reach
        ``max_requests`` one job apart)."""
        self._count_recycle(worker, reason)
        self._respawn_async(replacing=worker)

    def _drop_replaced(self, worker: PoolWorker) -> None:
        """The replacement of *worker* is serving: take it out of the
        pool, reaping it now if idle, else at its check-in."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        worker.replaced = True
        with self._idle.mutex:  # atomic: the idle set never looks empty
            try:
                self._idle.queue.remove(worker)
            except ValueError:
                return  # busy
        worker.reap()

    def _respawn_async(self, replacing: Optional[PoolWorker] = None) -> None:
        """Spawn a worker off the request path: a backfill, or the
        replacement of *replacing*."""

        def _spawn() -> None:
            try:
                fresh = self._spawn_warm()
            except WorkerError:
                live_add("pool.spawn_failures")
                if replacing is not None:
                    with self._lock:
                        gone = replacing not in self._workers
                        replacing.retiring = False  # retried at a check-in
                        backfill = gone and not self._draining
                    if backfill:  # it left the pool while this spawned
                        self._respawn_async()
            else:
                if self._admit(fresh) and replacing is not None:
                    self._drop_replaced(replacing)
            with self._lock:
                self._pending -= 1
            self._publish_gauges()

        thread = threading.Thread(
            target=_spawn, name="pool-respawn", daemon=True
        )
        with self._lock:
            self._pending += 1
            self._respawners = [
                t for t in self._respawners if t.is_alive()
            ]
            self._respawners.append(thread)
        thread.start()

    def wait_ready(self, timeout_s: float = 30.0) -> bool:
        """Block until the pool is back to full idle strength (all
        respawns caught up and no worker checked out)."""
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            with self._lock:
                full = (
                    not self._draining
                    and not self._pending
                    and len(self._workers) >= self.config.size
                )
            if full and self._idle.qsize() >= self.config.size:
                return True
            time.sleep(0.01)
        return False

    def drain(self, timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: stop admitting, ask workers to exit,
        hard-kill whatever is left after the deadline."""
        timeout_s = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        with self._lock:
            self._draining = True
        emit_event("pool.drain", workers=len(self._workers))
        live_add("pool.drains")
        end = time.monotonic() + timeout_s
        # Politely stop every idle worker first.
        while True:
            try:
                worker = self._idle.get_nowait()
            except Empty:
                break
            worker.send_exit()
            try:
                worker.proc.wait(timeout=max(0.1, end - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            worker.reap()
            with self._lock:
                if worker in self._workers:
                    self._workers.remove(worker)
        # Busy workers get the remaining grace, then the axe.
        while time.monotonic() < end:
            with self._lock:
                if not self._workers:
                    break
            time.sleep(0.05)
        with self._lock:
            stragglers = list(self._workers)
            self._workers.clear()
        for worker in stragglers:
            worker.reap()
        for thread in list(self._respawners):
            thread.join(timeout=max(0.1, end - time.monotonic()))
        # A respawner may have admitted a fresh worker after the idle
        # sweep; _admit reaps immediately while draining, but drain any
        # that slipped in before the flag was visible.
        while True:
            try:
                self._idle.get_nowait().reap()
            except Empty:
                break
        self._publish_gauges()

    # -- serving -------------------------------------------------------

    def run_engine(
        self,
        engine_name: str,
        request,
        *,
        watchdog_s: float,
        budget_timeout: Optional[float] = None,
        wedge_s: Optional[float] = None,
        crash_code: Optional[int] = None,
        pad_rss_kb: Optional[int] = None,
    ):
        """Drop-in replacement for :func:`run_isolated` on warm workers.

        Same contract: returns the ``EngineAnswer``, re-raises
        marshalled engine errors as their typed classes, raises
        :class:`WorkerTimeoutError`/:class:`WorkerCrashError` on a bad
        worker — plus :class:`PoolSaturatedError` when no worker frees
        up within ``grab_timeout_s``.  No ``MIN_WATCHDOG_S`` floor:
        warm workers have already paid start-up, so the caller's
        deadline is taken literally.

        For a registered tenant (``request.tenant``) the job ships
        only the deltas since the version the worker holds; a
        ``resident-miss`` reply is answered by resending the full
        instance to the same worker.
        """
        with self._lock:
            if self._draining:
                raise PoolSaturatedError("worker pool is draining")
        worker = self._checkout()
        self._publish_gauges()
        job = build_job(
            engine_name,
            request,
            budget_timeout=budget_timeout,
            wedge_s=wedge_s,
            crash_code=crash_code,
            pad_rss_kb=pad_rss_kb,
        )
        tenant = getattr(request, "tenant", None)
        add("dispatch.worker_runs")
        add("pool.dispatches")
        live_add("pool.dispatches")
        started = time.monotonic()
        try:
            placed = self._place(worker, job, tenant)
            result = worker.call(placed, watchdog_s)
            if result.get("kind") == "resident-miss":
                worker.resident.pop(tenant.name, None)
                placed = self._place(worker, job, tenant)
                result = worker.call(placed, watchdog_s)
        except WorkerTimeoutError:
            add("dispatch.worker_kills")
            add(f"dispatch.worker_kills.{engine_name}")
            emit_event(
                "worker.kill", engine=engine_name, watchdog_s=watchdog_s
            )
            self._retire(worker, "timeout")
            raise
        except WorkerCrashError:
            self._retire(worker, "crash")
            raise
        if tenant is not None:
            self._note_resident(worker, tenant.name, placed, result)
        live_observe(
            "pool.dispatch_ms", (time.monotonic() - started) * 1000.0
        )
        self._check_in(worker)
        return unmarshal_answer(result)

    @staticmethod
    def _place(
        worker: PoolWorker,
        job: Dict[str, object],
        tenant: Optional[TenantVersion],
    ) -> Dict[str, object]:
        """The job as sent to *worker*: the deltas since the version it
        holds, or the full instance when that is smaller or unknown."""
        if tenant is None:
            return job
        spec: Dict[str, object] = {
            "tenant": tenant.name,
            "key": tenant.key,
            "base": None,
        }
        held = worker.resident.get(tenant.name)
        deltas = tenant.deltas_since(held) if held is not None else None
        if deltas is not None and sum(map(len, deltas)) < len(tenant.db):
            spec["base"] = held
            spec["deltas"] = [delta.wire() for delta in deltas]
            return dict(
                job, request=replace(job["request"], db=None), resident=spec
            )
        return dict(job, resident=spec)

    def _note_resident(
        self,
        worker: PoolWorker,
        name: str,
        placed: Dict[str, object],
        result: Dict[str, object],
    ) -> None:
        """Track what *worker* now holds, and count the hit or miss."""
        for evicted in result.get("evicted") or ():
            worker.resident.pop(evicted, None)
        if result.get("resident") is not None:
            worker.resident[name] = tuple(result["resident"])
        else:
            worker.resident.pop(name, None)
        spec = placed["resident"]
        shipped = len(spec.get("deltas") or ())
        hit = spec["base"] is not None
        with self._lock:
            self._resident["hits" if hit else "misses"] += 1
            self._resident["delta_records"] += shipped
        live_add("pool.resident_hits" if hit else "pool.resident_misses")
        if shipped:
            live_add("pool.delta_records", shipped)

    def _checkout(self) -> PoolWorker:
        while True:
            try:
                worker = self._idle.get(timeout=self.config.grab_timeout_s)
            except Empty:
                add("pool.saturated")
                live_add("pool.saturated")
                raise PoolSaturatedError(
                    f"no idle worker within "
                    f"{self.config.grab_timeout_s:.2f}s "
                    f"(pool size {self.config.size})"
                )
            if not worker.replaced:
                return worker
            worker.reap()  # checked in as its replacement took over

    def _check_in(self, worker: PoolWorker) -> None:
        """Return a healthy worker to the idle set.  When the recycling
        policy says it has done enough, its replacement starts spawning
        and it keeps serving until that one is warm."""
        if worker.replaced:
            worker.reap()
            return
        if worker.proc.poll() is not None:
            self._retire(worker, "crash")
            return
        cfg = self.config
        reason = None
        if worker.retiring:
            pass  # its replacement is already spawning
        elif cfg.max_requests is not None and worker.served >= cfg.max_requests:
            reason = "max-requests"
        elif cfg.max_rss_kb is not None and worker.rss_kb > cfg.max_rss_kb:
            reason = "rss"
        if reason is not None:
            worker.retiring = True  # before another thread can check it out
        self._idle.put(worker)
        if reason is not None:
            self._replace(worker, reason)
        self._publish_gauges()

    # -- health & introspection ---------------------------------------

    def health_check(self, deadline_s: float = 1.0) -> Dict[str, int]:
        """Heartbeat every *idle* worker; retire the unresponsive.

        Busy workers are not probed — their in-flight read deadline is
        already their health check.
        """
        checked = retired = 0
        held: List[PoolWorker] = []
        while True:
            try:
                held.append(self._idle.get_nowait())
            except Empty:
                break
        for worker in held:
            checked += 1
            try:
                worker.ping(deadline_s)
            except WorkerError:
                self._retire(worker, "heartbeat")
                retired += 1
            else:
                self._idle.put(worker)
        self._publish_gauges()
        return {"checked": checked, "retired": retired}

    def idle_count(self) -> int:
        return self._idle.qsize()

    def _publish_gauges(self) -> None:
        with self._lock:
            total = len(self._workers)
        live_gauge("pool.workers", total)
        live_gauge("pool.idle", self._idle.qsize())

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "size": self.config.size,
                "workers": len(self._workers),
                "idle": self._idle.qsize(),
                "spawns": self._spawns,
                "recycles": self._recycles,
                "recycle_reasons": dict(self._recycle_reasons),
                "draining": self._draining,
                "pids": [w.pid for w in self._workers],
                "resident": dict(self._resident),
            }
