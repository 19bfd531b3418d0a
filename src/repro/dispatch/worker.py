"""Process-level isolation for engines that can wedge non-cooperatively.

PR 3's cooperative ``checkpoint()`` cancels pure-Python loops, but it
cannot interrupt a stuck C-extension call: a wedged SQLite
materialization or a pathological grounding holds the GIL-released
thread forever and no budget checkpoint ever fires.  For those engines
the dispatcher can pay for hard isolation: the engine runs in a fresh
``subprocess`` (a new interpreter, ``python -m repro.dispatch.worker``)
with

* the request pickled over stdin and the result pickled over stdout
  (structured marshalling — never a traceback scrape);
* a cooperative :class:`~repro.runtime.Budget` installed inside the
  child, so well-behaved engines still degrade gracefully there;
* a **watchdog deadline** in the parent: if the child has produced no
  result when it expires, the child is killed and
  :class:`WorkerTimeoutError` is raised — the dispatcher records a
  ``dispatch.worker_kills`` counter and falls to the next rung.

Two execution modes share one job/result schema:

* **one-shot** (:func:`child_main`, :func:`run_isolated`) — one job on
  stdin, one result on stdout, process exits.  Pays a full interpreter
  start-up + import per request; the right tool for a single CLI
  dispatch, far too slow for serving.
* **loop** (:func:`serve_loop`, ``python -m repro.dispatch.worker
  --loop``) — length-prefixed pickle *frames* on the same pipes, served
  until EOF or an ``exit`` op.  This is the warm-worker protocol behind
  :class:`repro.dispatch.pool.WorkerPool`: the interpreter and the
  engine imports are paid once at spawn, then each request is one
  frame round-trip.  ``ping`` frames double as the supervisor's
  heartbeat and carry the child's RSS and served-request count, which
  drive the pool's recycling policy.  A job may carry a ``resident``
  spec: the worker then keeps the tenant's instance and a warm SQLite
  copy across jobs and applies shipped deltas to them
  (:mod:`repro.dispatch.resident`), or answers ``resident-miss`` when
  it does not hold the version the deltas build on.

The parent's **request id** crosses the boundary: the job carries the
ambient :func:`~repro.observability.live.current_request_id`, the child
runs under a matching :func:`~repro.observability.live.request_scope`,
and any events the child emits (budget exhaustion, engine internals)
are marshalled back and re-emitted on the parent's planes tagged
``worker=True`` — so ``obs events --request rNNNNNN`` shows one
correlated trail even for isolated rungs.

Fault plans (:mod:`repro.runtime.faults`) are process-local and do NOT
propagate into workers; isolation is for real wedges, fault injection
exercises the in-process path.  The payload accepts test hooks: a
``wedge_s`` sleep simulating a non-cooperative hang (watchdog tests), a
``crash_code`` hard exit simulating a dying worker, and a ``pad_rss_kb``
ballast allocation that genuinely grows the child's RSS (pool-recycling
tests).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import struct
import subprocess
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from ..errors import (
    BudgetExceededError,
    NotRewritableError,
    ReproError,
)
from ..observability import add
from ..observability.flight.recorder import flight_installed
from ..observability.live import (
    LivePlane,
    current_request_id,
    emit_event,
    install_live,
    live_installed,
    request_scope,
    uninstall_live,
)
from ..relational import sqlbridge
from ..runtime import Budget, use_budget
from .resident import ResidentSet

__all__ = [
    "WorkerError",
    "WorkerTimeoutError",
    "WorkerCrashError",
    "read_frame",
    "write_frame",
    "run_isolated",
    "serve_loop",
]

#: Hard floor for the watchdog: interpreter start-up plus import of the
#: repro package costs real time, and a watchdog below it would kill
#: healthy workers before they compute anything.  Warm-pool workers have
#: already paid the start-up, so :class:`~repro.dispatch.pool.WorkerPool`
#: is exempt from this floor.
MIN_WATCHDOG_S = 2.0

#: Frame header of the loop protocol: 4-byte big-endian payload length.
_FRAME = struct.Struct(">I")

#: Refuse absurd frames instead of allocating them (a desynced or
#: corrupted stream would otherwise ask for gigabytes).
MAX_FRAME_BYTES = 256 * 1024 * 1024


class WorkerError(ReproError):
    """Base class for isolation-worker failures."""


class WorkerTimeoutError(WorkerError):
    """The watchdog expired and the worker was killed."""


class WorkerCrashError(WorkerError):
    """The worker died or returned unparsable output."""


def _marshal_error(exc: BaseException) -> Dict[str, object]:
    from .engines import EngineInapplicableError

    if isinstance(exc, NotRewritableError):
        kind = "not-rewritable"
    elif isinstance(exc, EngineInapplicableError):
        kind = "inapplicable"
    elif isinstance(exc, BudgetExceededError):
        kind = "budget"
    else:
        kind = "failure"
    payload: Dict[str, object] = {
        "ok": False,
        "kind": kind,
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if kind == "budget":
        payload["reason"] = str(getattr(exc, "reason", "deadline"))
    return payload


def _unmarshal_error(record: Dict[str, object]) -> BaseException:
    from .engines import EngineInapplicableError

    kind = record.get("kind")
    message = f"[worker] {record.get('type')}: {record.get('message')}"
    if kind == "not-rewritable":
        return NotRewritableError(message)
    if kind == "inapplicable":
        return EngineInapplicableError(message)
    if kind == "budget":
        return BudgetExceededError(record.get("reason"), message)
    return WorkerCrashError(message)


# ----------------------------------------------------------------------
# Frame protocol (loop mode).  Child side uses blocking buffered reads;
# the parent side (pool.py) reads the raw fd under a select() deadline.
# ----------------------------------------------------------------------


def read_frame(stream) -> Optional[bytes]:
    """Read one length-prefixed frame; None on clean EOF.

    Raises :class:`WorkerCrashError` on a truncated or oversized frame —
    a half-written frame means the peer died mid-send, and resyncing a
    pickle stream is not possible.
    """
    header = stream.read(_FRAME.size)
    if not header:
        return None
    if len(header) < _FRAME.size:
        raise WorkerCrashError("truncated frame header")
    (length,) = _FRAME.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WorkerCrashError(f"frame of {length} bytes exceeds the cap")
    payload = stream.read(length)
    if payload is None or len(payload) < length:
        raise WorkerCrashError("truncated frame payload")
    return payload


def write_frame(stream, payload: bytes) -> None:
    """Write one length-prefixed frame and flush it."""
    stream.write(_FRAME.pack(len(payload)))
    stream.write(payload)
    stream.flush()


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------

#: Ballast kept alive by the ``pad_rss_kb`` test hook so the allocation
#: actually shows up in the child's resident set.
_BALLAST: List[bytearray] = []


def _rss_kb() -> int:
    """This process's *current* resident set in KiB (0 when unavailable).

    Current, not peak (``ru_maxrss``): the pool's RSS recycling policy
    watches for steady growth — a leak — and a peak figure would never
    come back down after one large request.
    """
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGESIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:  # pragma: no cover - non-Linux fallback (peak, close enough)
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return int(rss // 1024) if sys.platform == "darwin" else int(rss)
    except Exception:  # pragma: no cover
        return 0


def _execute_job(
    job: Dict[str, object], residents: ResidentSet
) -> Dict[str, object]:
    """Run one engine job; returns the marshalled result record.

    Shared by the one-shot and loop modes, so both speak exactly the
    same job/result schema.  *residents* holds the tenant versions kept
    across jobs: the loop's own set, a fresh one in one-shot mode (so a
    delta job there is always a ``resident-miss``).
    """
    wedge_s = job.get("wedge_s")
    if wedge_s:  # test hook: simulate a non-cooperative hang
        import time

        time.sleep(wedge_s)
    if job.get("crash_code") is not None:  # test hook: die mid-request
        os._exit(int(job["crash_code"]))
    pad_kb = job.get("pad_rss_kb")
    if pad_kb:  # test hook: genuinely grow the resident set
        # b"x" * n writes every byte, so the pages are dirty and
        # resident — a zeroed bytearray would stay copy-on-write blank.
        _BALLAST.append(b"x" * (int(pad_kb) * 1024))
    request = job.get("request")
    resident = job.get("resident")
    entry = None
    if resident is not None:
        try:
            request, entry, evicted = residents.install(resident, request)
        except Exception as exc:  # noqa: BLE001 — a miss, never a crash
            return {
                "ok": False,
                "kind": "resident-miss",
                "type": type(exc).__name__,
                "message": str(exc),
            }
    request_id = job.get("request_id")
    scope = (
        request_scope(request_id)
        if request_id
        else contextlib.nullcontext()
    )
    bound = (
        sqlbridge.bound_connection(entry.db, entry.connection)
        if entry is not None
        else contextlib.nullcontext()
    )
    # When the parent is observing (live plane or flight recorder), the
    # child installs its own plane so events emitted inside — budget
    # exhaustion, engine internals — can be marshalled back with the
    # result instead of dying with the process.
    plane = (
        install_live(LivePlane()) if job.get("collect_events") else None
    )
    try:
        from .engines import get_engine

        engine = get_engine(job["engine"])
        timeout = job.get("budget_timeout")
        budget = Budget(timeout=timeout) if timeout else None
        with scope, use_budget(budget), bound:
            answer = engine.run(request)
        result: Dict[str, object] = {
            "ok": True,
            "answers": answer.answers,
            "complete": answer.complete,
            "detail": answer.detail,
        }
    except BaseException as exc:
        result = _marshal_error(exc)
    if entry is not None:
        result["resident"] = entry.key
        result["evicted"] = evicted
    if plane is not None:
        uninstall_live()
        result["events"] = [
            {
                key: value
                for key, value in record.items()
                if key not in ("seq", "ts", "span_id")
            }
            for record in plane.events.records()
        ]
    return result


def child_main(stdin=None, stdout=None) -> int:
    """One-shot entry point (also callable in-process for tests): read
    one pickled job, run it, write one pickled result."""
    stdin = sys.stdin.buffer if stdin is None else stdin
    stdout = sys.stdout.buffer if stdout is None else stdout
    try:
        job = pickle.loads(stdin.read())
    except Exception as exc:  # malformed payload: structured, exit 0
        pickle.dump(
            {
                "ok": False,
                "kind": "failure",
                "type": type(exc).__name__,
                "message": f"cannot read job: {exc}",
            },
            stdout,
        )
        stdout.flush()
        return 0
    pickle.dump(_execute_job(job, ResidentSet()), stdout)
    stdout.flush()
    return 0


def serve_loop(stdin=None, stdout=None) -> int:
    """Warm-pool entry point: serve framed jobs until EOF or ``exit``.

    Jobs are pickled dicts with an ``op`` discriminator:

    * ``run`` (default) — the :func:`_execute_job` schema; the result
      frame additionally carries ``served`` and ``rss_kb`` so every
      response doubles as a health sample;
    * ``ping`` — heartbeat; answers ``{"ok": True, "op": "pong", "pid",
      "served", "rss_kb"}`` without touching any engine;
    * ``exit`` — acknowledge and leave (the pool's graceful drain).

    A malformed frame gets a structured error response; a truncated
    stream (parent died) ends the loop.  Never raises: a worker that
    dies of its own protocol handling would look like an engine crash
    to the supervisor.
    """
    stdin = sys.stdin.buffer if stdin is None else stdin
    stdout = sys.stdout.buffer if stdout is None else stdout
    # Pre-warm: pay the engine imports at spawn, not on first request.
    from . import engines  # noqa: F401

    served = 0
    residents = ResidentSet()
    while True:
        try:
            frame = read_frame(stdin)
        except WorkerCrashError:
            return 1
        if frame is None:
            return 0
        try:
            job = pickle.loads(frame)
        except Exception as exc:
            write_frame(stdout, pickle.dumps({
                "ok": False,
                "kind": "failure",
                "type": type(exc).__name__,
                "message": f"cannot read job: {exc}",
            }))
            continue
        op = job.get("op", "run")
        if op == "exit":
            write_frame(stdout, pickle.dumps(
                {"ok": True, "op": "exit", "served": served}
            ))
            return 0
        if op == "ping":
            write_frame(stdout, pickle.dumps({
                "ok": True,
                "op": "pong",
                "pid": os.getpid(),
                "served": served,
                "rss_kb": _rss_kb(),
            }))
            continue
        result = _execute_job(job, residents)
        served += 1
        result["served"] = served
        result["rss_kb"] = _rss_kb()
        try:
            write_frame(stdout, pickle.dumps(result))
        except (BrokenPipeError, OSError):
            return 1


# ----------------------------------------------------------------------
# Parent side (one-shot).  The warm-pool parent lives in pool.py.
# ----------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    """The worker environment: inherit, but guarantee repro is importable
    (the parent may run from a checkout without installing the package)."""
    env = dict(os.environ)
    src_dir = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = env.get("PYTHONPATH", "")
    paths = [src_dir] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _replay_child_events(records) -> None:
    """Re-emit events the worker child collected onto the parent planes.

    The child ran under the parent's request id, so the ambient
    :func:`request_scope` stamps the same correlation key; ``worker=True``
    marks the process hop.  Best-effort: a record the event schema
    rejects is dropped, never raised into the serving path.
    """
    for record in records or ():
        fields = {
            key: value
            for key, value in record.items()
            if key not in ("kind", "request_id")
        }
        fields["worker"] = True
        try:
            emit_event(record["kind"], **fields)
        except Exception:  # noqa: BLE001 — telemetry only
            continue


def _teardown(proc: subprocess.Popen) -> None:
    """Leave no trace of a worker child: dead, reaped, pipes closed.

    Safe to call in any state (already exited, already killed, pipes
    half closed) — the watchdog path, the crash path, and the normal
    path all funnel through here, so repeated kills cannot accumulate
    zombies or leak the parent ends of the stdin/stdout pipes.
    """
    try:
        if proc.poll() is None:
            proc.kill()
    except OSError:  # pragma: no cover - racing an exiting child
        pass
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None and not stream.closed:
            try:
                stream.close()
            except OSError:  # pragma: no cover - broken pipe on close
                pass
    try:
        proc.wait(timeout=5.0)
    except Exception:  # pragma: no cover - unkillable child
        pass


def _spawn_one_shot() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.dispatch.worker"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_child_env(),
    )


def build_job(
    engine_name: str,
    request,
    *,
    budget_timeout: Optional[float] = None,
    wedge_s: Optional[float] = None,
    crash_code: Optional[int] = None,
    pad_rss_kb: Optional[int] = None,
) -> Dict[str, object]:
    """The job record both execution modes understand.

    Captures the ambient request id and whether the parent is observing
    at *build* time, so a job queued briefly still correlates with the
    request that created it.
    """
    if getattr(request, "tenant", None) is not None:  # process-local
        request = replace(request, tenant=None)
    return {
        "engine": engine_name,
        "request": request,
        "budget_timeout": budget_timeout,
        "wedge_s": wedge_s,
        "crash_code": crash_code,
        "pad_rss_kb": pad_rss_kb,
        "request_id": current_request_id(),
        "collect_events": live_installed() or flight_installed(),
    }


def unmarshal_answer(result: Dict[str, object]):
    """Turn a worker result record into an EngineAnswer (or raise the
    marshalled engine error), replaying any child events first."""
    from .engines import EngineAnswer

    _replay_child_events(result.get("events"))
    if not result.get("ok"):
        raise _unmarshal_error(result)
    return EngineAnswer(
        frozenset(result["answers"]),
        bool(result["complete"]),
        dict(result.get("detail") or {}),
    )


def run_isolated(
    engine_name: str,
    request,
    *,
    watchdog_s: float,
    budget_timeout: Optional[float] = None,
    wedge_s: Optional[float] = None,
):
    """Run an engine in a watchdogged subprocess; return its EngineAnswer.

    ``watchdog_s`` is the hard kill deadline (floored at
    :data:`MIN_WATCHDOG_S`); ``budget_timeout`` installs a cooperative
    budget inside the child so the engine can degrade before the
    watchdog has to fire.  Raises :class:`WorkerTimeoutError` on kill,
    :class:`WorkerCrashError` on a dead/garbled worker, and re-raises
    marshalled engine errors as their typed classes.  Whatever happens,
    the child is reaped and its pipe fds are closed before this
    returns or raises.
    """
    job = build_job(
        engine_name,
        request,
        budget_timeout=budget_timeout,
        wedge_s=wedge_s,
    )
    payload = pickle.dumps(job)
    deadline = max(float(watchdog_s), MIN_WATCHDOG_S)
    add("dispatch.worker_runs")
    proc = _spawn_one_shot()
    try:
        try:
            out, _ = proc.communicate(payload, timeout=deadline)
        except subprocess.TimeoutExpired:
            add("dispatch.worker_kills")
            add(f"dispatch.worker_kills.{engine_name}")
            emit_event(
                "worker.kill", engine=engine_name, watchdog_s=deadline
            )
            raise WorkerTimeoutError(
                f"engine {engine_name} exceeded its {deadline:.1f}s "
                "watchdog and was killed"
            )
        if proc.returncode != 0:
            raise WorkerCrashError(
                f"engine worker for {engine_name} exited with code "
                f"{proc.returncode}"
            )
        try:
            result = pickle.loads(out)
        except Exception as exc:
            raise WorkerCrashError(
                f"engine worker for {engine_name} returned unreadable "
                f"output: {exc}"
            )
        return unmarshal_answer(result)
    finally:
        _teardown(proc)


if __name__ == "__main__":  # pragma: no cover
    if "--loop" in sys.argv[1:]:
        sys.exit(serve_loop())
    sys.exit(child_main())
