"""Warm worker pool: frame protocol, supervision, and teardown hygiene.

Process-spawning tests keep pools small (size 1–2) — each warm spawn
pays a real interpreter start-up — and every test asserts the processes
it created are gone when it is done.
"""

import io
import os
import pickle
import threading
import time

import pytest

from repro.dispatch import (
    CQARequest,
    DispatchPolicy,
    Dispatcher,
    PoolConfig,
    PoolSaturatedError,
    WorkerPool,
    run_isolated,
)
from repro.dispatch import worker as worker_mod
from repro.dispatch.worker import (
    WorkerCrashError,
    WorkerError,
    WorkerTimeoutError,
    read_frame,
    serve_loop,
    write_frame,
)
from repro.cqa import consistent_answers
from repro.observability import collect
from repro.workloads import employee


def _pid_alive(pid: int) -> bool:
    """True while the pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(") ", 1)[1][0] != "Z"
    except OSError:
        return False


def _zombie_children() -> list:
    """Pids of direct children of this process in state Z."""
    me = os.getpid()
    zombies = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                rest = fh.read().split(") ", 1)[1].split()
        except OSError:
            continue
        state, ppid = rest[0], int(rest[1])
        if ppid == me and state == "Z":
            zombies.append(int(entry))
    return zombies


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


# ----------------------------------------------------------------------
# Frame protocol + serve_loop (in-process, no subprocess)
# ----------------------------------------------------------------------


class TestFrameProtocol:
    def test_round_trip(self):
        buf = io.BytesIO()
        write_frame(buf, b"hello")
        write_frame(buf, b"")
        buf.seek(0)
        assert read_frame(buf) == b"hello"
        assert read_frame(buf) == b""
        assert read_frame(buf) is None  # clean EOF

    def test_truncated_header_raises(self):
        with pytest.raises(WorkerCrashError):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_payload_raises(self):
        buf = io.BytesIO()
        write_frame(buf, b"hello")
        stream = io.BytesIO(buf.getvalue()[:-2])
        with pytest.raises(WorkerCrashError):
            read_frame(stream)

    def test_oversized_frame_rejected_without_allocating(self):
        buf = io.BytesIO()
        buf.write(worker_mod._FRAME.pack(worker_mod.MAX_FRAME_BYTES + 1))
        buf.seek(0)
        with pytest.raises(WorkerCrashError):
            read_frame(buf)


class TestServeLoopInProcess:
    def _frames(self, *jobs) -> io.BytesIO:
        buf = io.BytesIO()
        for job in jobs:
            write_frame(buf, pickle.dumps(job))
        buf.seek(0)
        return buf

    def _responses(self, out: io.BytesIO) -> list:
        out.seek(0)
        frames = []
        while True:
            frame = read_frame(out)
            if frame is None:
                return frames
            frames.append(pickle.loads(frame))

    def test_ping_run_exit(self):
        scenario = employee()
        request = CQARequest(
            scenario.db, scenario.constraints, scenario.queries["Q1"]
        )
        out = io.BytesIO()
        rc = serve_loop(
            self._frames(
                {"op": "ping"},
                {"engine": "fo-mem", "request": request},
                {"op": "exit"},
            ),
            out,
        )
        assert rc == 0
        pong, answer, goodbye = self._responses(out)
        assert pong["op"] == "pong" and pong["pid"] == os.getpid()
        assert pong["served"] == 0 and pong["rss_kb"] > 0
        assert answer["ok"] and answer["complete"]
        assert answer["served"] == 1  # every answer is a health sample
        assert goodbye["op"] == "exit" and goodbye["served"] == 1

    def test_eof_between_frames_is_clean_exit(self):
        assert serve_loop(self._frames({"op": "ping"}), io.BytesIO()) == 0

    def test_malformed_job_answered_not_fatal(self):
        buf = io.BytesIO()
        write_frame(buf, b"not a pickle at all")
        write_frame(buf, pickle.dumps({"op": "ping"}))
        buf.seek(0)
        out = io.BytesIO()
        assert serve_loop(buf, out) == 0
        error, pong = self._responses(out)
        assert not error["ok"] and error["kind"] == "failure"
        assert pong["op"] == "pong"  # the loop survived the bad frame

    def test_truncated_stream_reports_protocol_death(self):
        buf = io.BytesIO()
        write_frame(buf, pickle.dumps({"op": "ping"}))
        stream = io.BytesIO(buf.getvalue()[:-1])
        assert serve_loop(stream, io.BytesIO()) == 1


# ----------------------------------------------------------------------
# One-shot teardown hygiene (the watchdog-kill regression)
# ----------------------------------------------------------------------


class TestOneShotTeardown:
    def test_repeated_watchdog_kills_leak_nothing(self, monkeypatch):
        """Watchdog kills must reap the child and close its pipe fds —
        the old path leaked both on every WorkerTimeoutError."""
        monkeypatch.setattr(worker_mod, "MIN_WATCHDOG_S", 0.1)
        scenario = employee()
        request = CQARequest(
            scenario.db, scenario.constraints, scenario.queries["Q1"]
        )
        fds_before = _open_fds()
        for _ in range(5):
            with pytest.raises(WorkerTimeoutError):
                run_isolated(
                    "fm-sql", request, watchdog_s=0.1, wedge_s=60.0
                )
        assert _zombie_children() == []
        assert _open_fds() == fds_before


# ----------------------------------------------------------------------
# The supervised pool
# ----------------------------------------------------------------------


def _request():
    scenario = employee()
    return (
        CQARequest(
            scenario.db, scenario.constraints, scenario.queries["Q2"]
        ),
        consistent_answers(
            scenario.db, scenario.constraints, scenario.queries["Q2"]
        ),
    )


class TestWorkerPool:
    def test_warm_worker_is_reused_across_requests(self):
        pool = WorkerPool(PoolConfig(size=1)).start()
        try:
            request, ref = _request()
            first_pid = pool.stats()["pids"][0]
            for _ in range(3):
                answer = pool.run_engine(
                    "fm-sql", request, watchdog_s=30.0
                )
                assert answer.complete and answer.answers == ref
            stats = pool.stats()
            assert stats["pids"] == [first_pid]  # same process, 3 jobs
            assert stats["spawns"] == 1 and stats["recycles"] == 0
        finally:
            pool.drain()

    def test_recycled_after_max_requests(self):
        pool = WorkerPool(PoolConfig(size=1, max_requests=2)).start()
        try:
            request, ref = _request()
            first_pid = pool.stats()["pids"][0]
            for _ in range(3):
                answer = pool.run_engine(
                    "fm-sql", request, watchdog_s=30.0
                )
                assert answer.answers == ref
                assert pool.wait_ready(timeout_s=30.0)
            stats = pool.stats()
            assert stats["recycle_reasons"].get("max-requests", 0) >= 1
            assert first_pid not in stats["pids"]
            assert not _pid_alive(first_pid)
        finally:
            pool.drain()

    def test_planned_recycles_never_empty_the_pool(self):
        # Two workers handed jobs in turn reach max_requests one job
        # apart; each keeps serving until its replacement is warm.
        pool = WorkerPool(PoolConfig(size=2, max_requests=3)).start()
        try:
            request, ref = _request()
            with collect() as collector:
                for _ in range(20):
                    answer = pool.run_engine(
                        "fm-sql", request, watchdog_s=30.0
                    )
                    assert answer.answers == ref
                    assert pool.idle_count() > 0
                assert collector.counter("pool.saturated") == 0
            assert pool.wait_ready(timeout_s=30.0)
            stats = pool.stats()
            assert stats["recycle_reasons"].get("max-requests", 0) >= 2
            assert len(stats["pids"]) == 2
        finally:
            pool.drain()

    @pytest.mark.parametrize("spawn_fails", [False, True])
    def test_retiring_worker_that_crashes_is_replaced_once(
        self, spawn_fails
    ):
        # A worker crashes while its planned replacement is spawning:
        # the pool must come back to exactly its size, whether that
        # replacement is admitted or fails and has to be backfilled.
        pool = WorkerPool(PoolConfig(size=2, max_requests=1)).start()
        gate = threading.Event()
        spawn_warm = pool._spawn_warm  # noqa: SLF001
        first = [True]

        def gated_spawn():
            gate.wait(30.0)
            if spawn_fails and first[0]:
                first[0] = False
                raise WorkerError("replacement failed to start")
            return spawn_warm()

        pool._spawn_warm = gated_spawn  # noqa: SLF001
        try:
            request, ref = _request()
            hostage = pool._idle.get()  # noqa: SLF001 — pin the other one
            try:
                answer = pool.run_engine("fm-sql", request, watchdog_s=30.0)
                assert answer.answers == ref  # its worker is now retiring
                with pytest.raises(WorkerCrashError):
                    pool.run_engine(
                        "fm-sql", request, watchdog_s=30.0, crash_code=3
                    )
            finally:
                pool._idle.put(hostage)  # noqa: SLF001
            gate.set()
            assert pool.wait_ready(timeout_s=30.0)
            stats = pool.stats()
            assert len(stats["pids"]) == 2
            assert stats["recycles"] == 1
            assert stats["spawns"] == 3
        finally:
            gate.set()
            pool.drain()

    def test_recycled_when_rss_exceeds_cap(self):
        # Any real worker's RSS exceeds 1 KiB, so the first check-in
        # must retire it — and the answer must still come back first.
        pool = WorkerPool(PoolConfig(size=1, max_rss_kb=1)).start()
        try:
            request, ref = _request()
            answer = pool.run_engine("fm-sql", request, watchdog_s=30.0)
            assert answer.answers == ref
            assert pool.wait_ready(timeout_s=30.0)
            assert pool.stats()["recycle_reasons"].get("rss", 0) >= 1
        finally:
            pool.drain()

    def test_rss_ballast_hook_shows_up_in_report(self):
        pool = WorkerPool(PoolConfig(size=1)).start()
        try:
            request, _ = _request()
            pool.run_engine("fm-sql", request, watchdog_s=30.0)
            baseline = pool.stats()
            worker_rss = [
                w.rss_kb for w in pool._workers  # noqa: SLF001
            ][0]
            pool.run_engine(
                "fm-sql", request, watchdog_s=30.0, pad_rss_kb=20_000
            )
            grown = [w.rss_kb for w in pool._workers][0]  # noqa: SLF001
            assert grown >= worker_rss + 15_000
            assert baseline["recycles"] == 0
        finally:
            pool.drain()

    def test_crash_mid_request_is_typed_and_backfilled(self):
        pool = WorkerPool(PoolConfig(size=1)).start()
        try:
            request, ref = _request()
            first_pid = pool.stats()["pids"][0]
            with pytest.raises(WorkerCrashError):
                pool.run_engine(
                    "fm-sql", request, watchdog_s=30.0, crash_code=3
                )
            assert not _pid_alive(first_pid)
            assert pool.wait_ready(timeout_s=30.0)  # respawner caught up
            answer = pool.run_engine("fm-sql", request, watchdog_s=30.0)
            assert answer.answers == ref
            assert pool.stats()["recycle_reasons"].get("crash", 0) == 1
        finally:
            pool.drain()

    def test_wedged_worker_killed_at_literal_deadline(self):
        # No MIN_WATCHDOG_S floor for warm workers: they already paid
        # start-up, so a 0.3s deadline means 0.3s.
        pool = WorkerPool(PoolConfig(size=1)).start()
        try:
            request, _ = _request()
            first_pid = pool.stats()["pids"][0]
            started = time.monotonic()
            with collect() as collector:
                with pytest.raises(WorkerTimeoutError):
                    pool.run_engine(
                        "fm-sql",
                        request,
                        watchdog_s=0.3,
                        wedge_s=60.0,
                    )
                assert collector.counter("dispatch.worker_kills") == 1
            assert time.monotonic() - started < 5.0
            assert not _pid_alive(first_pid)
            assert (
                pool.stats()["recycle_reasons"].get("timeout", 0) == 1
            )
        finally:
            pool.drain()

    def test_saturation_fails_fast_without_queueing(self):
        pool = WorkerPool(
            PoolConfig(size=1, grab_timeout_s=0.1)
        ).start()
        try:
            request, _ = _request()
            hostage = pool._idle.get()  # noqa: SLF001 — occupy the pool
            try:
                started = time.monotonic()
                with pytest.raises(PoolSaturatedError):
                    pool.run_engine("fm-sql", request, watchdog_s=5.0)
                assert time.monotonic() - started < 2.0
            finally:
                pool._idle.put(hostage)  # noqa: SLF001
        finally:
            pool.drain()

    def test_heartbeat_retires_dead_idle_worker(self):
        pool = WorkerPool(PoolConfig(size=1)).start()
        try:
            pid = pool.stats()["pids"][0]
            os.kill(pid, 9)  # dies while idle: no request will notice
            report = pool.health_check(deadline_s=2.0)
            assert report == {"checked": 1, "retired": 1}
            assert pool.wait_ready(timeout_s=30.0)
            request, ref = _request()
            answer = pool.run_engine("fm-sql", request, watchdog_s=30.0)
            assert answer.answers == ref
        finally:
            pool.drain()

    def test_drain_leaves_no_processes_and_refuses_new_work(self):
        pool = WorkerPool(PoolConfig(size=2)).start()
        pids = pool.stats()["pids"]
        assert len(pids) == 2
        pool.drain()
        for pid in pids:
            assert not _pid_alive(pid)
        stats = pool.stats()
        assert stats["workers"] == 0 and stats["draining"]
        request, _ = _request()
        with pytest.raises(PoolSaturatedError):
            pool.run_engine("fm-sql", request, watchdog_s=5.0)

    def test_drain_is_idempotent(self):
        pool = WorkerPool(PoolConfig(size=1)).start()
        pool.drain()
        pool.drain()
        assert pool.stats()["workers"] == 0


class TestDispatcherWithPool:
    def test_isolated_rung_runs_on_the_pool(self):
        pool = WorkerPool(PoolConfig(size=1)).start()
        try:
            scenario = employee()
            query = scenario.queries["Q2"]
            ref = consistent_answers(
                scenario.db, scenario.constraints, query
            )
            d = Dispatcher(
                DispatchPolicy(isolate=("fm-sql",)), pool=pool
            )
            with collect() as collector:
                result = d.dispatch(
                    scenario.db, scenario.constraints, query
                )
                assert collector.counter("pool.dispatches") == 1
            assert result.complete and result.answers == ref
            assert result.provenance.engine == "fm-sql"
        finally:
            pool.drain()

    def test_saturated_rung_falls_through_without_breaker_penalty(self):
        pool = WorkerPool(
            PoolConfig(size=1, grab_timeout_s=0.1)
        ).start()
        try:
            scenario = employee()
            query = scenario.queries["Q1"]
            ref = consistent_answers(
                scenario.db, scenario.constraints, query
            )
            d = Dispatcher(
                DispatchPolicy(isolate=("fm-sql",)), pool=pool
            )
            hostage = pool._idle.get()  # noqa: SLF001
            try:
                result = d.dispatch(
                    scenario.db, scenario.constraints, query
                )
            finally:
                pool._idle.put(hostage)  # noqa: SLF001
            # Saturation is unavailability, not failure: the ladder
            # falls through and the rung's breaker stays untouched.
            assert result.complete and result.answers == ref
            assert result.provenance.engine == "fo-mem"
            rung = result.provenance.rungs[0]
            assert rung.engine == "fm-sql"
            assert rung.status == "saturated"
            assert d.breakers["fm-sql"].failures == 0
        finally:
            pool.drain()


class TestPoolConcurrency:
    def test_parallel_callers_share_two_workers_correctly(self):
        pool = WorkerPool(PoolConfig(size=2)).start()
        try:
            request, ref = _request()
            results, errors = [], []

            def caller():
                try:
                    answer = pool.run_engine(
                        "fm-sql", request, watchdog_s=30.0
                    )
                    results.append(answer.answers)
                except PoolSaturatedError:
                    errors.append("saturated")

            threads = [
                threading.Thread(target=caller) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Every completed call is exactly right; callers that found
            # the pool busy failed fast instead of queueing.
            assert all(answers == ref for answers in results)
            assert len(results) + len(errors) == 8
            assert results  # at least the first two grabs succeed
        finally:
            pool.drain()


# ----------------------------------------------------------------------
# Resident tenants: full instance once, then deltas
# ----------------------------------------------------------------------


def _tenant_version():
    from repro.dispatch.resident import TenantVersion

    scenario = employee()
    return TenantVersion(
        "emp", scenario.db, scenario.constraints, (0, 1)
    ), scenario


def _resident_request(version, scenario, query="Q2"):
    return CQARequest(
        version.db,
        version.constraints,
        scenario.queries[query],
        tenant=version,
    )


class TestResidentTenants:
    def _advance(self, version, insert=(), delete=(), key=None):
        from repro.dispatch.resident import derive

        db, delta = derive(version.db, delete, insert)
        return version.advance(db, delta, key or (0, version.key[1] + 1))

    def test_deltas_after_one_full_ship(self):
        from repro.relational import fact

        pool = WorkerPool(PoolConfig(size=1)).start()
        try:
            version, scenario = _tenant_version()
            for step in range(4):
                request = _resident_request(version, scenario)
                answer = pool.run_engine("fm-sql", request, watchdog_s=30.0)
                assert answer.answers == consistent_answers(
                    version.db, version.constraints, request.query
                )
                version = self._advance(
                    version, insert=[fact("Employee", f"n{step}", "1K")]
                )
            assert pool.stats()["resident"] == {
                "hits": 3, "misses": 1, "delta_records": 3,
            }
        finally:
            pool.drain()

    def test_worker_miss_resends_the_full_instance(self):
        from repro.relational import fact

        pool = WorkerPool(PoolConfig(size=1)).start()
        try:
            version, scenario = _tenant_version()
            pool.run_engine(
                "fm-sql", _resident_request(version, scenario),
                watchdog_s=30.0,
            )
            # The pool believes the worker holds a version it does not:
            # the worker answers resident-miss and gets the full copy.
            version = self._advance(
                version, insert=[fact("Employee", "zed", "9K")]
            )
            newer = self._advance(
                version, insert=[fact("Employee", "zed", "1K")]
            )
            (worker,) = pool._workers  # noqa: SLF001
            worker.resident["emp"] = version.key
            request = _resident_request(newer, scenario)
            answer = pool.run_engine("fm-sql", request, watchdog_s=30.0)
            assert answer.answers == consistent_answers(
                newer.db, newer.constraints, request.query
            )
            assert worker.resident["emp"] == newer.key
            assert pool.stats()["resident"]["misses"] == 2
        finally:
            pool.drain()

    def test_evicted_tenant_is_reshipped_in_full(self, monkeypatch):
        from repro.dispatch import resident as resident_mod
        from repro.dispatch.resident import TenantVersion
        from repro.dispatch.worker import _execute_job
        from repro.relational import fact

        class InProcessWorker:
            """Runs jobs through the worker's own code in this process,
            so the patched memory bound applies to it."""

            pid, worker_id, served, rss_kb = os.getpid(), 0, 0, 0
            retiring = replaced = False

            class proc:
                @staticmethod
                def poll():
                    return None

            def __init__(self):
                self.resident = {}
                self.residents = resident_mod.ResidentSet()
                self.calls = 0

            def call(self, job, deadline_s):
                self.calls += 1
                job = pickle.loads(pickle.dumps(job))
                return _execute_job(job, self.residents)

        # Each tenant is charged at least RESIDENT_TENANT_FLOOR facts,
        # so a worker holds one of two tenants at a time.
        monkeypatch.setattr(
            resident_mod,
            "RESIDENT_FACTS_LIMIT",
            resident_mod.RESIDENT_TENANT_FLOOR + 1,
        )
        pool = WorkerPool(PoolConfig(size=1))
        worker = InProcessWorker()
        pool._admit(worker)  # noqa: SLF001
        scenario = employee()
        a = TenantVersion("a", scenario.db, scenario.constraints, (0, 1))
        b = TenantVersion("b", scenario.db, scenario.constraints, (0, 1))
        for version in (a, b):
            pool.run_engine(
                "fm-sql", _resident_request(version, scenario),
                watchdog_s=30.0,
            )
        assert worker.resident == {"b": (0, 1)}  # "a" was evicted
        a = self._advance(a, insert=[fact("Employee", "zed", "9K")])
        request = _resident_request(a, scenario)
        answer = pool.run_engine("fm-sql", request, watchdog_s=30.0)
        assert answer.answers == consistent_answers(
            a.db, a.constraints, request.query
        )
        # Shipped in full at once: no delta job, no resident-miss.
        assert worker.calls == 3
        assert pool.stats()["resident"] == {
            "hits": 0, "misses": 3, "delta_records": 0,
        }
        assert worker.resident == {"a": a.key}

    def test_delta_frame_without_base_is_a_structured_miss(self):
        from repro.dispatch.worker import build_job, child_main

        version, scenario = _tenant_version()
        job = build_job("fm-sql", _resident_request(version, scenario))
        job["request"] = job["request"].__class__(
            None, version.constraints, job["request"].query
        )
        job["resident"] = {
            "tenant": "never-shipped", "key": (0, 9), "base": (0, 8),
            "deltas": [],
        }
        out = io.BytesIO()
        assert child_main(io.BytesIO(pickle.dumps(job)), out) == 0
        result = pickle.loads(out.getvalue())
        assert not result["ok"] and result["kind"] == "resident-miss"

    def test_tenant_never_crosses_the_process_boundary(self):
        from repro.dispatch.worker import build_job

        version, scenario = _tenant_version()
        job = build_job("fm-sql", _resident_request(version, scenario))
        assert job["request"].tenant is None
        pickle.dumps(job)  # the version's locks would not pickle
