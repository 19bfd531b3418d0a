"""The serving layer: admission control, handlers, HTTP, and soundness.

The end-to-end test runs a real server (real pool, real sockets, real
load generator) and is the slowest test here; everything else drives
the layers directly — the handlers are plain functions returning
``(status, body, headers)`` precisely so they can be tested without a
socket in sight.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.dispatch import DispatchPolicy, PoolConfig, WorkerPool
from repro.serve import (
    AdmissionController,
    CQAHTTPServer,
    CQAService,
    LoadReport,
    ServerConfig,
    ShedError,
    TenantPolicy,
    run_closed_loop,
)
from repro.serve.loadgen import _classify


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


#: Examples 3.3/3.4 as a wire-format database spec: the key constraint
#: Name → Salary is violated by the two page tuples.
EMPLOYEE_SPEC = {
    "relations": {
        "Employee": {
            "columns": ["Name", "Salary"],
            "key": ["Name"],
            "rows": [
                ["page", "5K"],
                ["page", "8K"],
                ["smith", "3K"],
                ["stowe", "7K"],
            ],
        }
    },
    "constraints": {"fd": ["Employee: Name -> Salary"]},
}

#: Certain answers to Q(X) :- Employee(X, Y) on that instance.
CERTAIN_NAMES = [["page"], ["smith"], ["stowe"]]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_clamp_timeout(self):
        c = AdmissionController(
            TenantPolicy(default_timeout_s=5.0, max_timeout_s=30.0)
        )
        assert c.clamp_timeout(None) == 5.0
        assert c.clamp_timeout(7.0) == 7.0
        assert c.clamp_timeout(1000.0) == 30.0
        assert c.clamp_timeout(-3.0) == pytest.approx(0.001)

    def test_finish_releases_the_slot(self):
        c = AdmissionController(TenantPolicy(max_concurrent=1))
        ticket = c.admit("t", timeout_s=1.0)
        assert c.stats()["t"]["inflight"] == 1
        ticket.finish("ok", elapsed_s=0.01)
        assert c.stats()["t"]["inflight"] == 0
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)  # slot is free

    def test_finish_is_idempotent(self):
        c = AdmissionController(TenantPolicy(max_concurrent=1))
        ticket = c.admit("t", timeout_s=1.0)
        ticket.finish("ok", 0.01)
        ticket.finish("ok", 0.01)  # must not double-release
        assert c.stats()["t"]["inflight"] == 0

    def test_queue_full_sheds_immediately(self):
        c = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue=0)
        )
        ticket = c.admit("t", timeout_s=5.0)
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=5.0)
        assert exc_info.value.reason == "queue-full"
        assert exc_info.value.status == 429
        ticket.finish("ok", 0.01)

    def test_quota_exhausted_until_window_rolls(self):
        clock = FakeClock()
        c = AdmissionController(
            TenantPolicy(quota_requests=2, quota_window_s=60.0),
            clock=clock,
        )
        for _ in range(2):
            c.admit("t", timeout_s=1.0).finish("ok", 0.01)
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=1.0)
        assert exc_info.value.reason == "quota-exhausted"
        # Retry-After points at the window boundary, not a guess.
        assert 0.0 < exc_info.value.retry_after_s <= 60.0
        clock.advance(60.0)
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)  # fresh window

    def test_quota_is_per_tenant(self):
        clock = FakeClock()
        c = AdmissionController(
            TenantPolicy(quota_requests=1, quota_window_s=60.0),
            clock=clock,
        )
        c.admit("a", timeout_s=1.0).finish("ok", 0.01)
        with pytest.raises(ShedError):
            c.admit("a", timeout_s=1.0)
        c.admit("b", timeout_s=1.0).finish("ok", 0.01)  # b unaffected

    def test_erroring_tenant_is_cut_off_with_503(self):
        clock = FakeClock()
        c = AdmissionController(
            TenantPolicy(failure_threshold=2, cooldown_s=5.0),
            clock=clock,
        )
        for _ in range(2):
            c.admit("t", timeout_s=1.0).finish("error", 0.01)
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=1.0)
        assert exc_info.value.reason == "tenant-breaker-open"
        assert exc_info.value.status == 503
        # After the cooldown the probe is admitted again.
        clock.advance(5.0)
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)

    def test_sheds_do_not_count_against_the_tenant_breaker(self):
        c = AdmissionController(
            TenantPolicy(
                max_concurrent=1, max_queue=0, failure_threshold=1
            )
        )
        ticket = c.admit("t", timeout_s=1.0)
        for _ in range(3):  # shedding is the controller working
            with pytest.raises(ShedError):
                c.admit("t", timeout_s=1.0)
        ticket.finish("ok", 0.01)
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)  # still admitted

    def test_deadline_unreachable_sheds_before_queueing(self):
        c = AdmissionController(TenantPolicy(max_concurrent=1))
        ticket = c.admit("t", timeout_s=5.0)
        state = c._tenant("t")  # noqa: SLF001 — seed the EWMA
        state.ewma_s = 10.0
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=0.5)
        assert exc_info.value.reason == "deadline-unreachable"
        assert exc_info.value.retry_after_s >= 10.0
        ticket.finish("ok", 0.01)

    def test_fresh_tenant_is_never_shed_on_a_guess(self):
        # EWMA seeds at zero: with no history, deadline-unreachable
        # cannot fire no matter how short the timeout.
        c = AdmissionController(TenantPolicy(max_concurrent=4))
        c.admit("t", timeout_s=0.001).finish("ok", 0.0005)

    def test_queue_timeout_sheds_after_the_deadline(self):
        c = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue=4)
        )
        ticket = c.admit("t", timeout_s=5.0)
        started = time.monotonic()
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=0.2)
        waited = time.monotonic() - started
        assert exc_info.value.reason == "queue-timeout"
        assert 0.15 <= waited < 2.0
        ticket.finish("ok", 0.01)

    def test_waiter_is_woken_when_a_slot_frees(self):
        c = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue=4)
        )
        first = c.admit("t", timeout_s=5.0)
        admitted = threading.Event()

        def waiter():
            c.admit("t", timeout_s=5.0).finish("ok", 0.01)
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)  # let the waiter reach cond.wait
        assert not admitted.is_set()
        first.finish("ok", 0.01)
        thread.join(timeout=5.0)
        assert admitted.is_set()


# ----------------------------------------------------------------------
# Service handlers (no pool, no sockets)
# ----------------------------------------------------------------------


class TestServiceHandlers:
    def test_register_list_query_remove_cycle(self):
        svc = CQAService()
        status, body, _ = svc.register_db("emp", EMPLOYEE_SPEC)
        assert status == 200
        assert body == {"db": "emp", "facts": 4, "constraints": 1}
        status, body, _ = svc.list_dbs()
        assert body["databases"]["emp"]["facts"] == 4
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 200
        assert body["complete"] and body["outcome"] == "ok"
        assert body["answers"] == CERTAIN_NAMES
        status, _, _ = svc.remove_db("emp")
        assert status == 200
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 400

    def test_inline_instance_is_one_shot(self):
        svc = CQAService()
        payload = dict(EMPLOYEE_SPEC)
        payload["query"] = "Q(X, Y) :- Employee(X, Y)"
        status, body, _ = svc.handle_cqa(payload)
        assert status == 200
        assert body["answers"] == [["smith", "3K"], ["stowe", "7K"]]
        assert svc.list_dbs()[1]["databases"] == {}  # nothing persisted

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ({}, "relations"),
            ({"relations": {"R": []}}, "must be an object"),
            ({"relations": {"R": {"rows": []}}}, "columns"),
            (
                {
                    "relations": {
                        "R": {"columns": ["a", "b"], "rows": [["x"]]}
                    }
                },
                "2 values",
            ),
        ],
    )
    def test_bad_database_specs_are_400(self, spec, fragment):
        svc = CQAService()
        status, body, _ = svc.register_db("bad", spec)
        assert status == 400
        assert fragment in body["error"]

    def test_invalid_database_name_is_400(self):
        svc = CQAService()
        assert svc.register_db("", EMPLOYEE_SPEC)[0] == 400
        assert svc.register_db("a/b", EMPLOYEE_SPEC)[0] == 400

    def test_bad_query_is_400_not_500(self):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "not a query"}
        )
        assert status == 400 and "request_id" in body
        status, _, _ = svc.handle_cqa({"db": "emp", "query": 42})
        assert status == 400

    def test_repairs_endpoint_with_limit(self):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_repairs(
            {"db": "emp", "semantics": "s"}
        )
        assert status == 200 and body["complete"]
        # Two S-repairs: keep page/5K or keep page/8K.
        assert len(body["repairs"]) == 2
        deleted = sorted(
            repair["deleted"][0] for repair in body["repairs"]
        )
        assert deleted == [
            ["Employee", "page", "5K"],
            ["Employee", "page", "8K"],
        ]
        status, body, _ = svc.handle_repairs(
            {"db": "emp", "semantics": "s", "limit": 1}
        )
        assert status == 200
        assert len(body["repairs"]) == 1 and not body["complete"]
        assert body["outcome"] == "degraded"

    def test_repairs_validation(self):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        assert (
            svc.handle_repairs({"db": "emp", "semantics": "x"})[0] == 400
        )
        assert (
            svc.handle_repairs({"db": "emp", "limit": 0})[0] == 400
        )
        assert (
            svc.handle_repairs({"db": "emp", "limit": "many"})[0] == 400
        )

    def test_inconsistency_report(self):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_report("emp")
        assert status == 200
        assert body["size"] == 4
        assert body["repair_distance"] == 1  # drop one page tuple
        assert svc.handle_report("nope")[0] == 404

    def test_shed_response_shape(self):
        svc = CQAService(
            admission=AdmissionController(
                TenantPolicy(quota_requests=0, quota_window_s=60.0)
            )
        )
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, headers = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 429
        assert body["error"] == "shed"
        assert body["reason"] == "quota-exhausted"
        assert isinstance(body["retry_after_s"], float)
        assert "Retry-After" in headers

    def test_health_without_pool(self):
        status, body, _ = CQAService().health()
        assert status == 200 and body["status"] == "ok"


# ----------------------------------------------------------------------
# The degrade path: saturated pool → sound certain-core answers
# ----------------------------------------------------------------------


class _SaturatedPool:
    """Quacks like a WorkerPool with every worker busy."""

    def idle_count(self):
        return 0

    def drain(self, timeout_s=None):
        pass

    def stats(self):
        return {"workers": 2, "idle": 0, "draining": False}


class TestDegradeOnSaturation:
    def test_degraded_answers_are_a_sound_subset(self):
        svc = CQAService(
            policy=DispatchPolicy(isolate=("fm-sql",)),
            pool=_SaturatedPool(),
        )
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 200
        assert body["outcome"] == "degraded"
        assert body["complete"] is False
        assert body["engine"] == "certain-core"
        assert body["degraded_reason"] == "pool-saturated"
        # The soundness contract: never a wrong tuple, only fewer.
        certain = {tuple(row) for row in CERTAIN_NAMES}
        assert {tuple(row) for row in body["answers"]} <= certain

    def test_no_degrade_when_isolation_is_off(self):
        # A saturated pool only matters for rungs that would use it.
        svc = CQAService(
            policy=DispatchPolicy(isolate=()), pool=_SaturatedPool()
        )
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 200
        assert body["complete"] and body["outcome"] == "ok"
        assert body["answers"] == CERTAIN_NAMES


    def test_no_degrade_when_the_first_rung_runs_in_process(self):
        # A denial-constraint tenant never reaches fm-sql (the pooled
        # rung): its ladder starts in process, so a saturated pool must
        # not cost it completeness.
        svc = CQAService(
            policy=DispatchPolicy(isolate=("fm-sql",)),
            pool=_SaturatedPool(),
        )
        svc.register_db("dc", {
            "relations": {
                "P": {"columns": ["X", "Y"],
                      "rows": [["a", "1"], ["b", "2"], ["c", "3"]]},
                "N": {"columns": ["X"], "rows": [["b"]]},
            },
            "constraints": {"dc": [":- P(X, Y), N(X)"]},
        })
        status, body, _ = svc.handle_cqa(
            {"db": "dc", "query": "Q(X) :- P(X, Y)"}
        )
        assert status == 200
        assert body["complete"] and body["outcome"] == "ok"
        assert body["engine"] != "certain-core"
        assert "degraded_reason" not in body
        assert body["answers"] == [["a"], ["c"]]


# ----------------------------------------------------------------------
# Load-generator response classification
# ----------------------------------------------------------------------


class TestLoadgenClassify:
    def _report(self):
        return LoadReport()

    def _ok_body(self, answers, complete):
        return {"answers": answers, "complete": complete}

    def test_exact_answer_counts_ok(self):
        report = self._report()
        _classify(
            200, {}, self._ok_body(CERTAIN_NAMES, True),
            CERTAIN_NAMES, report,
        )
        assert report.ok == 1 and report.sound

    def test_wrong_complete_answer_is_unsound(self):
        report = self._report()
        _classify(
            200, {}, self._ok_body([["page"]], True),
            CERTAIN_NAMES, report,
        )
        assert report.wrong == 1 and not report.sound

    def test_degraded_subset_is_sound(self):
        report = self._report()
        _classify(
            200, {}, self._ok_body([["page"]], False),
            CERTAIN_NAMES, report,
        )
        assert report.degraded == 1 and report.sound

    def test_degraded_superset_is_unsound(self):
        report = self._report()
        _classify(
            200,
            {},
            self._ok_body(CERTAIN_NAMES + [["intruder"]], False),
            CERTAIN_NAMES,
            report,
        )
        assert report.wrong == 1 and not report.sound

    def test_well_formed_shed(self):
        report = self._report()
        _classify(
            429,
            {"retry-after": "1"},
            {"error": "shed", "reason": "queue-full",
             "retry_after_s": 0.5},
            CERTAIN_NAMES,
            report,
        )
        assert report.shed == 1 and report.sound

    def test_malformed_shed_fails_the_gate(self):
        report = self._report()
        _classify(429, {}, {"error": "overloaded"}, None, report)
        assert report.malformed == 1 and not report.sound

    def test_missing_answers_key_is_malformed(self):
        report = self._report()
        _classify(200, {}, {"status": "fine"}, None, report)
        assert report.malformed == 1 and not report.sound


# ----------------------------------------------------------------------
# End to end: real pool, real sockets, real load
# ----------------------------------------------------------------------


class _ServerHarness:
    """Runs a CQAHTTPServer on a private event-loop thread."""

    def __init__(self, service, config):
        self.server = CQAHTTPServer(service, config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )

    def __enter__(self):
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=30.0)
        self._serving = asyncio.run_coroutine_threadsafe(
            self.server.serve_forever(), self.loop
        )
        return self.server

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=60.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()

    def request(self, method, path, payload=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=30.0
        )
        try:
            body = (
                json.dumps(payload).encode() if payload is not None
                else None
            )
            conn.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"}
                if body
                else {},
            )
            response = conn.getresponse()
            raw = response.read()
            parsed = json.loads(raw) if raw and raw[:1] in (b"{", b"[") \
                else raw.decode("utf-8", "replace")
            return response.status, parsed
        finally:
            conn.close()


def _pid_alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(") ", 1)[1][0] != "Z"
    except OSError:
        return False


class TestEndToEnd:
    def test_serve_under_concurrency_is_sound_and_leak_free(self):
        pool = WorkerPool(PoolConfig(size=1)).start()
        pids = pool.stats()["pids"]
        service = CQAService(
            policy=DispatchPolicy(isolate=("fm-sql",)),
            pool=pool,
            admission=AdmissionController(
                TenantPolicy(max_concurrent=4, max_queue=8)
            ),
        )
        harness = _ServerHarness(
            service, ServerConfig(port=0, max_inflight=6)
        )
        with harness as server:
            status, body = harness.request(
                "PUT", "/v1/db/emp", EMPLOYEE_SPEC
            )
            assert status == 200 and body["facts"] == 4
            status, body = harness.request("GET", "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body = harness.request("GET", "/v1/db/emp/report")
            assert status == 200 and body["repair_distance"] == 1
            status, text = harness.request("GET", "/metrics")
            assert status == 200 and isinstance(text, str)
            status, body = harness.request("GET", "/nope")
            assert status == 404
            report = run_closed_loop(
                "127.0.0.1",
                server.port,
                {
                    "db": "emp",
                    "query": "Q(X) :- Employee(X, Y)",
                    "timeout_s": 20.0,
                },
                total=12,
                concurrency=3,
                expect=CERTAIN_NAMES,
            )
            # Soundness under contention: every 200 is exact or an
            # explicit subset; sheds (if any) are well-formed.
            assert report.sound, report.render()
            assert report.transport_errors == 0
            assert report.ok + report.degraded + report.shed == 12
            assert report.ok >= 1
            status, body = harness.request("DELETE", "/v1/db/emp")
            assert status == 200
            status, body = harness.request(
                "POST",
                "/v1/cqa",
                {"db": "emp", "query": "Q(X) :- Employee(X, Y)"},
            )
            assert status == 400
        # Graceful stop drained the pool: no worker survives.
        for pid in pids:
            assert not _pid_alive(pid)
        assert pool.stats()["workers"] == 0
