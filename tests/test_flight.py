"""Flight recorder & deterministic replay.

The acceptance contract under test: a request recorded under a seeded
fault plan replays **bit-for-bit** (answer + per-rung provenance +
outcome), capture is automatic on anomaly signals and on demand, the
explain plane renders the decision trail, and the recorder's always-on
overhead stays under the 5% instrumentation budget (the same op-count
discipline as the live plane).
"""

import io
import json
import pickle
import time

import pytest

from repro.constraints.conflicts import ConflictHypergraph
from repro.dispatch import (
    CQARequest,
    DispatchPolicy,
    Dispatcher,
)
from repro.observability.flight import (
    ANOMALY_EVENT_KINDS,
    ENVELOPE_SCHEMA,
    FlightEnvelope,
    FlightRecorder,
    canonical_answer,
    canonical_json,
    constraints_digest,
    current_recorder,
    flight_begin,
    flight_decision,
    flight_end,
    flight_installed,
    flight_shadow,
    instance_digest,
    normalize_reason,
    predict_rung_cost,
    query_digest,
    read_envelope,
    recording,
    write_envelope,
)
from repro.observability.flight.replay import (
    ReplayReport,
    explain_envelope,
    replay_envelope,
    replay_file,
)
from repro.observability.live import live, request_scope
from repro.runtime import Budget, FaultPlan, inject
from repro.workloads import employee, employee_key_violations


def _record_all(scenario, query, *, policy=None, plan=None, budget=None):
    """Dispatch one request under a capture-everything recorder."""
    recorder = FlightRecorder(mode="all")
    dispatcher = Dispatcher(policy or DispatchPolicy())
    import contextlib

    faults = inject(plan) if plan is not None else contextlib.nullcontext()
    with recording(recorder), faults:
        try:
            dispatcher.dispatch(
                scenario.db, scenario.constraints, query, budget=budget
            )
        except Exception:
            pass
    return recorder


# ----------------------------------------------------------------------
# Envelope: digests, canonical projections, (de)serialization
# ----------------------------------------------------------------------


class TestEnvelope:
    def test_instance_digest_is_content_addressed(self):
        a, b = employee(), employee()
        assert instance_digest(a.db) == instance_digest(b.db)
        other = employee_key_violations(2, 2, 2, seed=1)
        assert instance_digest(a.db) != instance_digest(other.db)

    def test_constraints_digest_is_order_insensitive(self):
        s = employee_key_violations(2, 2, 2, seed=1)
        cs = tuple(s.constraints)
        assert constraints_digest(cs) == constraints_digest(cs[::-1])

    def test_normalize_reason_masks_wall_clock_fragments(self):
        assert (
            normalize_reason("deadline exceeded (elapsed=3.14s)")
            == "deadline exceeded (elapsed=*)"
        )
        assert (
            normalize_reason("engine x exceeded its 2.0s watchdog")
            == "engine x exceeded its * watchdog"
        )
        assert (
            normalize_reason("cooldown 30s after 3 failure(s)")
            == "cooldown * after 3 failure(s)"
        )
        assert normalize_reason("no timings here") == "no timings here"

    def test_canonical_answer_sorts_rows(self):
        first = canonical_answer(frozenset({("b",), ("a",)}), True)
        second = canonical_answer(frozenset({("a",), ("b",)}), True)
        assert first == second
        assert first["rows"] == [["'a'"], ["'b'"]]

    def test_roundtrip_through_file(self, tmp_path):
        scenario = employee()
        recorder = _record_all(scenario, scenario.queries["Q1"])
        env = recorder.captured[-1]
        path = write_envelope(tmp_path, env)
        loaded = read_envelope(path)
        assert loaded.envelope_id == env.envelope_id
        assert loaded.answer == env.answer
        assert loaded.provenance == env.provenance
        db, constraints, query = loaded.unpack_payload()
        assert instance_digest(db) == env.digests["instance"]
        assert query_digest(query) == env.digests["query"]

    def test_schema_mismatch_is_rejected(self, tmp_path):
        scenario = employee()
        recorder = _record_all(scenario, scenario.queries["Q1"])
        record = recorder.captured[-1].to_dict()
        record["schema"] = ENVELOPE_SCHEMA + 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record, default=repr))
        with pytest.raises(ValueError, match="unsupported envelope"):
            read_envelope(path)

    def test_content_id_is_stable_and_discriminating(self):
        scenario = employee()
        first = _record_all(scenario, scenario.queries["Q1"])
        second = _record_all(scenario, scenario.queries["Q1"])
        assert (
            first.captured[-1].envelope_id
            == second.captured[-1].envelope_id
        )
        other = _record_all(scenario, scenario.queries["Q2"])
        assert (
            first.captured[-1].envelope_id
            != other.captured[-1].envelope_id
        )


# ----------------------------------------------------------------------
# Recorder: capture modes, anomaly triggers, install stack
# ----------------------------------------------------------------------


class TestRecorder:
    def test_free_functions_are_noops_when_uninstalled(self):
        assert not flight_installed()
        assert current_recorder() is None
        flight_begin(None, request_id=None, policy={}, budget=None,
                     fault_plan=None, breakers={}, shape_stats=None)
        flight_decision(engine="x", status="ok")
        flight_shadow(True)
        flight_end("ok", "x")  # silent no-ops, nothing raised

    def test_all_mode_captures_clean_requests(self):
        scenario = employee()
        recorder = _record_all(scenario, scenario.queries["Q1"])
        assert len(recorder.captured) == 1
        env = recorder.captured[-1]
        assert env.trigger == ()
        assert env.outcome["status"] == "ok"
        assert env.answer["complete"] is True

    def test_anomaly_mode_skips_clean_requests(self):
        scenario = employee()
        recorder = FlightRecorder(mode="anomaly")
        with recording(recorder):
            Dispatcher().dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q1"]
            )
        assert recorder.requests_seen == 1
        assert len(recorder.captured) == 0

    def test_anomaly_mode_captures_breaker_trip(self):
        scenario = employee()
        recorder = FlightRecorder(mode="anomaly")
        policy = DispatchPolicy(failure_threshold=1)
        dispatcher = Dispatcher(policy)
        plan = FaultPlan(seed=3, sqlite_failure_rate=1.0)
        with recording(recorder), inject(plan):
            dispatcher.dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q1"]
            )
        assert len(recorder.captured) == 1
        env = recorder.captured[-1]
        assert "breaker.transition" in env.trigger
        statuses = [d["status"] for d in env.decisions]
        assert "failed" in statuses and "ok" in statuses

    def test_anomaly_mode_captures_budget_exhaustion(self):
        scenario = employee_key_violations(2, 3, 2, seed=4)
        recorder = FlightRecorder(mode="anomaly")
        # A checkpoint-heavy ladder so the starvation fault actually
        # bites before the rung can answer.
        policy = DispatchPolicy(ladder=("enumerate", "certain-core"))
        plan = FaultPlan(seed=5, starve_steps_after=5)
        with recording(recorder), inject(plan):
            try:
                Dispatcher(policy).dispatch(
                    scenario.db,
                    scenario.constraints,
                    scenario.queries["all"],
                    budget=Budget(max_steps=10_000),
                )
            except Exception:
                pass
        assert len(recorder.captured) == 1
        assert "budget.exhausted" in recorder.captured[-1].trigger

    def test_slo_breach_triggers_capture(self):
        scenario = employee()
        # An unmeetable SLO: every request breaches, so the otherwise
        # clean dispatch below must be captured with the slo trigger.
        recorder = FlightRecorder(mode="anomaly", slo_latency_ms=-1.0)
        with recording(recorder):
            Dispatcher().dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q1"]
            )
        assert len(recorder.captured) == 1
        assert "slo.breach" in recorder.captured[-1].trigger

    def test_writes_envelopes_to_out_dir(self, tmp_path):
        scenario = employee()
        recorder = FlightRecorder(tmp_path, mode="all")
        with recording(recorder):
            Dispatcher().dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q1"]
            )
        assert len(recorder.written) == 1
        assert read_envelope(recorder.written[0]).outcome["status"] == "ok"

    def test_install_stack_nests_and_restores(self):
        outer, inner = FlightRecorder(), FlightRecorder()
        with recording(outer):
            assert current_recorder() is outer
            with recording(inner):
                assert current_recorder() is inner
            assert current_recorder() is outer
        assert current_recorder() is None

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(mode="sometimes")

    def test_predict_rung_cost_scales_enumerate_by_component(self):
        small = predict_rung_cost(
            "enumerate", {"edges": 4, "max_component_size": 2}, 100
        )
        large = predict_rung_cost(
            "enumerate", {"edges": 4, "max_component_size": 12}, 100
        )
        assert large > small * 100
        assert predict_rung_cost("fm-sql", None, 0) > 0


# ----------------------------------------------------------------------
# Replay: the bit-for-bit acceptance contract
# ----------------------------------------------------------------------


class TestReplay:
    def test_clean_request_replays_identically(self):
        scenario = employee()
        recorder = _record_all(scenario, scenario.queries["Q2"])
        report = replay_envelope(recorder.captured[-1])
        assert report.ok, report.render()
        assert report.divergent() == []
        assert "OK" in report.render()

    def test_seeded_fault_plan_replays_bit_for_bit(self):
        """The acceptance test: a request recorded mid-stream under a
        seeded fault plan — injected SQLite failures, a tripped rung,
        carried-over breaker counters — replays identically."""
        scenario = employee_key_violations(3, 3, 2, seed=5)
        query = scenario.queries["all"]
        recorder = FlightRecorder(mode="all")
        dispatcher = Dispatcher(
            DispatchPolicy(shadow_rate=1.0, shadow_seed=9)
        )
        plan = FaultPlan(
            seed=11, sqlite_failure_rate=1.0, max_sqlite_failures=8
        )
        with recording(recorder), inject(plan):
            dispatcher.dispatch(scenario.db, scenario.constraints, query)
            dispatcher.dispatch(scenario.db, scenario.constraints, query)
        assert len(recorder.captured) == 2
        for env in recorder.captured:
            report = replay_envelope(env)
            assert report.ok, report.render()

    def test_step_starvation_replays_bit_for_bit(self):
        scenario = employee_key_violations(2, 3, 2, seed=4)
        recorder = FlightRecorder(mode="all")
        policy = DispatchPolicy(ladder=("enumerate", "certain-core"))
        plan = FaultPlan(seed=12, starve_steps_after=5)
        with recording(recorder), inject(plan):
            try:
                Dispatcher(policy).dispatch(
                    scenario.db,
                    scenario.constraints,
                    scenario.queries["all"],
                    budget=Budget(max_steps=10_000),
                )
            except Exception:
                pass
        env = recorder.captured[-1]
        report = replay_envelope(env)
        assert report.ok, report.render()

    def test_replay_restores_open_breaker_decision(self):
        """A request recorded while a breaker was open must replay the
        same breaker-open skip, even though the replaying dispatcher is
        fresh."""
        scenario = employee()
        recorder = FlightRecorder(mode="all")
        dispatcher = Dispatcher(DispatchPolicy(failure_threshold=1))
        plan = FaultPlan(seed=3, sqlite_failure_rate=1.0)
        with recording(recorder), inject(plan):
            dispatcher.dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q1"]
            )
            dispatcher.dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q1"]
            )
        second = recorder.captured[-1]
        assert second.breakers["fm-sql"]["state"] == "open"
        statuses = [d["status"] for d in second.decisions]
        assert "breaker-open" in statuses
        report = replay_envelope(second)
        assert report.ok, report.render()

    def test_divergence_is_detected_and_rendered(self):
        scenario = employee()
        recorder = _record_all(scenario, scenario.queries["Q1"])
        env = recorder.captured[-1]
        env.answer = dict(env.answer)
        env.answer["rows"] = [["'forged'"]]
        report = replay_envelope(env)
        assert not report.ok
        assert "answer" in report.divergent()
        assert "DIVERGED" in report.render()

    def test_replay_file(self, tmp_path):
        scenario = employee()
        recorder = _record_all(scenario, scenario.queries["Q1"])
        path = write_envelope(tmp_path, recorder.captured[-1])
        assert replay_file(path).ok

    def test_replay_refuses_nested_fault_plan(self):
        scenario = employee()
        plan = FaultPlan(seed=2, sqlite_failure_rate=0.5)
        recorder = _record_all(
            scenario, scenario.queries["Q1"], plan=plan
        )
        env = recorder.captured[-1]
        with inject(FaultPlan(seed=1)):
            with pytest.raises(Exception, match="fault plan"):
                replay_envelope(env)


# ----------------------------------------------------------------------
# Explain: the human rendering
# ----------------------------------------------------------------------


class TestExplain:
    def test_explain_renders_decision_trail(self):
        scenario = employee_key_violations(3, 3, 2, seed=5)
        recorder = _record_all(
            scenario,
            scenario.queries["all"],
            policy=DispatchPolicy(shadow_rate=1.0, shadow_seed=9),
            plan=FaultPlan(
                seed=11, sqlite_failure_rate=1.0, max_sqlite_failures=8
            ),
        )
        text = explain_envelope(recorder.captured[-1])
        assert "ladder decisions:" in text
        assert "conflict shape:" in text
        assert "fault plan: seed=11" in text
        assert "predicted=" in text and "actual=" in text
        assert "outcome:" in text

    def test_explain_shows_shadow_verdict(self):
        scenario = employee()
        recorder = _record_all(
            scenario,
            scenario.queries["Q1"],
            policy=DispatchPolicy(shadow_rate=1.0),
        )
        text = explain_envelope(recorder.captured[-1])
        assert "shadow: sampled=True" in text
        assert "agreed" in text


# ----------------------------------------------------------------------
# Dispatcher integration details
# ----------------------------------------------------------------------


class TestDispatcherIntegration:
    def test_shape_stats_cached_per_instance(self, monkeypatch):
        """Satellite: the dispatcher builds the conflict hypergraph once
        per (db, constraints), not once per request."""
        calls = {"n": 0}
        real_build = ConflictHypergraph.build

        def counting_build(db, constraints):
            calls["n"] += 1
            return real_build(db, constraints)

        monkeypatch.setattr(
            ConflictHypergraph, "build", staticmethod(counting_build)
        )
        scenario = employee()
        dispatcher = Dispatcher()
        with recording(FlightRecorder(mode="all")):
            for _ in range(3):
                dispatcher.dispatch(
                    scenario.db,
                    scenario.constraints,
                    scenario.queries["Q1"],
                )
            # An equal instance parsed afresh (a repeated inline
            # payload) is the same (db, constraints).
            copy = employee()
            assert copy.db is not scenario.db
            dispatcher.dispatch(
                copy.db, copy.constraints, copy.queries["Q1"]
            )
        assert calls["n"] == 1
        assert dispatcher._inline[0] is scenario.db  # one remembered

    def test_shape_stats_memoized_on_hypergraph(self):
        scenario = employee()
        graph = ConflictHypergraph.build(
            scenario.db, scenario.constraints
        )
        first = graph.shape_stats()
        first["edges"] = -99  # callers get copies, not the cache
        second = graph.shape_stats()
        assert second["edges"] != -99
        assert second == graph.shape_stats()

    def test_no_stats_computed_when_nothing_observes(self, monkeypatch):
        calls = {"n": 0}
        real_build = ConflictHypergraph.build

        def counting_build(db, constraints):
            calls["n"] += 1
            return real_build(db, constraints)

        monkeypatch.setattr(
            ConflictHypergraph, "build", staticmethod(counting_build)
        )
        scenario = employee()
        dispatcher = Dispatcher()
        dispatcher.dispatch(
            scenario.db, scenario.constraints, scenario.queries["Q1"]
        )
        assert calls["n"] == 0
        assert dispatcher._inline is None

    def test_shadow_sampled_recorded_per_draw(self):
        scenario = employee()
        recorder = FlightRecorder(mode="all")
        dispatcher = Dispatcher(
            DispatchPolicy(shadow_rate=0.5, shadow_seed=1)
        )
        with recording(recorder):
            for _ in range(8):
                dispatcher.dispatch(
                    scenario.db,
                    scenario.constraints,
                    scenario.queries["Q1"],
                )
        sampled = [env.shadow_sampled for env in recorder.captured]
        assert True in sampled and False in sampled
        for env in recorder.captured:
            assert replay_envelope(env).ok


# ----------------------------------------------------------------------
# Worker boundary: request-id propagation + event marshalling
# ----------------------------------------------------------------------


class TestWorkerBoundary:
    def _job(self, **extra):
        scenario = employee_key_violations(2, 3, 2, seed=4)
        request = CQARequest(
            scenario.db,
            tuple(scenario.constraints),
            scenario.queries["all"],
            "s",
        )
        job = {
            # enumerate checkpoints per repair, so a pre-expired budget
            # is guaranteed to fire inside the child
            "engine": "enumerate",
            "request": request,
            "budget_timeout": None,
            "wedge_s": None,
            "request_id": "r424242",
            "collect_events": True,
        }
        job.update(extra)
        return job

    def _run_child(self, job):
        from repro.dispatch.worker import child_main

        out = io.BytesIO()
        assert child_main(io.BytesIO(pickle.dumps(job)), out) == 0
        return pickle.loads(out.getvalue())

    def test_child_runs_under_parent_request_id(self):
        # An immediately-exhausted budget makes the child emit a
        # budget.exhausted event, which must carry the propagated id.
        result = self._run_child(self._job(budget_timeout=1e-9))
        assert result["ok"] is False and result["kind"] == "budget"
        kinds = [e["kind"] for e in result["events"]]
        assert "budget.exhausted" in kinds
        assert all(
            e["request_id"] == "r424242" for e in result["events"]
        )
        assert all(
            "seq" not in e and "ts" not in e for e in result["events"]
        )

    def test_child_without_collection_sends_no_events(self):
        result = self._run_child(self._job(collect_events=False))
        assert result["ok"] is True
        assert "events" not in result

    def test_parent_reemits_child_events(self):
        from repro.dispatch.worker import _replay_child_events

        with live() as plane, request_scope("r000777"):
            _replay_child_events(
                [
                    {
                        "kind": "budget.exhausted",
                        "request_id": "r424242",
                        "reason": "deadline",
                    },
                    {"kind": "not.a.kind", "x": 1},  # dropped, not raised
                ]
            )
        records = plane.events.records(kind="budget.exhausted")
        assert len(records) == 1
        assert records[0]["request_id"] == "r000777"
        assert records[0]["worker"] is True
        assert records[0]["reason"] == "deadline"

    def test_isolated_rung_worker_kill_reaches_recorder(self):
        """A watchdog kill inside an isolated rung is an anomaly: the
        worker.kill event crosses back and triggers capture."""
        scenario = employee()
        recorder = FlightRecorder(mode="anomaly")
        dispatcher = Dispatcher(
            DispatchPolicy(isolate=("fm-sql",), watchdog_s=2.0)
        )
        import repro.dispatch.dispatcher as dispatcher_mod

        original = dispatcher_mod.run_isolated

        def wedge(engine_name, request, **kwargs):
            kwargs["wedge_s"] = 30.0
            return original(engine_name, request, **kwargs)

        dispatcher_mod.run_isolated = wedge
        try:
            with recording(recorder):
                result = dispatcher.dispatch(
                    scenario.db,
                    scenario.constraints,
                    scenario.queries["Q1"],
                )
        finally:
            dispatcher_mod.run_isolated = original
        assert result.complete  # fo-mem picked it up
        assert len(recorder.captured) == 1
        assert "worker.kill" in recorder.captured[-1].trigger


# ----------------------------------------------------------------------
# Overhead: the <5% instrumentation budget
# ----------------------------------------------------------------------


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestFlightOverhead:
    def test_recorder_overhead_under_five_percent(self):
        """Op-count budget, mirroring the live plane's overhead test:
        (recorder ops per request x per-op cost) < 5% of the request's
        wall time.  The always-on anomaly mode never builds envelopes
        for clean requests, so only the begin/decision/event/end dict
        ops count."""
        scenario = employee()
        query = scenario.queries["Q2"]

        def workload():
            Dispatcher().dispatch(
                scenario.db, scenario.constraints, query
            )

        wall = min(_timed(workload) for _ in range(3))

        recorder = FlightRecorder(mode="anomaly")
        with recording(recorder):
            workload()
        assert len(recorder.captured) == 0  # clean request, no envelope
        ops = recorder.op_count
        assert ops > 0

        # Per-op enabled cost: the costliest hook is decision() with
        # its predict_rung_cost call; amortise it over a tight loop.
        bench = FlightRecorder(mode="anomaly")
        request = CQARequest(
            scenario.db, tuple(scenario.constraints), query, "s"
        )
        bench.begin(
            request,
            request_id="r1",
            policy={},
            budget=None,
            fault_plan=None,
            breakers={},
            shape_stats={"edges": 2, "max_component_size": 2},
        )
        loops = 5000
        start = time.perf_counter()
        for _ in range(loops):
            bench.decision(engine="fm-sql", status="ok", slice_s=None)
        op_cost = (time.perf_counter() - start) / loops

        budget = ops * op_cost
        assert budget < 0.05 * wall, (
            f"recorder cost {budget * 1e6:.1f}us exceeds 5% of workload "
            f"{wall * 1e6:.1f}us ({ops} recorder ops)"
        )
