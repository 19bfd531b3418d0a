"""Tiny-size self-tests of the serving benchmark (no server is started).

Run from the root of a checkout::

    python3 -m pytest -q servebench
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
from stats import MIN_TAIL_SAMPLES, self_time, spread, summary, tail  # noqa: E402


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generators_are_pure_functions_of_the_seed(name):
    make = gen.WORKLOADS[name]
    assert make(3, 2) == make(3, 2)
    assert make(3, 2) != make(4, 2)


def test_counts_depend_on_seconds_not_on_the_seed():
    def ops(workload):
        return len(workload.measured)

    for name, make in gen.WORKLOADS.items():
        assert ops(make(1, 5)) == ops(make(2, 5)), name


def _employee_db(state):
    from repro.serve.specs import parse_constraints, parse_database

    spec = gen.employee_spec(state)
    return parse_database(spec), parse_constraints(spec["constraints"])


@pytest.mark.parametrize("seed", range(5))
def test_employee_oracle_matches_consistent_answers(seed):
    from repro.cqa import consistent_answers
    from repro.logic.parser import parse_query

    rng = random.Random(seed)
    state = gen.employee_state(rng, 6, 0.34, set())
    names = list(state)
    for _ in range(4):
        gen._mutation(rng, state, names, set(state))
    db, constraints = _employee_db(state)

    def cons(text):
        return sorted(
            list(row)
            for row in consistent_answers(db, constraints, parse_query(text))
        )

    assert cons(gen.PROJECTION_QUERY) == gen.employee_answers(
        state, "projection"
    )
    for name in names + ["absent"]:
        query = gen.POINT_QUERY.format(name=name)
        assert cons(query) == gen.employee_answers(state, "point", name)


def test_small_tenant_answers_survive_renaming():
    from repro.cqa import consistent_answers
    from repro.logic.parser import parse_query
    from repro.serve.specs import parse_constraints, parse_database

    workload = gen.many_small_tenants(7, 1)
    reads = {
        (op.payload["db"], op.payload["query"]): op.expect
        for op in workload.measured if op.kind == "read"
    }
    tenants = {t.name: t.spec for t in workload.tenants}
    canonical = gen.canonical_small_tenants()
    for index in range(8):  # two tenants of each shape kind
        name = f"t{index:03d}"
        spec = tenants[name]
        db = parse_database(spec)
        constraints = parse_constraints(spec["constraints"])
        for query in canonical[index][0].queries:
            got = sorted(
                list(row)
                for row in consistent_answers(db, constraints, parse_query(query))
            )
            assert reads[(name, query)] == got


def test_tail_needs_ten_samples_beyond_it():
    values = list(range(1, 100))  # 99 samples: 9.9 beyond p90
    assert tail(values, 0.90) is None
    values = list(range(1, 101))  # 100 samples: 10 beyond p90
    assert tail(values, 0.90) == 90
    assert tail(values, 0.99) is None
    assert "p90" in summary(values) and "p99" not in summary(values)
    assert MIN_TAIL_SAMPLES == 10


def test_spread_is_iqr_over_median():
    med, q1, q3, rel = spread([10, 10, 10, 10])
    assert (med, rel) == (10, 0.0)
    med, q1, q3, rel = spread([8, 9, 10, 11, 12])
    assert rel == pytest.approx((q3 - q1) / med)


def test_self_time_subtracts_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    # Overlapping children count once; a child sticking out of the
    # parent is clipped to it.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0)]) == 6.0
    assert self_time(0.0, 10.0, [(8.0, 12.0), (-1.0, 1.0)]) == 7.0
    assert self_time(0.0, 10.0, [(2.0, 3.0), (2.0, 3.0)]) == 9.0


def test_request_tree_parents_by_containment():
    from layers import Span, request_trees

    def span(name, start, end):
        return Span(name, start, end, "r1", "measure", None)

    root = span("request", 0.0, 1.0)
    spans = [
        span("http.route", 0.1, 0.9),
        span("service.cqa", 0.2, 0.8),
        span("pool.call", 0.3, 0.5),
        span("http.encode", 0.9, 0.95),
    ]
    tree = dict(
        (s.name, round(self_ms, 6))
        for s, self_ms in request_trees(spans, {"r1": root})["r1"]
    )
    assert tree == {
        "request": 150.0,  # 1.0 - (0.1..0.9) - (0.9..0.95)
        "http.route": 200.0,
        "service.cqa": 400.0,
        "pool.call": 200.0,
        "http.encode": 50.0,
    }
    assert sum(tree.values()) == pytest.approx(1000.0)


def test_route_self_time_counts_as_unattributed():
    from layers import Span, request_trees, unattributed_share

    root = Span("request", 0.0, 1.0, "r1")
    spans = [
        Span("net.transit", 0.0, 0.1, "r1"),
        Span("http.route", 0.1, 0.9, "r1"),
        Span("service.cqa", 0.2, 0.8, "r1"),
        Span("net.transit", 0.95, 1.0, "r1"),
    ]
    tree = request_trees(spans, {"r1": root})["r1"]
    # The route's 0.2 outside the service and the root's 0.05 between
    # the route and the response leg are time no layer accounts for.
    assert unattributed_share(tree) == pytest.approx(0.25)


def test_transit_legs_join_client_and_server_timestamps():
    from client import Reply
    from layers import Span, Tracer, transit_spans

    tracer = Tracer()
    tracer.requests["r1"] = (None, Reply(200, {}, sent_at=0.1, head_at=0.9),
                             "measure")
    tracer.requests["r2"] = (None, Reply(200, {}, sent_at=0.3, head_at=0.5),
                             "measure")
    tracer.record("http.parse", 0.2, 0.25, "r1")
    tracer.record("http.parse", 0.4, 0.45, "r1")  # the body, later
    tracer.record("http.encode", 0.7, 0.8, "r1")
    # r2's server read its first line before the client's send returned:
    # no leg where the timestamps overlap.
    tracer.record("http.parse", 0.25, 0.3, "r2")
    tracer.record("http.encode", 0.4, 0.45, "r2")
    roots = {rid: Span("request", 0.0, 1.0, rid) for rid in ("r1", "r2")}
    legs = sorted((s.rid, s.start, s.end) for s in transit_spans(tracer, roots))
    assert legs == [("r1", 0.1, 0.2), ("r1", 0.8, 0.9), ("r2", 0.45, 0.5)]
