"""Property-based tests (hypothesis): resident tenant versions.

A registered tenant moves forward by deltas, never by rebuilding, and
pool workers keep it resident between requests.  That is only sound if
every shortcut agrees with the long way round:

* **derivation** — the O(delta) ``Database`` equals a from-scratch
  build of the same facts, tids and tid counter included;
* **conflict maintenance** — shape stats folded forward through the
  delta log (asked at random points, with the log trimmed or not)
  equal ``ConflictHypergraph.build(...).shape_stats()``;
* **resident answers** — over random put / mutate / del / bootstrap /
  promote sequences on interleaved tenants, with forced worker
  recycles and a short delta log, every answer a 2-worker pool gives
  equals the in-process cold-path answer on the store's durable copy.
  Bootstraps change every tenant's contents (or none), so a worker
  answering from a pre-bootstrap version would show as a wrong answer.
"""

import itertools
import os
import sys
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import ConflictHypergraph
from repro.dispatch import (
    DispatchPolicy,
    Dispatcher,
    PoolConfig,
    WorkerPool,
    resident,
)
from repro.dispatch.resident import TenantVersion, derive
from repro.logic.parser import parse_query
from repro.relational import Database, fact
from repro.serve import CQAService
from repro.serve.specs import parse_constraints, parse_database
from repro.serve.store import StorePolicy, TenantStore

_KEYS = "abcd"
_VALUES = "123"

_R_FACT = st.tuples(st.sampled_from(_KEYS), st.sampled_from(_VALUES))
_FACT = st.one_of(
    _R_FACT.map(lambda kv: fact("R", *kv)),
    st.sampled_from(_KEYS).map(lambda k: fact("S", k)),
)
_DELTA = st.tuples(
    st.lists(_FACT, max_size=3), st.lists(_FACT, max_size=3)
)

_MIXED_SPEC = {
    "relations": {
        "R": {"columns": ["K", "V"], "key": ["K"],
              "rows": [["a", "1"], ["a", "2"], ["b", "1"]]},
        "S": {"columns": ["K"], "rows": [["b"]]},
    },
    "constraints": {"fd": ["R: K -> V"], "dc": [":- R(X, Y), S(X)"]},
}


def _reference(db: Database, delete, insert) -> Database:
    """``db.delete(delete).insert(insert)`` through the validating
    constructor, one fact at a time."""
    facts = db.facts_with_tids()
    by_fact = {f: tid for tid, f in facts.items()}
    for f in delete:
        if f in by_fact:
            del facts[by_fact.pop(f)]
    counter = db.next_tid
    for f in insert:
        if f not in by_fact:
            by_fact[f] = f"t{counter}"
            facts[f"t{counter}"] = f
            counter += 1
    return Database(db.schema, facts, counter)


@settings(max_examples=80, deadline=None)
@given(st.lists(_DELTA, max_size=8))
def test_derived_database_equals_a_from_scratch_build(deltas):
    db = parse_database(_MIXED_SPEC)
    for delete, insert in deltas:
        expected = _reference(db, delete, insert)
        old, (db, delta) = db, derive(db, delete, insert)
        assert db.facts_with_tids() == expected.facts_with_tids()
        assert db.next_tid == expected.next_tid
        for name in db.schema.names():
            assert dict(db.relation_index(name)) == dict(
                expected.relation_index(name)
            )
            assert db.relation(name) == expected.relation(name)
        assert all(db.tid_of(f) == expected.tid_of(f) for f in expected)
        assert {tid for tid, _ in delta.deleted} == old.tids() - db.tids()
        assert {tid for tid, _ in delta.inserted} == db.tids() - old.tids()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_DELTA, st.booleans()), max_size=10),
    st.booleans(),
)
def test_maintained_shape_stats_equal_a_fresh_build(steps, short_log):
    constraints = tuple(parse_constraints(_MIXED_SPEC["constraints"]))
    log_size = 2 if short_log else resident.DELTA_LOG_RECORDS
    with mock.patch.object(resident, "DELTA_LOG_RECORDS", log_size):
        version = TenantVersion(
            "t", parse_database(_MIXED_SPEC), constraints, (0, 0)
        )
        version.shape_stats()
        for lsn, ((delete, insert), ask) in enumerate(steps, 1):
            version = version.advance(
                *derive(version.db, delete, insert), (0, lsn)
            )
            if ask or lsn == len(steps):
                fresh = ConflictHypergraph.build(version.db, constraints)
                assert version.shape_stats() == fresh.shape_stats()
                assert version._lineage.index.edges == set(fresh.edges)


def test_versions_stay_consistent_under_concurrent_readers():
    """One writer advances a tenant while more reader threads than
    cores fold its conflict graph and replay its delta log; a lost
    update to the shared log or index shows as a wrong graph or a
    replayed instance that differs from the version it claims."""
    constraints = tuple(parse_constraints(_MIXED_SPEC["constraints"]))
    first = TenantVersion(
        "t", parse_database(_MIXED_SPEC), constraints, (0, 0)
    )
    latest = [first]
    errors = []
    done = threading.Event()

    def writer():
        version = first
        for lsn in range(1, 150):
            key = _KEYS[lsn % 4]
            delete = [fact("R", key, _VALUES[(lsn - 1) % 3])]
            insert = [fact("R", key, _VALUES[lsn % 3])]
            if lsn % 7 == 0:
                insert.append(fact("S", key))
            version = version.advance(
                *derive(version.db, delete, insert), (0, lsn)
            )
            latest[0] = version
        done.set()

    def reader():
        while not done.is_set() and not errors:
            version = latest[0]
            fresh = ConflictHypergraph.build(version.db, constraints)
            if version.shape_stats() != fresh.shape_stats():
                errors.append(f"stats differ at {version.key}")
            deltas = version.deltas_since(first.key)
            if deltas is not None:
                db = first.db
                for delta in deltas:
                    db = derive(db, *delta.wire())[0]
                if db != version.db:
                    errors.append(f"log replay differs at {version.key}")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader)
            for _ in range((os.cpu_count() or 1) + 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert done.is_set()
    assert errors == []


# ----------------------------------------------------------------------
# The service over a real 2-worker pool
# ----------------------------------------------------------------------

_TENANTS = ("t0", "t1", "t2")
_QUERIES = (
    "Q(X) :- R(X, Y)",
    "Q(X, Y) :- R(X, Y)",
    "Q(Y) :- R('a', Y)",
)
_ROWS = st.lists(
    _R_FACT.map(list), min_size=1, max_size=6
)
_OP = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(_TENANTS), _ROWS),
    st.tuples(
        st.just("mutate"),
        st.sampled_from(_TENANTS),
        st.lists(_R_FACT.map(list), max_size=2),
        st.lists(_R_FACT.map(list), max_size=2),
    ),
    st.tuples(st.just("del"), st.sampled_from(_TENANTS)),
    st.tuples(
        st.just("read"),
        st.sampled_from(_TENANTS),
        st.sampled_from(_QUERIES),
    ),
    st.tuples(st.just("bootstrap"), st.booleans(), st.booleans()),
    st.tuples(st.just("promote")),
    st.tuples(st.just("recycle")),
)

_EXAMPLES = itertools.count()


@pytest.fixture(scope="module")
def shared_pool():
    pool = WorkerPool(PoolConfig(size=2)).start()
    try:
        yield pool
    finally:
        pool.drain()


def _key_spec(rows):
    return {
        "relations": {
            "R": {"columns": ["K", "V"], "key": ["K"], "rows": rows}
        },
        "constraints": {"fd": ["R: K -> V"]},
    }


def _shifted(spec):
    """The same tenant with different contents (a bootstrap from a
    primary whose history went elsewhere)."""
    rows = spec["relations"]["R"]["rows"]
    return _key_spec(rows[1:] + [["z", str(len(rows))]])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_ROWS, min_size=1, max_size=len(_TENANTS)),
    st.lists(_OP, min_size=1, max_size=14),
    st.booleans(),
)
def test_resident_answers_equal_cold_answers(
    shared_pool, initial, ops, short_log
):
    # Tenant names are unique per example: the pool outlives services.
    prefix = f"e{next(_EXAMPLES)}-"
    log_size = 2 if short_log else resident.DELTA_LOG_RECORDS
    cold = Dispatcher(DispatchPolicy())
    with tempfile.TemporaryDirectory() as data_dir, mock.patch.object(
        resident, "DELTA_LOG_RECORDS", log_size
    ):
        store = TenantStore(data_dir, StorePolicy(fsync="never"))
        svc = CQAService(
            policy=DispatchPolicy(isolate=("fm-sql",)),
            pool=shared_pool,
            store=store,
        )
        svc.recover()
        try:
            # Both workers start out holding every initial tenant.
            for tenant, rows in zip(_TENANTS, initial):
                _apply(svc, shared_pool, cold, prefix, ("put", tenant, rows))
                for _ in range(2):
                    _check_read(svc, cold, prefix + tenant, _QUERIES[1])
            for op in ops:
                _apply(svc, shared_pool, cold, prefix, op)
        finally:
            store.close()


def _apply(svc, pool, cold, prefix, op):
    kind = op[0]
    if kind == "put":
        name = prefix + op[1]
        assert svc.register_db(name, _key_spec(op[2]))[0] == 200
    elif kind == "mutate":
        svc.handle_mutate(prefix + op[1], {
            "delete": [["R", *row] for row in op[2]],
            "insert": [["R", *row] for row in op[3]],
        })
    elif kind == "del":
        svc.remove_db(prefix + op[1])
    elif kind == "read":
        _check_read(svc, cold, prefix + op[1], op[2])
    elif kind == "bootstrap":
        store = svc.store
        specs = {
            name: _shifted(spec) if op[2] else spec
            for name, spec in store.state_transfer()["databases"].items()
        }
        svc.install_replica_state({
            "databases": specs,
            "lsn": store.last_lsn + 3,
            "epoch": store.epoch + int(op[1]),
        })
    elif kind == "promote":
        svc._role = "follower"
        assert svc.handle_replica_promote()[0] == 200
    if kind in ("bootstrap", "promote"):
        # Reach both workers (they take jobs in turn) with every tenant.
        for name in list(svc._databases):
            for _ in range(2):
                _check_read(svc, cold, name, _QUERIES[1])
    elif kind == "recycle":
        worker = pool._idle.get(timeout=30.0)
        pool._retire(worker, "test")
        assert pool.wait_ready(timeout_s=30.0)


def _check_read(svc, cold, name, query):
    """The pooled answer equals the cold in-process answer on the
    store's durable spec of the tenant (not on the registry's version,
    so a registry that went stale is caught too)."""
    spec = svc.store.state_transfer()["databases"].get(name)
    status, body, _ = svc.handle_cqa({"db": name, "query": query})
    if spec is None:
        assert status == 400
        return
    expected = cold.dispatch(
        parse_database(spec),
        parse_constraints(spec.get("constraints")),
        parse_query(query),
    )
    assert status == 200 and body["complete"]
    assert body["answers"] == sorted(list(row) for row in expected.answers)
