"""The CQA service: named databases, handlers, and the degrade path.

One :class:`CQAService` owns everything the HTTP layer needs but HTTP
knows nothing about: a registry of named tenants, each at its current
:class:`~repro.dispatch.resident.TenantVersion` (moved forward by
deltas, kept resident in pool workers), one shared
:class:`~repro.dispatch.Dispatcher` (breaker state lives across
requests) over an optional warm :class:`~repro.dispatch.WorkerPool`,
and the
:class:`~repro.serve.admission.AdmissionController` front door.

Handlers take a parsed JSON payload and return ``(status, body,
headers)`` — plain data, callable from the asyncio server's executor
threads, from tests, or from a future transport.  All are thread-safe.

The soundness contract under overload mirrors the ladder's: when the
worker pool reports no idle capacity and the request's first usable
rung runs on it, the CQA path does not queue behind it — it answers
immediately from the anytime **certain-core bracket** (a sound
under-approximation marked ``complete: false``), or sheds if even that
is inapplicable.  A served answer is therefore
always either exact or an explicitly-marked subset; pressure changes
latency and completeness, never correctness.

With a :class:`~repro.serve.store.TenantStore` attached (``serve
--data-dir``), the registry is *durable*: every state-mutating handler
acknowledges only after its WAL append is durable per the store's
fsync policy, and startup runs :meth:`CQAService.recover` — until it
completes the service is in phase ``recovering`` and every handler
that touches the registry answers 503 (``/healthz`` included, so load
balancers hold traffic).  A store write failure flips the service to
crash-only mode: mutations refuse with 503 until a restart
re-establishes truth from disk.

Replication adds a *role* axis orthogonal to the phase:

* ``primary`` — the only role that acks mutations; serves
  ``/v1/replica/pull`` to followers and tracks their lag;
* ``follower`` — mutations answer 403 ``not-primary`` (with the
  primary's URL); reads are served under the staleness contract
  (``min_lsn`` in, ``as_of_lsn``/``stale_s`` out, typed 503
  ``stale-read`` when the bound cannot be met); a background
  :class:`~repro.serve.replica.ReplicaClient` pulls the primary's WAL;
* ``fenced`` — a demoted primary: a higher epoch exists, the store
  latches every append with :class:`~repro.serve.store.FencedError`
  (the latch is durable — a restart recovers straight back into
  ``fenced``), mutations answer 403, and reads shed with a typed 503
  (``fenced``) because with no pull feed the node's staleness is
  unknowable.  It re-enters service only as ``--follower-of`` the
  superseding lineage, whose stream clears the latch on catch-up.

The phase gate gains ``catching-up`` (follower replaying toward the
primary's head — not yet serving reads) and ``draining`` (SIGTERM
received: ``/healthz`` flips to 503 so load balancers stop routing,
while in-flight and straggler requests still complete).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..dispatch import (
    CQARequest,
    DispatchError,
    DispatchPolicy,
    Dispatcher,
    get_engine,
)
from ..dispatch.pool import WorkerPool
from ..dispatch.resident import TenantVersion, derive
from ..errors import ReproError
from ..logic.parser import parse_query
from ..measures.inconsistency import InconsistencyReport
from ..observability import add
from ..observability.live import (
    emit_event,
    live_add,
    live_gauge,
    live_observe,
    request_scope,
)
from ..relational.database import Database, fact
from ..repairs import c_repairs_partial, s_repairs_partial
from ..runtime import Budget, use_budget
from .admission import AdmissionController, ShedError
from .replica import ReplicaClient, ReplicaConfig, StaleReadError
from .specs import (
    PayloadError,
    parse_constraints as _parse_constraints,
    parse_database as _parse_database,
    spec_of_instance,
)
from .store import (
    FencedError,
    StoreCorruptionError,
    StoreWriteError,
    TenantStore,
)

__all__ = ["CQAService", "PayloadError"]

Handled = Tuple[int, Dict[str, object], Dict[str, str]]

_NO_HEADERS: Dict[str, str] = {}


def _serialize_repair(repair) -> Dict[str, List[List[object]]]:
    def facts(fact_set) -> List[List[object]]:
        return sorted(
            [fact.relation, *fact.values] for fact in fact_set
        )

    return {
        "deleted": facts(repair.deleted),
        "inserted": facts(repair.inserted),
    }


def _versions_of(
    specs: Dict[str, Dict[str, object]], key: Tuple[int, int]
) -> Dict[str, TenantVersion]:
    """Fresh tenant versions, all under *key*, from stored specs."""
    return {
        name: TenantVersion(
            name,
            _parse_database(spec),
            _parse_constraints(spec.get("constraints")),
            key,
        )
        for name, spec in specs.items()
    }


class CQAService:
    """Handlers over named databases; see the module docstring."""

    def __init__(
        self,
        policy: Optional[DispatchPolicy] = None,
        pool: Optional[WorkerPool] = None,
        admission: Optional[AdmissionController] = None,
        store: Optional[TenantStore] = None,
        clock=time.monotonic,
    ) -> None:
        self.pool = pool
        self.dispatcher = Dispatcher(policy, clock=clock, pool=pool)
        self.admission = admission or AdmissionController(clock=clock)
        self.store = store
        self._clock = clock
        self._lock = threading.Lock()
        #: Registered tenants, each at its current version.
        self._databases: Dict[str, TenantVersion] = {}
        # Version keys when there is no store: (0, n).
        self._counter = itertools.count(1)
        # With a store attached nothing may be served until recover()
        # re-establishes the registry from disk; without one there is
        # nothing to recover and the service is born ready.
        self._phase = "recovering" if store is not None else "ready"
        self._role = "primary"
        self._primary_url: Optional[str] = None
        self._replica: Optional[ReplicaClient] = None
        self._max_stale_s = 5.0
        #: Primary-side per-follower shipping state (lag gauges).
        self._followers: Dict[str, Dict[str, object]] = {}

    # -- durability ----------------------------------------------------

    @property
    def phase(self) -> str:
        """``recovering`` → (``catching-up``) → ``ready`` → ``draining``."""
        return self._phase

    @property
    def role(self) -> str:
        """``primary`` | ``follower`` | ``fenced``."""
        return self._role

    def recover(self) -> Dict[str, object]:
        """Load the durable state and open for traffic (idempotent).

        Snapshot → replay → torn-tail truncation happen inside
        :meth:`TenantStore.recover`; this method turns the recovered
        specs back into live ``(Database, constraints)`` pairs,
        re-warms the worker pool against the recovered tenant set, and
        flips the phase to ``ready``.  Raises
        :class:`~repro.serve.store.StoreCorruptionError` (leaving the
        phase at ``recovering``) rather than serving a state with
        acknowledged writes missing.
        """
        if self.store is None:
            self._phase = "ready"
            return {"phase": self._phase, "databases": 0}
        recovered = self.store.recover()
        databases = _versions_of(
            recovered.specs, (recovered.epoch, recovered.last_lsn)
        )
        with self._lock:
            self._databases = databases
        if recovered.fenced_by is not None:
            # The durable latch survived the restart: a fenced
            # ex-primary reboots fenced, not back into acking at its
            # old epoch.  (``start_follower`` may still turn it into a
            # follower of the superseding lineage.)
            self._role = "fenced"
            emit_event(
                "replica.fence",
                epoch=recovered.fenced_by,
                reason="restored-from-disk",
            )
        if self.pool is not None:
            # The pool outlived nothing (fresh process) — ping every
            # worker so the first post-recovery request hits a warm,
            # verified interpreter rather than paying spawn latency.
            self.pool.health_check()
        self._phase = "ready"
        return {
            "phase": self._phase,
            "databases": len(databases),
            "last_lsn": recovered.last_lsn,
            "records_replayed": recovered.records_replayed,
            "state_digest": recovered.state_digest,
            "elapsed_s": recovered.elapsed_s,
        }

    def _not_ready(self) -> Optional[Handled]:
        # Draining still serves: the 503 lives on /healthz so load
        # balancers stop *routing*, while stragglers complete.
        if self._phase in ("ready", "draining"):
            return None
        add("serve.requests.not_ready")
        live_add("serve.requests.not_ready")
        return (
            503,
            {"error": "not ready", "phase": self._phase},
            {"Retry-After": "1"},
        )

    def _not_primary(self) -> Optional[Handled]:
        """403 every mutation on a node that may not ack writes."""
        if self._role == "primary":
            return None
        add("serve.requests.not_primary")
        live_add("serve.requests.not_primary")
        body: Dict[str, object] = {
            "error": "not-primary",
            "role": self._role,
        }
        if self._primary_url:
            body["primary_url"] = self._primary_url
        return 403, body, _NO_HEADERS

    def _store_unavailable(self, exc: StoreWriteError) -> Handled:
        if isinstance(exc, FencedError):
            # Race window: the store latched between our role gate and
            # the append.  The epoch check is the authority — refuse
            # like any other demoted primary.
            add("serve.requests.not_primary")
            live_add("serve.requests.not_primary")
            return (
                403,
                {
                    "error": "not-primary",
                    "role": self._role,
                    "reason": "fenced",
                    "detail": str(exc),
                },
                _NO_HEADERS,
            )
        add("serve.store_unavailable")
        live_add("serve.store_unavailable")
        return (
            503,
            {
                "error": "store-unavailable",
                "detail": str(exc),
                "phase": self._phase,
            },
            _NO_HEADERS,
        )

    # -- database registry --------------------------------------------

    def _key(self, lsn: Optional[int] = None) -> Tuple[int, int]:
        """The version key of a change just logged at *lsn* (see
        :mod:`repro.dispatch.resident`); a counter without a store."""
        if self.store is None:
            return (0, next(self._counter))
        return (self.store.epoch, lsn)

    def register_db(self, name: str, spec: Dict[str, object]) -> Handled:
        gate = self._not_ready() or self._not_primary()
        if gate is not None:
            return gate
        if not name or "/" in name:
            return self._bad_request(f"invalid database name {name!r}")
        try:
            db = _parse_database(spec)
            constraints = tuple(
                _parse_constraints(spec.get("constraints"))
            )
        except ReproError as exc:
            return self._bad_request(str(exc))
        body: Dict[str, object] = {
            "db": name,
            "facts": len(db),
            "constraints": len(constraints),
        }
        with self._lock:
            lsn = None
            if self.store is not None:
                try:
                    lsn = body["lsn"] = self.store.append_put_db(name, spec)
                except StoreWriteError as exc:
                    return self._store_unavailable(exc)
            self._databases[name] = TenantVersion(
                name, db, constraints, self._key(lsn)
            )
        add("serve.db_registered")
        return 200, body, _NO_HEADERS

    def register_instance(
        self,
        name: str,
        db: Database,
        constraints: Sequence,
        constraint_spec: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        """Register a pre-built instance (the CLI's --csv preload).

        With a store attached the instance is logged durably like any
        other registration; ``constraint_spec`` must then carry the
        textual constraint block (constraint objects do not
        round-trip), and :class:`StoreWriteError` propagates — a
        preload that could not be made durable must not look loaded.
        """
        with self._lock:
            lsn = None
            if self.store is not None:
                lsn = self.store.append_put_db(
                    name, spec_of_instance(db, constraint_spec)
                )
            self._databases[name] = TenantVersion(
                name, db, constraints, self._key(lsn)
            )
        add("serve.db_registered")

    def remove_db(self, name: str) -> Handled:
        gate = self._not_ready() or self._not_primary()
        if gate is not None:
            return gate
        body: Dict[str, object] = {"db": name, "removed": True}
        with self._lock:
            if name not in self._databases:
                return (
                    404,
                    {"error": f"no database {name!r}"},
                    _NO_HEADERS,
                )
            if self.store is not None:
                try:
                    body["lsn"] = self.store.append_del_db(name)
                except StoreWriteError as exc:
                    return self._store_unavailable(exc)
            del self._databases[name]
        return 200, body, _NO_HEADERS

    def handle_mutate(
        self, name: str, payload: Dict[str, object]
    ) -> Handled:
        """POST /v1/db/<name>/mutate — a durable tuple-level delta.

        ``{"insert": [["Rel", v, ...], ...], "delete": [...]}`` — set
        semantics (inserting a present fact or deleting an absent one
        is a no-op), deletes applied before inserts, acknowledged only
        after the WAL append is durable.  The response carries the
        assigned ``lsn``: a client that saw it is entitled to find the
        delta present after any crash.
        """
        gate = self._not_ready() or self._not_primary()
        if gate is not None:
            return gate
        try:
            deletes = self._parse_delta(payload, "delete")
            inserts = self._parse_delta(payload, "insert")
        except PayloadError as exc:
            return self._bad_request(str(exc))
        if not deletes and not inserts:
            return self._bad_request(
                "payload needs a non-empty 'insert' or 'delete' list"
            )
        body: Dict[str, object] = {"db": name}
        with self._lock:
            found = self._databases.get(name)
            if found is None:
                return (
                    404,
                    {"error": f"no database {name!r}"},
                    _NO_HEADERS,
                )
            db = found.db
            try:
                for relation, values in deletes + inserts:
                    schema_rel = db.schema.relations.get(relation)
                    if schema_rel is None:
                        raise PayloadError(
                            f"no relation {relation!r} in {name!r}"
                        )
                    if len(values) != len(schema_rel.attributes):
                        raise PayloadError(
                            f"relation {relation!r} needs "
                            f"{len(schema_rel.attributes)} values"
                        )
                new_db, delta = derive(
                    db,
                    [fact(rel, *values) for rel, values in deletes],
                    [fact(rel, *values) for rel, values in inserts],
                )
            except ReproError as exc:
                return self._bad_request(str(exc))
            lsn = None
            if self.store is not None:
                try:
                    lsn = body["lsn"] = self.store.append_mutate(
                        name,
                        insert=[[r, *v] for r, v in inserts],
                        delete=[[r, *v] for r, v in deletes],
                    )
                except StoreWriteError as exc:
                    return self._store_unavailable(exc)
            self._databases[name] = found.advance(
                new_db, delta, self._key(lsn)
            )
        add("serve.mutations")
        live_add("serve.mutations")
        body.update(
            inserted=len(inserts),
            deleted=len(deletes),
            facts=len(new_db),
        )
        return 200, body, _NO_HEADERS

    @staticmethod
    def _parse_delta(
        payload: Dict[str, object], key: str
    ) -> List[Tuple[str, list]]:
        entries = payload.get(key) or []
        if not isinstance(entries, list):
            raise PayloadError(f"'{key}' must be a list of fact lists")
        out: List[Tuple[str, list]] = []
        for entry in entries:
            if (
                not isinstance(entry, list)
                or not entry
                or not isinstance(entry[0], str)
            ):
                raise PayloadError(
                    f"every '{key}' entry must be "
                    "[\"Relation\", value, ...]"
                )
            out.append((entry[0], entry[1:]))
        return out

    def list_dbs(self) -> Handled:
        with self._lock:
            listing = {
                name: {
                    "facts": len(version.db),
                    "constraints": len(version.constraints),
                }
                for name, version in sorted(self._databases.items())
            }
        return 200, {"databases": listing}, _NO_HEADERS

    def _resolve_instance(
        self,
        payload: Dict[str, object],
        view: Optional[Dict[str, object]] = None,
    ) -> Tuple[Database, Sequence, Optional[TenantVersion]]:
        """The instance a request addresses: a registered name (at its
        current version, which is returned too) or an inline definition
        (one-shot, nothing persisted, no version).

        When a *view* doc is passed, the store's ``last_lsn`` is
        captured into it under the same lock that snapshots the
        registry, so the stamped ``as_of_lsn`` is exactly the LSN the
        served instance reflects — a write landing while the query
        runs cannot inflate it.
        """
        name = payload.get("db")
        if name is not None:
            with self._lock:
                found = self._databases.get(name)
                if view is not None and self.store is not None:
                    view["as_of_lsn"] = self.store.last_lsn
            if found is None:
                raise PayloadError(f"no database {name!r} is registered")
            return found.db, found.constraints, found
        if "relations" in payload:
            if view is not None and self.store is not None:
                view["as_of_lsn"] = self.store.last_lsn
            return (
                _parse_database(payload),
                tuple(_parse_constraints(payload.get("constraints"))),
                None,
            )
        raise PayloadError("payload needs 'db' or inline 'relations'")

    # -- the CQA endpoint ---------------------------------------------

    def handle_cqa(self, payload: Dict[str, object]) -> Handled:
        """POST /v1/cqa — consistent answers through the ladder.

        Degrades to the certain-core bracket when the warm pool is
        saturated; sheds (via the admission controller) before it
        queues past the deadline.
        """
        return self._serve_request(payload, self._run_cqa)

    def handle_repairs(self, payload: Dict[str, object]) -> Handled:
        """POST /v1/repairs — budgeted repair enumeration."""
        return self._serve_request(payload, self._run_repairs)

    def _serve_request(self, payload, runner) -> Handled:
        """Admission, accounting, and the error firewall shared by the
        budgeted endpoints."""
        gate = self._not_ready()
        if gate is not None:
            return gate
        tenant = str(payload.get("tenant") or "default")
        timeout_s = self.admission.clamp_timeout(payload.get("timeout_s"))
        with request_scope() as rid:
            add("serve.requests")
            live_add("serve.requests")
            emit_event("serve.request", tenant=tenant, timeout_s=timeout_s)
            started = self._clock()
            try:
                ticket = self.admission.admit(tenant, timeout_s)
            except ShedError as exc:
                return self._shed_response(rid, started, exc)
            outcome = "error"
            try:
                view = self._read_view(payload, timeout_s)
                status, body, headers = runner(
                    payload, timeout_s, rid, view
                )
                outcome = body.get("outcome", "ok")
                if view is not None and status == 200:
                    body, headers = self._stamp_view(body, headers, view)
                return status, body, headers
            except StaleReadError as exc:
                outcome = "stale"
                return self._finish(
                    rid, started, "stale", self._stale_response(rid, exc)
                )
            except ShedError as exc:
                outcome = "shed"
                return self._shed_response(rid, started, exc)
            except PayloadError as exc:
                outcome = "bad-request"
                return self._finish(
                    rid, started, "error",
                    (400, {"error": str(exc), "request_id": rid},
                     _NO_HEADERS),
                )
            except DispatchError as exc:
                return self._finish(
                    rid, started, "error",
                    (503, {"error": "unavailable", "detail": str(exc),
                           "request_id": rid}, _NO_HEADERS),
                )
            except Exception as exc:  # noqa: BLE001 — handler firewall
                return self._finish(
                    rid, started, "error",
                    (500,
                     {"error": f"{type(exc).__name__}: {exc}",
                      "request_id": rid},
                     _NO_HEADERS),
                )
            finally:
                ticket.finish(outcome, self._clock() - started)

    def _read_view(
        self, payload: Dict[str, object], timeout_s: float
    ) -> Optional[Dict[str, object]]:
        """Enforce the staleness contract for one read.

        Returns the view doc to stamp on a 200 (``None`` without a
        durable store).  A ``min_lsn`` the local state has not reached
        is waited on briefly (read-your-writes usually needs only the
        in-flight pull to land); past the wait budget, and whenever a
        non-primary's feed cannot prove freshness within
        ``max_stale_s``, the read sheds with :class:`StaleReadError` —
        a typed refusal, not a stale answer.  Lag-bounded is a
        property of the *replica*: a fenced node has no feed at all
        (its pull client is stopped), so its staleness is unknowable
        and every read sheds rather than aging silently behind a
        fabricated ``stale_s: 0.0``.
        """
        store = self.store
        if store is None:
            return None
        min_lsn = payload.get("min_lsn")
        if min_lsn is not None and (
            not isinstance(min_lsn, int) or min_lsn < 0
        ):
            raise PayloadError("'min_lsn' must be a non-negative integer")
        role = self._role
        replica = self._replica
        if role == "primary":
            stale_s: Optional[float] = 0.0
        else:
            # No replica client (never started, or stopped by a
            # fence) means freshness is unknowable: None, never 0.0.
            stale_s = (
                replica.staleness_s() if replica is not None else None
            )
        if min_lsn and store.last_lsn < min_lsn:
            wait_budget = min(max(0.0, timeout_s), 2.0)
            if not store.wait_for_lsn(min_lsn, wait_budget):
                add("replica.stale_reads_shed")
                live_add("replica.stale_reads_shed")
                raise StaleReadError(
                    "behind-min-lsn",
                    min_lsn=min_lsn,
                    as_of_lsn=store.last_lsn,
                    stale_s=stale_s,
                    primary_url=self._primary_url,
                )
        if role != "primary" and (
            stale_s is None or stale_s > self._max_stale_s
        ):
            add("replica.stale_reads_shed")
            live_add("replica.stale_reads_shed")
            raise StaleReadError(
                "fenced" if role == "fenced" else "replication-stalled",
                min_lsn=min_lsn,
                as_of_lsn=store.last_lsn,
                stale_s=stale_s,
                primary_url=self._primary_url,
            )
        return {"stale_s": stale_s}

    def _stamp_view(
        self,
        body: Dict[str, object],
        headers: Dict[str, str],
        view: Dict[str, object],
    ) -> Tuple[Dict[str, object], Dict[str, str]]:
        # ``as_of_lsn`` was captured by ``_resolve_instance`` under
        # the registry lock, so it is exactly the LSN of the snapshot
        # that answered — never inflated by a write that landed while
        # the query ran.  (The min_lsn wait precedes resolution, so it
        # is also >= any satisfied ``min_lsn``.)  The fallback covers
        # handlers that never resolve an instance.
        as_of = view.get("as_of_lsn")
        if not isinstance(as_of, int):
            as_of = self.store.last_lsn
        stale_s = view.get("stale_s")
        body["as_of_lsn"] = as_of
        headers = dict(headers)
        headers["X-As-Of-LSN"] = str(as_of)
        if stale_s is not None:
            body["stale_s"] = round(stale_s, 3)
            headers["X-Stale-S"] = f"{stale_s:.3f}"
        return body, headers

    def _stale_response(self, rid: str, exc: StaleReadError) -> Handled:
        body: Dict[str, object] = {
            "error": "stale-read",
            "reason": exc.reason,
            "request_id": rid,
            "as_of_lsn": exc.as_of_lsn,
            "retry_after_s": round(exc.retry_after_s, 3),
        }
        if exc.min_lsn is not None:
            body["min_lsn"] = exc.min_lsn
        if exc.stale_s is not None:
            body["stale_s"] = round(exc.stale_s, 3)
        if exc.primary_url:
            body["primary_url"] = exc.primary_url
        return (
            503,
            body,
            {"Retry-After": str(max(1, int(round(exc.retry_after_s))))},
        )

    def _shed_response(
        self, rid: str, started: float, exc: ShedError
    ) -> Handled:
        add("serve.requests.shed")
        live_add("serve.requests.shed")
        live_observe(
            "serve.latency_ms", (self._clock() - started) * 1000.0
        )
        retry_after = max(0.1, exc.retry_after_s)
        return (
            exc.status,
            {
                "error": "shed",
                "reason": exc.reason,
                "retry_after_s": round(retry_after, 3),
                "request_id": rid,
            },
            {"Retry-After": str(max(1, int(round(retry_after))))},
        )

    def _finish(
        self, rid: str, started: float, outcome: str, handled: Handled
    ) -> Handled:
        elapsed_ms = (self._clock() - started) * 1000.0
        add(f"serve.requests.{outcome}")
        live_add(f"serve.requests.{outcome}")
        live_observe("serve.latency_ms", elapsed_ms)
        emit_event(
            "serve.response",
            outcome=outcome,
            status=handled[0],
            elapsed_ms=elapsed_ms,
        )
        return handled

    def _run_cqa(
        self,
        payload: Dict[str, object],
        timeout_s: float,
        rid: str,
        view: Optional[Dict[str, object]] = None,
    ) -> Handled:
        db, constraints, tenant = self._resolve_instance(payload, view)
        query_text = payload.get("query")
        if not isinstance(query_text, str):
            raise PayloadError("payload needs a 'query' string")
        try:
            query = parse_query(query_text)
        except Exception as exc:
            raise PayloadError(f"cannot parse query: {exc}")
        semantics = str(payload.get("semantics", "s"))
        started = self._clock()
        request = CQARequest(db, tuple(constraints), query, semantics)
        degraded_reason = None
        if self._should_degrade(request):
            answer = self._certain_core(request)
            if answer is not None:
                degraded_reason = "pool-saturated"
        if degraded_reason is None:
            result = self.dispatcher.dispatch(
                db,
                constraints,
                query,
                semantics=semantics,
                budget=Budget(timeout=timeout_s),
                tenant=tenant,
            )
            answers, complete = result.answers, result.complete
            engine = result.provenance.engine
            detail = result.detail
        else:
            answers, complete = answer.answers, answer.complete
            engine = "certain-core"
            detail = answer.detail
            add("serve.degraded_fastpath")
            live_add("serve.degraded_fastpath")
            emit_event("serve.degrade", reason=degraded_reason)
        outcome = "ok" if complete else "degraded"
        body = {
            "answers": sorted(list(row) for row in answers),
            "complete": complete,
            "engine": engine,
            "semantics": semantics,
            "elapsed_ms": round(
                (self._clock() - started) * 1000.0, 3
            ),
            "request_id": rid,
            "outcome": outcome,
        }
        if degraded_reason:
            body["degraded_reason"] = degraded_reason
        upper = detail.get("upper_bound") if detail else None
        if upper is not None:
            body["upper_bound"] = sorted(list(row) for row in upper)
        return self._finish(
            rid, started, outcome, (200, body, _NO_HEADERS)
        )

    def _should_degrade(self, request: CQARequest) -> bool:
        """Degrade rather than queue when the pool has no idle worker
        and the rung the ladder would try first runs on it; a request
        whose ladder starts in process is served exactly as ever."""
        pool = self.pool
        if pool is None or pool.idle_count() != 0:
            return False
        rung = self.dispatcher.first_rung(request)
        return rung is not None and self.dispatcher.uses_pool(rung)

    def _certain_core(self, request: CQARequest):
        """The anytime bracket, or None if it cannot serve this request
        (then the full ladder runs and takes its chances)."""
        engine = get_engine("certain-core")
        try:
            engine.check(request)
            return engine.run(request)
        except Exception:  # noqa: BLE001 — fall back to the ladder
            return None

    def _run_repairs(
        self,
        payload: Dict[str, object],
        timeout_s: float,
        rid: str,
        view: Optional[Dict[str, object]] = None,
    ) -> Handled:
        db, constraints, _ = self._resolve_instance(payload, view)
        semantics = str(payload.get("semantics", "s"))
        limit = payload.get("limit")
        if limit is not None and (
            not isinstance(limit, int) or limit < 1
        ):
            raise PayloadError("'limit' must be a positive integer")
        started = self._clock()
        budget = Budget(timeout=timeout_s, max_results=limit)
        with use_budget(budget):
            if semantics == "s":
                partial = s_repairs_partial(
                    db, constraints, limit=limit, budget=budget
                )
            elif semantics == "c":
                partial = c_repairs_partial(
                    db, constraints, budget=budget
                )
            else:
                raise PayloadError(
                    f"unknown repair semantics {semantics!r}; "
                    "expected 's' or 'c'"
                )
        outcome = "ok" if partial.complete else "degraded"
        body = {
            "repairs": [
                _serialize_repair(repair) for repair in partial.value
            ],
            "complete": partial.complete,
            "semantics": semantics,
            "elapsed_ms": round(
                (self._clock() - started) * 1000.0, 3
            ),
            "request_id": rid,
            "outcome": outcome,
        }
        return self._finish(
            rid, started, outcome, (200, body, _NO_HEADERS)
        )

    # -- replication ---------------------------------------------------

    def start_follower(self, config: ReplicaConfig) -> None:
        """Enter the follower role and start pulling (post-recovery).

        The phase drops to ``catching-up`` until the pull loop reports
        zero lag once; mutations 403 from here on.
        """
        if self.store is None:
            raise ReproError(
                "follower mode requires a durable store (--data-dir)"
            )
        self._role = "follower"
        self._primary_url = config.upstream
        self._max_stale_s = config.max_stale_s
        self._phase = "catching-up"
        live_gauge("replica.epoch", self.store.epoch)
        self._replica = ReplicaClient(
            self, config, clock=self._clock
        ).start()

    def note_replica_progress(self, client: ReplicaClient) -> None:
        """Pull-loop callback: flip ``catching-up`` → ``ready`` at lag 0."""
        store = self.store
        if store is not None:
            live_gauge("replica.epoch", store.epoch)
        if self._phase == "catching-up" and client.lag() == 0:
            self._phase = "ready"
            add("replica.catch_ups")
            live_add("replica.catch_ups")
            emit_event(
                "replica.caught_up",
                lsn=store.last_lsn if store else None,
                follower=client.config.follower_id,
            )

    def apply_replicated(self, record: Dict[str, object]) -> bool:
        """Apply one shipped record to the store *and* the registry."""
        with self._lock:
            applied = self.store.apply_replicated(record)
            if applied:
                self._apply_to_registry(record)
        return applied

    def _apply_to_registry(self, record: Dict[str, object]) -> None:
        op = record.get("op")
        name = record.get("db")
        key = (int(record.get("epoch") or 0), int(record["lsn"]))
        if op == "put_db":
            self._databases[name] = _versions_of(
                {name: record["spec"]}, key
            )[name]
        elif op == "del_db":
            self._databases.pop(name, None)
        elif op == "mutate":
            found = self._databases.get(name)
            if found is None:
                raise StoreCorruptionError(
                    f"replicated mutate against unknown database "
                    f"{name!r} (registry diverged from store)"
                )
            new_db, delta = derive(
                found.db,
                [fact(e[0], *e[1:]) for e in record.get("delete") or []],
                [fact(e[0], *e[1:]) for e in record.get("insert") or []],
            )
            self._databases[name] = found.advance(new_db, delta, key)
        elif op == "epoch":
            pass
        else:
            raise StoreCorruptionError(
                f"replicated record with unknown op {op!r}"
            )

    def install_replica_state(
        self, bootstrap: Dict[str, object]
    ) -> None:
        """Adopt a snapshot bootstrap: store and registry atomically."""
        specs = bootstrap.get("databases") or {}
        lsn = int(bootstrap.get("lsn") or 0)
        epoch = int(bootstrap.get("epoch") or 0)
        # Every tenant gets a version keyed by the bootstrap's (epoch,
        # lsn).  One that kept its schema and constraints reaches it by
        # one delta, the facts that differ (usually the few records
        # compaction folded before this caught-up follower pulled
        # them), so its workers catch up by that delta, never by
        # extending a pre-bootstrap version; any other starts over.
        key = (epoch, lsn)
        databases = _versions_of(specs, key)
        with self._lock:
            self.store.install_state(specs, lsn, epoch)
            for name, version in databases.items():
                current = self._databases.get(name)
                if (
                    current is not None
                    and current.constraints == version.constraints
                    and current.db.schema == version.db.schema
                ):
                    old, new = current.db, version.db
                    databases[name] = current.advance(
                        *derive(
                            old,
                            [f for f in old if f not in new],
                            [f for f in new if f not in old],
                        ),
                        key,
                    )
            self._databases = databases

    def handle_replica_pull(
        self, payload: Dict[str, object]
    ) -> Handled:
        """POST /v1/replica/pull — ship the WAL tail to a follower.

        Long-polls ``wait_s`` when the follower is caught up; answers
        a snapshot ``bootstrap`` when compaction already folded the
        requested range.  A pull carrying a *higher* epoch than ours
        is proof a successor was promoted: we fence ourselves before
        answering (split-brain guard — the 409 is the demotion).
        """
        store = self.store
        if store is None:
            return (
                400,
                {"error": "replication requires a durable store"},
                _NO_HEADERS,
            )
        if self._phase == "recovering":
            gate = self._not_ready()
            if gate is not None:
                return gate
        req_epoch = payload.get("epoch")
        if not isinstance(req_epoch, int):
            req_epoch = 0
        if req_epoch > store.epoch:
            store.fence(req_epoch)
            self._role = "fenced"
            add("replica.self_fenced")
            live_add("replica.self_fenced")
            emit_event(
                "replica.fence", epoch=req_epoch, reason="higher-epoch-pull"
            )
            return (
                409,
                {
                    "error": "fenced",
                    "epoch": req_epoch,
                    "own_epoch": store.epoch,
                },
                _NO_HEADERS,
            )
        if self._role != "primary":
            body: Dict[str, object] = {
                "error": "fenced" if self._role == "fenced" else "not-primary",
                "role": self._role,
                "epoch": store.epoch,
            }
            if self._primary_url:
                body["primary_url"] = self._primary_url
            return (
                409 if self._role == "fenced" else 403,
                body,
                _NO_HEADERS,
            )
        from_lsn = payload.get("from_lsn")
        if not isinstance(from_lsn, int) or from_lsn < 0:
            return self._bad_request(
                "'from_lsn' must be a non-negative integer"
            )
        try:
            wait_s = min(max(0.0, float(payload.get("wait_s") or 0.0)), 5.0)
        except (TypeError, ValueError):
            return self._bad_request("'wait_s' must be a number")
        records = store.records_since(from_lsn)
        if records is not None and not records and wait_s > 0:
            store.wait_for_lsn(from_lsn + 1, wait_s)
            records = store.records_since(from_lsn)
        add("replica.pulls_served")
        live_add("replica.pulls_served")
        if records is None:
            add("replica.bootstraps_served")
            live_add("replica.bootstraps_served")
            body = {
                "bootstrap": store.state_transfer(),
                "last_lsn": store.last_lsn,
                "epoch": store.epoch,
            }
        else:
            add("replica.records_shipped", len(records))
            live_add("replica.records_shipped", len(records))
            body = {
                "records": records,
                "last_lsn": store.last_lsn,
                "epoch": store.epoch,
            }
        follower = str(payload.get("follower") or "anon")
        lag = max(0, store.last_lsn - from_lsn)
        with self._lock:
            self._followers[follower] = {
                "acked_lsn": from_lsn,
                "lag_records": lag,
                "epoch": req_epoch,
                "last_pull_age_s": 0.0,
                "_last_pull_at": self._clock(),
            }
        live_gauge(f"replica.follower.lag.{follower}", lag)
        return 200, body, _NO_HEADERS

    def handle_replica_promote(
        self, payload: Optional[Dict[str, object]] = None
    ) -> Handled:
        """POST /v1/replica/promote — follower → candidate → primary.

        Candidate catch-up drains whatever the (possibly dead) primary
        still serves with one final best-effort pull, then the epoch
        bump makes the claim durable: from that record on, the old
        primary's epoch is stale and every surviving node will fence
        it on contact.
        """
        store = self.store
        if store is None:
            return (
                400,
                {"error": "replication requires a durable store"},
                _NO_HEADERS,
            )
        if self._role == "primary":
            return (
                200,
                {
                    "role": "primary",
                    "epoch": store.epoch,
                    "last_lsn": store.last_lsn,
                    "already_primary": True,
                },
                _NO_HEADERS,
            )
        if self._role == "fenced":
            return (
                409,
                {"error": "fenced", "epoch": store.fenced},
                _NO_HEADERS,
            )
        started = self._clock()
        self._phase = "catching-up"
        replica = self._replica
        residual_lag = None
        if replica is not None:
            replica.stop()
            try:
                replica.pull_once(wait_s=0.0)
            except (StoreCorruptionError, StoreWriteError):
                pass  # dead or diverged upstream — promote from here
            residual_lag = replica.lag()
        try:
            epoch = store.bump_epoch()
        except StoreWriteError as exc:
            # The claim never became durable: stay a follower (the
            # pull loop is restarted by the operator's retry).
            self._phase = "ready"
            return self._store_unavailable(exc)
        self._replica = None
        self._role = "primary"
        self._primary_url = None
        self._phase = "ready"
        elapsed_ms = (self._clock() - started) * 1000.0
        add("replica.promotions")
        live_add("replica.promotions")
        live_observe("replica.promotion_ms", elapsed_ms)
        live_gauge("replica.epoch", epoch)
        emit_event(
            "replica.promote",
            epoch=epoch,
            last_lsn=store.last_lsn,
            elapsed_ms=round(elapsed_ms, 3),
            residual_lag=residual_lag,
        )
        return (
            200,
            {
                "role": "primary",
                "epoch": epoch,
                "last_lsn": store.last_lsn,
                "promotion_ms": round(elapsed_ms, 3),
                "residual_lag": residual_lag,
            },
            _NO_HEADERS,
        )

    def handle_replica_fence(
        self, payload: Dict[str, object]
    ) -> Handled:
        """POST /v1/replica/fence — operator/peer demotion by epoch."""
        store = self.store
        if store is None:
            return (
                400,
                {"error": "replication requires a durable store"},
                _NO_HEADERS,
            )
        epoch = payload.get("epoch")
        if not isinstance(epoch, int) or epoch < 1:
            return self._bad_request(
                "'epoch' must be a positive integer"
            )
        if not store.fence(epoch):
            return (
                409,
                {
                    "error": "stale-epoch",
                    "epoch": store.epoch,
                    "detail": (
                        f"own epoch {store.epoch} >= {epoch}; "
                        "refusing to fence the highest-epoch node"
                    ),
                },
                _NO_HEADERS,
            )
        if self._replica is not None:
            self._replica.stop()
            self._replica = None
        self._role = "fenced"
        add("replica.fenced")
        live_add("replica.fenced")
        emit_event("replica.fence", epoch=epoch, reason="operator")
        return (
            200,
            {
                "role": "fenced",
                "fenced_by": epoch,
                "epoch": store.epoch,
                "last_lsn": store.last_lsn,
            },
            _NO_HEADERS,
        )

    def replication(self) -> Dict[str, object]:
        """JSON-ready replication status for ``/v1/replica/status``."""
        doc: Dict[str, object] = {
            "role": self._role,
            "phase": self._phase,
        }
        store = self.store
        if store is not None:
            doc["epoch"] = store.epoch
            doc["last_lsn"] = store.last_lsn
            doc["fenced_by"] = store.fenced
        replica = self._replica
        if replica is not None:
            doc["client"] = replica.stats()
            doc["max_stale_s"] = self._max_stale_s
        with self._lock:
            if self._followers:
                now = self._clock()
                followers = {}
                for name, info in self._followers.items():
                    entry = {
                        key: value
                        for key, value in info.items()
                        if not key.startswith("_")
                    }
                    entry["last_pull_age_s"] = round(
                        now - info["_last_pull_at"], 3
                    )
                    followers[name] = entry
                doc["followers"] = followers
        return doc

    def handle_replica_status(self) -> Handled:
        return 200, self.replication(), _NO_HEADERS

    def begin_drain(self) -> None:
        """SIGTERM received: stop advertising readiness (idempotent)."""
        if self._phase == "draining":
            return
        self._phase = "draining"
        add("serve.drains")
        live_add("serve.drains")
        emit_event("serve.drain", role=self._role)

    # -- unbudgeted introspection endpoints ---------------------------

    def handle_report(self, name: str) -> Handled:
        """GET /v1/db/<name>/report — inconsistency measures."""
        with self._lock:
            found = self._databases.get(name)
        if found is None:
            return 404, {"error": f"no database {name!r}"}, _NO_HEADERS
        report = InconsistencyReport.of(found.db, found.constraints)
        ratio = report.violation_ratio
        return (
            200,
            {
                "db": name,
                "size": report.size,
                "repair_distance": report.repair_distance,
                "cardinality_measure": report.cardinality_measure,
                "g3": report.g3,
                # NaN (non-denial constraint mix) is not valid JSON.
                "violation_ratio": None if ratio != ratio else ratio,
                "per_constraint": dict(report.per_constraint),
            },
            _NO_HEADERS,
        )

    def health(self) -> Handled:
        """Liveness *and* readiness: 503 with the phase while it is
        anything but ``ready`` — ``recovering``/``catching-up`` because
        answers could come from a half-recovered registry, and
        ``draining`` so load balancers stop routing during the drain
        window instead of only after close."""
        body: Dict[str, object] = {
            "status": "ok",
            "phase": self._phase,
            "role": self._role,
        }
        if self._phase != "ready":
            body["status"] = self._phase
            return 503, body, _NO_HEADERS
        if self.pool is not None:
            stats = self.pool.stats()
            body["pool"] = stats
            if stats["workers"] == 0 and not stats["draining"]:
                body["status"] = "degraded"
        if self.store is not None:
            body["store"] = self.store.stats()
            if self.store.failed is not None:
                body["status"] = "degraded"
        if self._role != "primary" or self._followers:
            body["replication"] = self.replication()
        body["tenants"] = self.admission.stats()
        return 200, body, _NO_HEADERS

    def _bad_request(self, message: str) -> Handled:
        return 400, {"error": message}, _NO_HEADERS

    def close(self) -> None:
        """Stop replication, drain the pool, close the store; idempotent."""
        if self._replica is not None:
            self._replica.stop()
            self._replica = None
        if self.pool is not None:
            self.pool.drain()
        if self.store is not None:
            self.store.close()
