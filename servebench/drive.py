"""Run one workload against a cluster and check every answer.

The :class:`Runner` owns the run's phases — set-up (launch, register,
follower catch-up, warm-up), the measured closed loop, and the timed
restarts — and the oracles: every read is compared with the answer the
generator derived, every read's ``as_of_lsn`` with the acked writes,
and after each restart every acked mutation is read back.  A wrong
answer or a lost write raises :class:`WrongAnswer`; the caller exits
non-zero without a result line.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from client import Client, Reply
from cluster import BenchError
from gen import (
    PROJECTION_QUERY,
    Op,
    Workload,
    employee_answers,
    employee_fact_count,
)


class WrongAnswer(BenchError):
    """The service returned a wrong answer or lost an acked write."""


@dataclass
class Tally:
    """Attempted/ok/failed counts and ok latencies of one op type."""

    attempted: int = 0
    ok: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    latencies_ms: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "ok": self.ok,
            "failed": self.failed,
            "failed_by_reason": dict(self.reasons),
        }


def classify_failure(reply: Reply) -> str:
    """Why a non-OK reply failed, as counted in the accounting."""
    if reply.status == 0:
        return "timeout" if "timed out" in (reply.error or "") else "transport"
    if reply.status == 429 or reply.body.get("error") == "shed":
        return "shed"
    if reply.body.get("error") == "stale-read":
        return "stale"
    return f"http-{reply.status}"


class Connection:
    """The client's connection to each node and its last acked write."""

    def __init__(self, ports: Dict[str, int], last_lsn: int) -> None:
        self.clients = {
            node: Client("127.0.0.1", port) for node, port in ports.items()
        }
        self.last_lsn = last_lsn
        self.tallies: Dict[str, Tally] = {}

    def close(self) -> None:
        for client in self.clients.values():
            client.close()


class Runner:
    def __init__(self, workload: Workload, cluster) -> None:
        self.workload = workload
        self.cluster = cluster
        #: LSN of the last record acked so far.  The benchmark is the
        #: only writer, so every read must be answered as of exactly
        #: this LSN, where the model is what the generator derived.
        self.last_lsn = 0
        #: Tenants whose model is unknown after a failed write.
        self.unverified: set = set()
        #: Per op type, the accounting of the last :meth:`run_ops`.
        self.tallies: Dict[str, Tally] = {}
        #: The traced run's :class:`layers.Tracer`: requests then carry
        #: an ``X-Bench-Rid`` header and are recorded as root spans.
        self.tracer = None

    # -- operations ----------------------------------------------------

    def run_op(self, op: Op, conn: Connection) -> None:
        payload = op.payload
        if op.min_lsn_from_last_write:
            payload = dict(payload, min_lsn=conn.last_lsn)
        client = conn.clients[op.node]
        if self.tracer is not None:
            rid = self.tracer.new_rid()
            client.headers["X-Bench-Rid"] = rid
        reply = client.call("POST", op.path, payload)
        if self.tracer is not None:
            self.tracer.requests[rid] = (op, reply, self.tracer.phase)
        tally = conn.tallies.setdefault(op.kind, Tally())
        tally.attempted += 1
        if op.kind == "write":
            lsn = reply.body.get("lsn") if reply.status == 200 else None
            if isinstance(lsn, int) and not isinstance(lsn, bool):
                if lsn <= conn.last_lsn:
                    raise WrongAnswer(
                        f"write acked at lsn {lsn}, not after {conn.last_lsn}"
                    )
                conn.last_lsn = lsn
                tally.ok += 1
                tally.latencies_ms.append(reply.elapsed_s * 1000.0)
                return
            tally.failed += 1
            tally.reasons[classify_failure(reply)] += 1
            self.unverified.add(op.tenant)
            return
        if reply.status != 200:
            tally.failed += 1
            tally.reasons[classify_failure(reply)] += 1
            return
        if reply.body.get("complete") is not True:
            tally.failed += 1
            tally.reasons["degraded"] += 1
            return
        self.check_read(op, reply, conn)
        tally.ok += 1
        tally.latencies_ms.append(reply.elapsed_s * 1000.0)

    def check_read(self, op: Op, reply: Reply, conn: Connection) -> None:
        as_of = reply.body.get("as_of_lsn")
        if as_of != conn.last_lsn:
            raise WrongAnswer(
                f"{op.label} read on {op.node} answered as of lsn {as_of}; "
                f"the last acked write is at {conn.last_lsn}"
            )
        tenant = op.payload.get("db")
        if tenant in self.unverified:
            return
        if reply.body.get("answers") != op.expect:
            raise WrongAnswer(
                f"wrong answer from {op.node} for {op.payload}: got "
                f"{json.dumps(reply.body.get('answers'))[:200]}, expected "
                f"{json.dumps(op.expect)[:200]}"
            )

    def run_ops(self, ops: List[Op]) -> float:
        """Send *ops* in order, each after the previous one's reply (a
        closed loop of one client); returns the wall time."""
        conn = Connection(self.cluster.ports(), self.last_lsn)
        try:
            started = time.perf_counter()
            for op in ops:
                self.run_op(op, conn)
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        self.last_lsn = conn.last_lsn
        self.tallies = conn.tallies
        return elapsed

    # -- phases --------------------------------------------------------

    def setup(self) -> float:
        """Launch, register every tenant, wait for the follower, warm
        up; returns the seconds from launch to the end of warm-up."""
        started = time.perf_counter()
        self.cluster.launch()
        primary = Client("127.0.0.1", self.cluster.ports()["primary"])
        try:
            for tenant in self.workload.tenants:
                reply = primary.put(f"/v1/db/{tenant.name}", tenant.spec)
                if reply.status != 200 or not isinstance(
                    reply.body.get("lsn"), int
                ):
                    raise BenchError(
                        f"registering {tenant.name} failed: {reply.status} "
                        f"{reply.body} {reply.error or ''}"
                    )
                self.last_lsn = reply.body["lsn"]
        finally:
            primary.close()
        self.cluster.wait_follower(self.last_lsn)
        self.run_ops(self.workload.warmup)
        for kind, tally in self.tallies.items():
            if tally.failed:
                raise BenchError(
                    f"warm-up {kind} failed: {dict(tally.reasons)}"
                )
        return time.perf_counter() - started

    def measure(self) -> float:
        return self.run_ops(self.workload.measured)

    def verify_durable(self) -> int:
        """Read back every written tenant on the restarted primary;
        returns the number of tenants checked.

        The fact count catches any lost or resurrected fact and the
        name projection catches a lost new key or a lost last-salary
        delete; :func:`verify_store` then compares the exact rows the
        data dir recovers to.
        """
        primary = Client("127.0.0.1", self.cluster.ports()["primary"])
        try:
            listing = primary.get("/v1/db")
            if listing.status != 200:
                raise BenchError(f"listing databases failed: {listing.status}")
            databases = listing.body.get("databases") or {}
            checked = 0
            for tenant, state in self.workload.final_state.items():
                if tenant in self.unverified:
                    continue
                facts = (databases.get(tenant) or {}).get("facts")
                if facts != employee_fact_count(state):
                    raise WrongAnswer(
                        f"after restart {tenant} holds {facts} facts, "
                        f"the acked writes leave {employee_fact_count(state)}"
                    )
                reply = primary.post(
                    "/v1/cqa", {"db": tenant, "query": PROJECTION_QUERY}
                )
                if reply.status != 200 or reply.body.get("complete") is not True:
                    raise BenchError(
                        f"read-back of {tenant} failed: {reply.status} "
                        f"{reply.error or reply.body}"
                    )
                if reply.body.get("answers") != employee_answers(
                    state, "projection"
                ):
                    raise WrongAnswer(
                        f"after restart {tenant} lost or resurrected an "
                        "acked write"
                    )
                checked += 1
            return checked
        finally:
            primary.close()

    def verify_store(self, data_dir: str) -> None:
        """Recover the stopped primary's data dir in this process and
        compare every written tenant's rows with the model exactly."""
        from repro.serve.store import TenantStore

        store = TenantStore(data_dir)
        try:
            specs = store.recover().specs
        finally:
            store.close()
        for tenant, state in self.workload.final_state.items():
            if tenant in self.unverified:
                continue
            rows = (specs.get(tenant) or {}).get("relations", {}).get(
                "Employee", {}
            ).get("rows", [])
            got = sorted(map(tuple, rows))
            want = sorted((n, s) for n, ss in state.items() for s in ss)
            if got != want:
                raise WrongAnswer(
                    f"the recovered data dir of {tenant} differs from the "
                    f"acked writes ({len(got)} rows vs {len(want)})"
                )


def live_state_bytes(workload: Workload) -> int:
    """Canonical-JSON bytes of every tenant's live state at the end."""
    from gen import employee_spec

    total = 0
    for tenant in workload.tenants:
        spec = tenant.spec
        if tenant.name in workload.final_state:
            spec = employee_spec(workload.final_state[tenant.name])
        total += len(json.dumps(
            spec, sort_keys=True, separators=(",", ":")
        ).encode("utf-8"))
    return total


def status_counter(status: Dict[str, object], name: str) -> int:
    """A live-plane counter's total (absent until first incremented)."""
    entry = (status.get("counters") or {}).get(name)
    return int(entry.get("total") or 0) if isinstance(entry, dict) else 0
