"""The traced run: per-layer costs of the served request path.

The served nodes run exactly as in the end-to-end run — separate
``repro serve`` processes with :data:`cluster.SERVE_FLAGS`, a primary
and a follower — but each is started through ``traced_serve.py``, which
calls :func:`install` before the CLI's ``serve`` command.  That wraps
the public entry points of each layer with spans: ``CQAHTTPServer``
request parsing, routing, the executor hand-off and response encoding,
``AdmissionController.admit``, ``CQAService.handle_cqa``/
``handle_mutate``, ``Dispatcher.dispatch`` and its shape-stats lookup,
``ConflictHypergraph.build``, the engines, ``WorkerPool.run_engine``
(queue wait, frame encoding, the worker round trip), ``TenantStore``
appends and compaction, and the replica pull/apply.  Nothing under
``src/`` is edited; the wrappers are installed on the classes and
modules of the server processes only.  Each server keeps its spans in
memory and writes them out when it stops (:meth:`Tracer.dump`).

Worker-side layers run in other processes.  Their CPU time and
run-queue wait come from ``/proc/<pid>/schedstat`` around each call;
decoding, SQLite materialization and SQL execution are timed by
replaying every captured job frame through the public
``repro.dispatch.worker.child_main`` in the benchmark process after the
run (:func:`install_engines`).

Each span records its name, start, end and the benchmark's request id
(sent as the ``X-Bench-Rid`` header and carried into the handler
thread).  ``time.perf_counter`` is the system-wide monotonic clock, so
the spans of the benchmark and server processes share one time line.
A span's parent is the smallest span of the same request that contains
it; its self time is its duration minus the union of its children's
intervals (:func:`stats.self_time`).  The client-side request span is
the root; the loopback legs between client and server are measured
``net.transit`` spans (:func:`transit_spans`).  ``http.route`` covers
the whole handler, so its self time, like the root's, is time no layer
accounts for: the two together are a read's unattributed time
(``trace.unattributed_share``), whose median share of a read's latency
must stay within :data:`RECONCILE_LIMIT`.
"""

from __future__ import annotations

import contextvars
import glob
import io
import itertools
import json
import os
import pickle
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

from cluster import BenchError, Cluster
from stats import self_time

_RID: contextvars.ContextVar = contextvars.ContextVar("bench_rid", default=None)

#: The largest median share of a read's latency that the spans may
#: leave unattributed; a traced run above it fails without a result.
RECONCILE_LIMIT = 0.10

#: Spans whose self time no layer accounts for: the client's request
#: (whatever lies between the client, transit and server spans) and the
#: route (everything in the handler between layers).
UNATTRIBUTED = ("request", "http.route")

#: Per-layer metrics, in BENCHMARK.json order, with their units.
LAYER_UNITS = {
    "http.parse_ms": "ms",
    "http.encode_ms": "ms",
    "http.response_bytes": "bytes",
    "net.transit_ms": "ms",
    "admission.wait_ms": "ms",
    "admission.shed": "count",
    "service.mutate_ms": "ms",
    "dispatcher.shape_ms": "ms",
    "dispatcher.shape_cache_hit_ratio": "ratio",
    "dispatcher.rungs_per_read": "count",
    "cqa.rewrite_ms": "ms",
    "conflicts.build_ms": "ms",
    "pool.encode_ms": "ms",
    "pool.frame_bytes_per_read": "bytes",
    "pool.queue_ms": "ms",
    "pool.recycles": "count",
    "worker.decode_ms": "ms",
    "worker.cpu_ms": "ms",
    "worker.runqueue_ms": "ms",
    "sqlbridge.materialize_ms": "ms",
    "sqlbridge.exec_ms": "ms",
    "sqlbridge.facts_per_read": "count",
    "engines.asp_ms": "ms",
    "engines.enumerate_ms": "ms",
    "engines.fo_mem_ms": "ms",
    "store.append_ms": "ms",
    "store.fsyncs_per_write": "count",
    "store.bytes_per_user_byte": "ratio",
    "store.compactions": "count",
    "store.compact_ms": "ms",
    "snapshot.bytes": "bytes",
    "store.recover_ms": "ms",
    "store.records_replayed": "count",
    "store.replay_ms_per_record": "ms",
    "replica.pull_ms": "ms",
    "replica.records_per_pull": "count",
    "replica.apply_ms_per_record": "ms",
    "telemetry.calls_per_read": "count",
    "trace.overhead_ms": "ms",
    "trace.unattributed_share": "ratio",
}


class Span:
    __slots__ = ("name", "start", "end", "rid", "phase", "attrs", "parent")

    def __init__(self, name, start, end, rid, phase=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.rid = rid
        #: "setup", "measure", "after" or "replay"; set by the
        #: benchmark process (:func:`assign_phases`).
        self.phase = phase
        self.attrs = attrs
        #: Set by :func:`request_trees`: the smallest containing span.
        self.parent: Optional["Span"] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """In-memory spans and counters; written out when the process ends.

    In a server process it records layer spans; in the benchmark
    process it also numbers the client's requests and gathers what the
    servers wrote (:meth:`absorb`).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.local = threading.local()
        self.counts: Counter = Counter()
        #: (rid, job bytes) of every job sent to a worker.
        self.frames: List[Tuple[str, bytes]] = []
        #: Benchmark side: the phase new requests belong to, and
        #: rid -> (op, reply, phase) of every client request.
        self.phase = "setup"
        self.requests: Dict[str, tuple] = {}
        self._ids = itertools.count(1)
        self._undo: List[tuple] = []

    # -- recording -----------------------------------------------------

    def rid(self) -> Optional[str]:
        return getattr(self.local, "rid", None)

    def record(self, name, start, end, rid=None, **attrs) -> Span:
        span = Span(name, start, end, rid, None, attrs or None)
        self.spans.append(span)
        return span

    def new_rid(self) -> str:
        return f"r{next(self._ids)}"

    def dump(self, path: str) -> None:
        """Write spans, counters and frames for :meth:`absorb`."""
        with open(path, "wb") as handle:
            pickle.dump({
                "spans": [(s.name, s.start, s.end, s.rid, s.attrs)
                          for s in self.spans],
                "counts": dict(self.counts),
                "frames": self.frames,
            }, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def absorb(self, path: str) -> None:
        with open(path, "rb") as handle:
            doc = pickle.load(handle)
        self.spans += [Span(name, start, end, rid, None, attrs)
                       for name, start, end, rid, attrs in doc["spans"]]
        self.counts.update(doc["counts"])
        self.frames += doc["frames"]

    # -- wrapping ------------------------------------------------------

    def patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)
                           if isinstance(owner, type) else
                           getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, static=False, after=None) -> None:
        """Time every call of ``owner.attr`` as a span named *name*.
        *after(result, args, holder)* may add attributes."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            holder: Dict[str, object] = {}
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, args, holder)
                return result
            finally:
                tracer.record(name, start, time.perf_counter(),
                              tracer.rid(), **holder)

        self.patch(owner, attr, staticmethod(wrapper) if static else wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


_MISSING = object()


def _schedstat(pid: int) -> Tuple[int, int]:
    """``(cpu_ns, runqueue_wait_ns)`` of *pid* so far."""
    try:
        with open(f"/proc/{pid}/schedstat") as handle:
            cpu, wait, _slices = handle.read().split()
        return int(cpu), int(wait)
    except (OSError, ValueError):
        return 0, 0


class _ReaderProxy:
    """Notes when a request's first line arrived (parse start) and the
    request id of the request being served on this connection."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.first_line_at: Optional[float] = None
        self.rid: Optional[str] = None

    async def readline(self):
        line = await self._reader.readline()
        if self.first_line_at is None:
            self.first_line_at = time.perf_counter()
        return line

    def __getattr__(self, name):
        return getattr(self._reader, name)


class _WriterProxy:
    """Counts the bytes written for each response."""

    def __init__(self, writer, reader: _ReaderProxy) -> None:
        self._writer = writer
        self.reader = reader
        self.written = 0

    def write(self, data) -> None:
        self.written += len(data)
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


class _PickleShim:
    """A module-level ``pickle`` stand-in that times (de)serialization."""

    def __init__(self, tracer: Tracer, dumps_name: str, loads_name: str,
                 capture: bool) -> None:
        self._tracer = tracer
        self._dumps_name = dumps_name
        self._loads_name = loads_name
        self._capture = capture

    def dumps(self, obj, *args, **kwargs):
        start = time.perf_counter()
        data = pickle.dumps(obj, *args, **kwargs)
        rid = self._tracer.rid()
        self._tracer.record(self._dumps_name, start, time.perf_counter(),
                            rid, bytes=len(data))
        if (self._capture and rid is not None and isinstance(obj, dict)
                and obj.get("engine")):
            self._tracer.frames.append((rid, data))
        return data

    def loads(self, data, *args, **kwargs):
        start = time.perf_counter()
        try:
            return pickle.loads(data, *args, **kwargs)
        finally:
            self._tracer.record(self._loads_name, start, time.perf_counter(),
                                self._tracer.rid())

    def __getattr__(self, name):
        return getattr(pickle, name)


def install(tracer: Tracer) -> None:
    """Wrap every server-side layer's entry points in this process."""
    import repro.dispatch.dispatcher as dispatcher_mod
    import repro.dispatch.pool as pool_mod
    import repro.serve.store as store_mod
    from repro.dispatch.pool import PoolWorker
    from repro.serve.admission import AdmissionController, ShedError
    from repro.serve.http import CQAHTTPServer
    from repro.serve.replica import ReplicaClient
    from repro.serve.service import CQAService
    from repro.serve.store import TenantStore
    from repro.serve.store.wal import WriteAheadLog

    # -- HTTP: parse, route, executor hand-off, encode ----------------
    handle_connection = CQAHTTPServer._handle_connection
    read_request = CQAHTTPServer._read_request
    route = CQAHTTPServer._route
    respond = CQAHTTPServer._respond
    offload = CQAHTTPServer._offload
    parse_json = CQAHTTPServer._parse_json

    async def traced_connection(self, reader, writer):
        # Request parsing runs in a wait_for task of its own, so the
        # request id travels on the connection's proxies, not in a
        # context variable.
        reader = _ReaderProxy(reader)
        await handle_connection(self, reader, _WriterProxy(writer, reader))

    async def traced_read_request(self, reader):
        reader.first_line_at = None
        reader.rid = None
        request = await read_request(self, reader)
        if request is not None and reader.first_line_at is not None:
            reader.rid = request[2].get("x-bench-rid")
            tracer.record("http.parse", reader.first_line_at,
                          time.perf_counter(), reader.rid)
        return request

    async def traced_route(self, method, path, headers, body):
        _RID.set(headers.get("x-bench-rid"))
        start = time.perf_counter()
        try:
            return await route(self, method, path, headers, body)
        finally:
            tracer.record("http.route", start, time.perf_counter(),
                          _RID.get())

    def traced_parse_json(body):
        # The body's JSON decoding is request parsing too.
        start = time.perf_counter()
        try:
            return parse_json(body)
        finally:
            tracer.record("http.parse", start, time.perf_counter(),
                          _RID.get())

    async def traced_respond(self, writer, *args, **kwargs):
        start = time.perf_counter()
        before = writer.written
        try:
            return await respond(self, writer, *args, **kwargs)
        finally:
            tracer.record("http.encode", start, time.perf_counter(),
                          writer.reader.rid, bytes=writer.written - before)

    async def traced_offload(self, handler, *args):
        # The executor hand-off: from submitting the handler until the
        # event loop has its result, around the handler's own spans.
        rid = _RID.get()

        def run(*handler_args):
            tracer.local.rid = rid
            try:
                return handler(*handler_args)
            finally:
                tracer.local.rid = None

        start = time.perf_counter()
        try:
            return await offload(self, run, *args)
        finally:
            tracer.record("http.offload", start, time.perf_counter(), rid)

    tracer.patch(CQAHTTPServer, "_handle_connection", traced_connection)
    tracer.patch(CQAHTTPServer, "_read_request", traced_read_request)
    tracer.patch(CQAHTTPServer, "_route", traced_route)
    tracer.patch(CQAHTTPServer, "_parse_json", staticmethod(traced_parse_json))
    tracer.patch(CQAHTTPServer, "_respond", traced_respond)
    tracer.patch(CQAHTTPServer, "_offload", traced_offload)

    # -- admission and service ----------------------------------------
    admit = AdmissionController.admit

    def traced_admit(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return admit(self, *args, **kwargs)
        except ShedError:
            tracer.counts[("shed", tracer.rid())] += 1
            raise
        finally:
            tracer.record("admission.admit", start, time.perf_counter(),
                          tracer.rid())

    tracer.patch(AdmissionController, "admit", traced_admit)
    tracer.wrap(CQAService, "handle_cqa", "service.cqa")
    tracer.wrap(CQAService, "handle_mutate", "service.mutate")

    # -- dispatcher and the in-server engines ---------------------------
    def rungs(result, _args, holder):
        holder["rungs"] = sum(
            1 for outcome in result.provenance.rungs
            if outcome.status not in ("inapplicable", "breaker-open")
        )

    tracer.wrap(dispatcher_mod.Dispatcher, "dispatch", "dispatcher.dispatch",
                after=rungs)
    tracer.wrap(dispatcher_mod.Dispatcher, "_shape_stats", "dispatcher.shape")
    install_engines(tracer)

    # -- pool and worker frames ---------------------------------------
    tracer.wrap(pool_mod.WorkerPool, "run_engine", "pool.run_engine")
    pool_init = pool_mod.WorkerPool.__init__

    def traced_pool_init(self, *args, **kwargs):
        pool_init(self, *args, **kwargs)
        get = self._idle.get

        def timed_get(*get_args, **get_kwargs):
            # Waiting for an idle worker: the pool's queue.
            start = time.perf_counter()
            try:
                return get(*get_args, **get_kwargs)
            finally:
                tracer.record("pool.queue", start, time.perf_counter(),
                              tracer.rid())

        self._idle.get = timed_get

    tracer.patch(pool_mod.WorkerPool, "__init__", traced_pool_init)
    call = PoolWorker.call

    def traced_call(self, job, deadline_s):
        before = _schedstat(self.pid)
        start = time.perf_counter()
        try:
            return call(self, job, deadline_s)
        finally:
            after = _schedstat(self.pid)
            if job.get("op", "run") == "run":
                tracer.record(
                    "pool.call", start, time.perf_counter(), tracer.rid(),
                    cpu_ms=(after[0] - before[0]) / 1e6,
                    runqueue_ms=(after[1] - before[1]) / 1e6,
                )

    tracer.patch(PoolWorker, "call", traced_call)
    tracer.patch(pool_mod, "pickle",
                 _PickleShim(tracer, "pool.encode", "pool.decode", True))

    # -- store ---------------------------------------------------------
    tracer.wrap(TenantStore, "append_mutate", "store.append")
    tracer.wrap(TenantStore, "_compact_locked", "store.compact")

    def snapshot_size(result, _args, holder):
        holder["bytes"] = os.path.getsize(result.path)

    tracer.wrap(store_mod, "write_snapshot", "snapshot.write",
                after=snapshot_size)
    wal_append = WriteAheadLog.append

    def traced_wal_append(self, record):
        before = self.size_bytes
        try:
            return wal_append(self, record)
        finally:
            tracer.counts[("wal_bytes", tracer.rid())] += (
                self.size_bytes - before
            )

    tracer.patch(WriteAheadLog, "append", traced_wal_append)
    fsync = os.fsync

    def counted_fsync(fd):
        tracer.counts[("fsync", tracer.rid())] += 1
        return fsync(fd)

    tracer.patch(os, "fsync", counted_fsync)

    # -- replication ---------------------------------------------------
    def applied(result, _args, holder):
        holder["records"] = result

    tracer.wrap(ReplicaClient, "pull_once", "replica.pull", after=applied)
    tracer.wrap(CQAService, "apply_replicated", "replica.apply")

    # -- telemetry calls ----------------------------------------------
    _count_telemetry(tracer)


def install_engines(tracer: Tracer) -> None:
    """Wrap the layers a read runs through in a worker as well as in
    the server: conflicts, rewriting, SQL generation and execution, the
    engines, and the worker's frame decoding."""
    import repro.constraints.conflicts as conflicts_mod
    import repro.cqa.sqlgen as sqlgen_mod
    import repro.dispatch.engines as engines_mod
    import repro.dispatch.worker as worker_mod
    import repro.relational.sqlbridge as sqlbridge_mod

    tracer.wrap(conflicts_mod.ConflictHypergraph, "build", "conflicts.build",
                static=True)
    tracer.wrap(engines_mod, "fuxman_miller_rewrite", "cqa.rewrite")
    tracer.wrap(engines_mod, "fo_rewrite", "cqa.rewrite")
    tracer.wrap(sqlgen_mod, "query_to_sql", "cqa.sqlgen")
    tracer.wrap(engines_mod.AspEngine, "run", "engines.asp")
    tracer.wrap(engines_mod.EnumerateEngine, "run", "engines.enumerate")
    tracer.wrap(engines_mod.FORewriteMemEngine, "run", "engines.fo_mem")

    def facts(_result, args, holder):
        holder["facts"] = len(args[0])

    tracer.wrap(sqlbridge_mod, "to_sqlite", "sqlbridge.materialize",
                after=facts)
    tracer.wrap(sqlgen_mod, "run_sql", "sqlbridge.run_sql")
    tracer.patch(worker_mod, "pickle",
                 _PickleShim(tracer, "worker.encode", "worker.decode", False))


def _count_telemetry(tracer: Tracer) -> None:
    """Count ``add``/``live_add``/``live_observe``/``emit_event`` calls
    at every call site in the loaded ``repro`` modules."""
    import sys

    import repro.observability as observability
    import repro.observability.live as live

    functions = {
        "add": observability.add,
        "live_add": live.live_add,
        "live_observe": live.live_observe,
        "emit_event": live.emit_event,
    }

    def counting(func):
        def count(*args, **kwargs):
            tracer.counts[("telemetry", tracer.rid())] += 1
            return func(*args, **kwargs)
        return count

    counters = {name: counting(func) for name, func in functions.items()}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, func in functions.items():
            if vars(module).get(name) is func:
                tracer.patch(module, name, counters[name])


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def assign_phases(tracer: Tracer, window: Tuple[float, float]) -> None:
    """A span of a client request takes that request's phase; a span
    outside any request (the follower's pull thread) is "measure" when
    it starts inside the measured *window*."""
    phases = {rid: phase for rid, (_op, _reply, phase)
              in tracer.requests.items()}
    for span in tracer.spans:
        if span.rid is not None:
            span.phase = phases.get(span.rid, "other")
        else:
            span.phase = (
                "measure" if window[0] <= span.start <= window[1] else "other"
            )


def request_trees(spans: List[Span], roots: Dict[str, Span]):
    """``rid -> [(span, self_ms)]``: each request's spans with self
    times, parents found by interval containment."""
    by_rid: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.rid in roots:
            by_rid[span.rid].append(span)
    trees = {}
    for rid, root in roots.items():
        members = [root] + sorted(
            by_rid.get(rid, ()), key=lambda s: (s.start, -s.end)
        )
        children: Dict[int, List[Span]] = defaultdict(list)
        stack: List[Span] = [root]
        for span in members[1:]:
            while len(stack) > 1 and not (
                stack[-1].start <= span.start and span.end <= stack[-1].end
            ):
                stack.pop()
            children[id(stack[-1])].append(span)
            span.parent = stack[-1]
            stack.append(span)
        trees[rid] = [
            (span, self_time(
                span.start, span.end,
                [(c.start, c.end) for c in children[id(span)]],
            ) * 1000.0)
            for span in members
        ]
    return trees


def transit_spans(tracer: Tracer, roots: Dict[str, Span]) -> List[Span]:
    """The loopback legs of each request, as ``net.transit`` spans:
    from the client's send to the server's first request line, and from
    the end of the server's response write to the client's first
    response byte.  Both ends are timestamps of the two processes, so
    these spans hold only the kernel hop and the wake-ups on either
    side; any server work outside a layer stays unattributed."""
    first_line: Dict[str, float] = {}
    written: Dict[str, float] = {}
    for span in tracer.spans:
        if span.rid not in roots:
            continue
        if span.name == "http.parse":
            first_line[span.rid] = min(
                first_line.get(span.rid, span.start), span.start
            )
        elif span.name == "http.encode":
            written[span.rid] = max(written.get(span.rid, span.end), span.end)
    requests = tracer.requests
    legs = []
    for rid in roots:
        reply = requests[rid][1]
        for start, end in ((reply.sent_at, first_line.get(rid)),
                           (written.get(rid), reply.head_at)):
            if start is not None and end is not None and end > start:
                legs.append(Span("net.transit", start, end, rid, "measure"))
    return legs


def unattributed_share(tree) -> float:
    """The share of a request's latency in the self time of the
    :data:`UNATTRIBUTED` spans; *tree* is one :func:`request_trees`
    entry, root first."""
    root = tree[0][0]
    if not root.ms:
        return 0.0
    return sum(
        self_ms for span, self_ms in tree if span.name in UNATTRIBUTED
    ) / root.ms


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _mean(values, default=0.0) -> float:
    values = list(values)
    return sum(values) / len(values) if values else default


def span_cost_ms(n: int = 20_000) -> float:
    """Cost of timing and recording one span, on a scratch tracer."""
    scratch = Tracer()
    started = time.perf_counter()
    for _ in range(n):
        start = time.perf_counter()
        scratch.record("x", start, time.perf_counter(), scratch.rid())
    return (time.perf_counter() - started) * 1000.0 / n


def per_layer(tracer: Tracer, recovery: Dict[str, object],
              pool_recycles: int) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The per-layer metrics of the measured phase.

    Read-path layers are taken over the workload's reads only (not the
    follower probes), each as the median over the reads that reached
    the layer; worker-side layers come from the replay of those reads'
    frames.
    """
    roots: Dict[str, Span] = {}
    kinds: Dict[str, str] = {}
    for rid, (op, reply, phase) in tracer.requests.items():
        if phase == "measure" and reply.status == 200:
            end = reply.started + reply.elapsed_s
            roots[rid] = Span("request", reply.started, end, rid, "measure")
            tracer.spans += [
                roots[rid],
                Span("client.send", reply.started, reply.sent_at, rid,
                     "measure"),
                Span("client.recv", reply.head_at, end, rid, "measure"),
            ]
            kinds[rid] = op.kind
    tracer.spans += transit_spans(tracer, roots)
    spans = [s for s in tracer.spans
             if s.phase == "measure" and s.name != "request"]
    trees = request_trees(spans, roots)
    reads = [rid for rid in roots if kinds[rid] == "read"]
    writes = [rid for rid in roots if kinds[rid] == "write"]
    read_set, write_set = set(reads), set(writes)

    def per_request(rid_list, name, field="dur"):
        """Per request that reached *name*: its summed duration (or
        self time) there."""
        out = []
        for rid in rid_list:
            total = None
            for span, self_ms in trees[rid]:
                if span.name == name:
                    value = span.ms if field == "dur" else self_ms
                    total = (total or 0.0) + value
            if total is not None:
                out.append(total)
        return out

    def of_reads(name, source=spans, prefix=""):
        return [s for s in source if s.name == name
                and s.rid is not None and s.rid[len(prefix):] in read_set
                and s.rid.startswith(prefix)]

    def attrs(selected, attr):
        return [s.attrs[attr] for s in selected if s.attrs and attr in s.attrs]

    def counted(key, rids):
        return sum(tracer.counts.get((key, rid), 0) for rid in rids)

    shapes = of_reads("dispatcher.shape")
    build_starts = sorted(s.start for s in of_reads("conflicts.build"))
    misses = sum(
        any(shape.start <= b <= shape.end for b in build_starts)
        for shape in shapes
    )
    replay = [s for s in tracer.spans if s.phase == "replay"]
    user_bytes = sum(
        len(json.dumps(tracer.requests[rid][0].payload, sort_keys=True,
                       separators=(",", ":")))
        for rid in writes
    )
    wal_bytes = counted("wal_bytes", writes)
    pulls = [s for s in spans if s.name == "replica.pull"
             and s.attrs and (s.attrs.get("records") or 0) > 0]
    unattributed = [unattributed_share(trees[rid]) for rid in reads]
    spans_per_read = _mean(len(trees[rid]) - 1 for rid in reads)
    replayed = recovery.get("records_replayed") or 0
    recover_ms = recovery.get("elapsed_ms") or 0.0
    # Compactions inside a write request are the primary's; the
    # follower's run on its pull thread, outside any request.
    compactions = [s for s in spans if s.name == "store.compact"
                   and s.rid in write_set]
    pool_calls = of_reads("pool.call")
    metrics = {
        "http.parse_ms": _median(per_request(reads, "http.parse")),
        "http.encode_ms": _median(per_request(reads, "http.encode")),
        "http.response_bytes": _median(attrs(of_reads("http.encode"), "bytes")),
        "net.transit_ms": _median(per_request(reads, "net.transit")),
        "admission.wait_ms": _median(per_request(reads, "admission.admit")),
        "admission.shed": counted("shed", reads),
        "service.mutate_ms": _median(
            per_request(writes, "service.mutate", "self")
        ),
        "dispatcher.shape_ms": _median(per_request(reads, "dispatcher.shape")),
        "dispatcher.shape_cache_hit_ratio": (
            (len(shapes) - misses) / len(shapes) if shapes else 0.0
        ),
        "dispatcher.rungs_per_read": _mean(
            attrs(of_reads("dispatcher.dispatch"), "rungs")
        ),
        "cqa.rewrite_ms": _median(_rewrite_ms(trees, reads, replay)),
        "conflicts.build_ms": _median(per_request(reads, "conflicts.build")),
        "pool.encode_ms": _median(per_request(reads, "pool.encode")),
        "pool.frame_bytes_per_read": _median(
            attrs(of_reads("pool.encode"), "bytes")
        ),
        "pool.queue_ms": _median(per_request(reads, "pool.queue")),
        "pool.recycles": pool_recycles,
        "worker.decode_ms": _median(
            s.ms for s in of_reads("worker.decode", replay, "replay:")
        ),
        "worker.cpu_ms": _median(attrs(pool_calls, "cpu_ms")),
        "worker.runqueue_ms": _median(attrs(pool_calls, "runqueue_ms")),
        "sqlbridge.materialize_ms": _median(
            s.ms for s in of_reads("sqlbridge.materialize", replay, "replay:")
        ),
        "sqlbridge.exec_ms": _median(_self_times(
            replay, of_reads("sqlbridge.run_sql", replay, "replay:")
        )),
        "sqlbridge.facts_per_read": _median(attrs(
            of_reads("sqlbridge.materialize", replay, "replay:"), "facts"
        )),
        "engines.asp_ms": _median(per_request(reads, "engines.asp")),
        "engines.enumerate_ms": _median(
            per_request(reads, "engines.enumerate")
        ),
        "engines.fo_mem_ms": _median(per_request(reads, "engines.fo_mem")),
        "store.append_ms": _median(per_request(writes, "store.append")),
        "store.fsyncs_per_write": (
            counted("fsync", writes) / len(writes) if writes else 0.0
        ),
        "store.bytes_per_user_byte": (
            wal_bytes / user_bytes if user_bytes else 0.0
        ),
        "store.compactions": len(compactions),
        "store.compact_ms": _median(s.ms for s in compactions),
        "snapshot.bytes": _median(attrs(
            [s for s in spans if s.name == "snapshot.write"
             and s.rid in write_set], "bytes"
        )),
        "store.recover_ms": recover_ms,
        "store.records_replayed": replayed,
        "store.replay_ms_per_record": (
            recover_ms / replayed if replayed else 0.0
        ),
        "replica.pull_ms": _median(s.ms for s in pulls),
        "replica.records_per_pull": _mean(
            s.attrs["records"] for s in pulls
        ),
        "replica.apply_ms_per_record": _median(
            s.ms for s in spans if s.name == "replica.apply"
        ),
        "telemetry.calls_per_read": (
            counted("telemetry", reads) / len(reads) if reads else 0.0
        ),
        "trace.overhead_ms": spans_per_read * span_cost_ms(),
        "trace.unattributed_share": _median(unattributed),
    }
    manifest = {
        "reads_traced": len(reads),
        "writes_traced": len(writes),
        "reads_reconciled_within_10pct": sum(
            1 for share in unattributed if share <= RECONCILE_LIMIT
        ),
        "spans_per_read": spans_per_read,
        "frames_replayed": sum(
            1 for rid, _frame in tracer.frames if rid in read_set
        ),
        "layer_self_ms_per_read": _layer_shares(trees, reads),
    }
    return metrics, manifest


def _rewrite_ms(trees, reads, replay: List[Span]) -> List[float]:
    """Per read: rewriting in the server (the ladder's applicability
    check, fo-mem) plus rewriting and SQL generation in its replayed
    worker job."""
    totals: Dict[str, float] = defaultdict(float)
    for rid in reads:
        for span, _self in trees[rid]:
            if span.name == "cqa.rewrite":
                totals[rid] += span.ms
    for span in replay:
        if span.name in ("cqa.rewrite", "cqa.sqlgen"):
            totals[span.rid[len("replay:"):]] += span.ms
    return [totals[rid] for rid in reads if rid in totals]


def _self_times(spans: List[Span], selected: List[Span]) -> List[float]:
    """Self times (ms) of the *selected* spans, their children being the
    spans of the same request id that they contain."""
    by_rid: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_rid[span.rid].append(span)
    out = []
    for span in selected:
        inner = [(c.start, c.end) for c in by_rid[span.rid]
                 if c is not span and span.start <= c.start
                 and c.end <= span.end]
        out.append(self_time(span.start, span.end, inner) * 1000.0)
    return out


def _layer_shares(trees, reads) -> Dict[str, float]:
    """Median self time per layer across reads (ms), for the manifest."""
    per_layer_ms: Dict[str, List[float]] = defaultdict(list)
    for rid in reads:
        totals: Dict[str, float] = defaultdict(float)
        for span, self_ms in trees[rid]:
            totals[span.name] += self_ms
        for name, value in totals.items():
            per_layer_ms[name].append(value)
    return {name: round(_median(v), 4) for name, v in sorted(per_layer_ms.items())}


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def write_spans(tracer: Tracer, path: str) -> str:
    """Write the measured phase's and the replay's spans as JSON lines
    (name, start, end, parent line number, request id, attributes)."""
    spans = [s for s in tracer.spans if s.phase in ("measure", "replay")]
    index = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps({
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": index.get(id(span.parent)),
                "rid": span.rid,
                "phase": span.phase,
                "attrs": span.attrs,
            }) + "\n")
    return path


def replay_frames(tracer: Tracer) -> None:
    """Run the job frames of the measured reads through ``child_main``
    in this process, under the ``replay:<rid>`` request ids."""
    from repro.dispatch.worker import child_main

    reads = {
        rid for rid, (op, _reply, phase) in tracer.requests.items()
        if phase == "measure" and op.kind == "read"
    }
    replayer = Tracer()
    install_engines(replayer)
    try:
        for rid, frame in tracer.frames:
            if rid not in reads:
                continue
            replayer.local.rid = f"replay:{rid}"
            child_main(stdin=io.BytesIO(frame), stdout=io.BytesIO())
    finally:
        replayer.unpatch()
    for span in replayer.spans:
        span.phase = "replay"
    tracer.spans += replayer.spans


def traced(workload, run_dir: str, src_dir: str) -> Dict[str, object]:
    """One set-up, the measured sequence with spans, one restart."""
    from drive import Runner

    tracer = Tracer()
    cluster = Cluster(run_dir, src_dir, traced=True)
    runner = Runner(workload, cluster)
    runner.tracer = tracer
    try:
        runner.setup()
        recycles_before = cluster.health()["pool"]["recycles"]
        tracer.phase = "measure"
        window_start = time.perf_counter()
        runner.measure()
        window = (window_start, time.perf_counter())
        tracer.phase = "after"
        recycles = cluster.health()["pool"]["recycles"] - recycles_before
        cluster.stop_follower()
        cluster.restart_primary()
        recovery = cluster.health()["store"]["recovery"]
        runner.verify_durable()
    finally:
        cluster.teardown()
    span_files = sorted(glob.glob(os.path.join(run_dir, "*", "spans-*.pickle")))
    if not span_files:
        raise BenchError(f"no traced server wrote spans under {run_dir}")
    for path in span_files:
        tracer.absorb(path)
    assign_phases(tracer, window)
    replay_frames(tracer)
    metrics, manifest = per_layer(tracer, recovery, recycles)
    manifest["spans_file"] = write_spans(
        tracer, os.path.join(os.path.dirname(run_dir),
                             os.path.basename(run_dir) + ".spans.jsonl")
    )
    share = metrics["trace.unattributed_share"]
    if share > RECONCILE_LIMIT:
        raise BenchError(
            f"the trace does not reconcile: the median read leaves "
            f"{share:.3f} of its latency unattributed "
            f"(limit {RECONCILE_LIMIT}); see {manifest['spans_file']}"
        )
    tallies = runner.tallies
    return {
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()
        },
        "attempted": sum(t.attempted for t in tallies.values()),
        "failed": sum(t.failed for t in tallies.values()),
        "manifest": dict(
            manifest,
            operations={kind: t.to_dict() for kind, t in tallies.items()},
        ),
    }
