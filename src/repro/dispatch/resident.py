"""Resident tenant versions: ship a tenant to a worker once, then deltas.

A registered tenant is one chain of immutable :class:`TenantVersion`
objects.  Each version holds its ``Database`` and constraints and a
version key; all versions of one registration share a bounded log of
the deltas between them and a lazily maintained conflict index.  The
service moves a tenant forward with :meth:`TenantVersion.advance`,
which derives the next ``Database`` in O(delta) and logs the delta.

The version key is ``(epoch, lsn)`` of the tenant's last change when
the service has a durable store, else ``(0, n)`` from a service
counter.  Within one epoch there is exactly one writer (promotion is
epoch-fenced), so equal keys mean equal contents on every node, while
a diverged ex-primary's unreplicated ``lsn`` can never pass for the
new lineage's record at the same ``lsn``.

Pool workers keep versions resident (:class:`ResidentSet`): the
``Database`` plus a rowid-keyed SQLite copy.  A job for a registered
tenant carries the version key and the wire form of the deltas since
the version the worker holds; the worker patches both copies in one
transaction and answers on the warm connection.  A worker that holds
another version (new worker, trimmed log, eviction, failed apply)
answers a structured ``resident-miss``; the pool then resends the full
instance, which is the cold path every request used to take.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..constraints.base import denial_class_only
from ..constraints.conflicts import ConflictHypergraph
from ..errors import RepairError, ReproError
from ..relational import sqlbridge
from ..relational.database import Database, Fact
from ..repairs.incremental import ConflictIndex

__all__ = [
    "DELTA_LOG_RECORDS",
    "RESIDENT_FACTS_LIMIT",
    "Delta",
    "ResidentMiss",
    "ResidentSet",
    "TenantVersion",
    "derive",
]

#: Delta records a tenant keeps for shipping to workers.  A worker
#: further behind than this gets the full instance again, and so does
#: one whose deltas would carry more facts than the instance itself.
DELTA_LOG_RECORDS = 256

#: Facts one worker keeps resident over all its tenants; past it the
#: least recently used tenants are dropped.  Each tenant is charged at
#: least :data:`RESIDENT_TENANT_FLOOR` facts for its SQLite connection
#: (about 35 KB even when empty).
RESIDENT_FACTS_LIMIT = 500_000
RESIDENT_TENANT_FLOOR = 100

Key = Tuple[int, int]


@dataclass(frozen=True)
class Delta:
    """One change of a tenant as ``(tid, fact)`` pairs out, then in."""

    deleted: Tuple[Tuple[str, Fact], ...]
    inserted: Tuple[Tuple[str, Fact], ...]

    def __len__(self) -> int:
        return len(self.deleted) + len(self.inserted)

    def wire(self) -> Tuple[Tuple[Fact, ...], Tuple[Fact, ...]]:
        """The facts only: a worker derives its own tids."""
        return (
            tuple(f for _, f in self.deleted),
            tuple(f for _, f in self.inserted),
        )


def derive(
    db: Database, delete: Iterable[Fact], insert: Iterable[Fact]
) -> Tuple[Database, Delta]:
    """``db.apply_delta(delete, insert)`` and the delta it made."""
    deleted = tuple(
        (db.tid_of(f), f) for f in dict.fromkeys(delete) if f in db
    )
    new = db.apply_delta((f for _, f in deleted), insert)
    return new, Delta(deleted, tuple(new.facts_since(db.next_tid)))


class _Lineage:
    """What all versions of one registration share."""

    __slots__ = (
        "log_lock", "log", "shape_lock", "index", "index_key", "stats",
        "stats_key",
    )

    def __init__(self) -> None:
        # Two locks, so that a read building the conflict index never
        # holds up a write appending to the log.
        self.log_lock = threading.Lock()
        self.shape_lock = threading.Lock()
        #: ``(base key, key, delta)`` per change, oldest first.
        self.log: Deque[Tuple[Key, Key, Delta]] = deque(
            maxlen=DELTA_LOG_RECORDS
        )
        self.index: Optional[ConflictIndex] = None
        self.index_key: Optional[Key] = None
        self.stats: Optional[dict] = None
        self.stats_key: Optional[Key] = None


class TenantVersion:
    """One immutable version of a registered tenant."""

    __slots__ = ("name", "db", "constraints", "key", "_lineage")

    def __init__(
        self,
        name: str,
        db: Database,
        constraints: Sequence,
        key: Key,
        _lineage: Optional[_Lineage] = None,
    ) -> None:
        self.name = name
        self.db = db
        self.constraints = tuple(constraints)
        self.key = key
        self._lineage = _lineage or _Lineage()

    def advance(self, db: Database, delta: Delta, key: Key) -> "TenantVersion":
        """The next version: *db*, which :func:`derive` made from this
        version's instance with *delta*, logged under *key*."""
        lineage = self._lineage
        with lineage.log_lock:
            lineage.log.append((self.key, key, delta))
        return TenantVersion(self.name, db, self.constraints, key, lineage)

    def deltas_since(self, base: Optional[Key]) -> Optional[List[Delta]]:
        """The logged deltas taking version *base* to this one, or None
        when the log cannot (trimmed past *base*, or *base* is not a
        version of this registration)."""
        with self._lineage.log_lock:
            return _chain(self._lineage.log, base, self.key)

    def shape_stats(self) -> Optional[dict]:
        """``ConflictHypergraph.build(db, constraints).shape_stats()``,
        folded forward from the last version asked, or None when the
        constraints are not denial-class."""
        if not denial_class_only(self.constraints):
            return None
        lineage = self._lineage
        with lineage.shape_lock:
            if lineage.stats_key != self.key:
                lineage.stats = self._fold(lineage)
                lineage.stats_key = self.key
            return dict(lineage.stats)

    def _fold(self, lineage: _Lineage) -> dict:
        pending = None
        if lineage.index is not None:
            pending = self.deltas_since(lineage.index_key)
        if pending is None:
            try:
                lineage.index = ConflictIndex(self.db, self.constraints)
            except RepairError:  # a constraint class it cannot maintain
                lineage.index = None
                graph = ConflictHypergraph.build(self.db, self.constraints)
                return graph.shape_stats()
            lineage.index_key = self.key
            return lineage.index.shape_stats(self.db)
        gone = {tid for delta in pending for tid, _ in delta.deleted}
        try:
            lineage.index.fold(
                self.db,
                [pair for delta in pending for pair in delta.deleted],
                [
                    (tid, f)
                    for delta in pending
                    for tid, f in delta.inserted
                    if tid not in gone
                ],
            )
        except BaseException:
            lineage.index = None  # half folded: rebuild next time
            raise
        lineage.index_key = self.key
        return lineage.index.shape_stats(self.db)


def _chain(log, base: Optional[Key], key: Key) -> Optional[List[Delta]]:
    """The deltas of *log* from version *base* to version *key*."""
    if base == key:
        return []
    out: List[Delta] = []
    for prev, entry_key, delta in log:
        if not out and prev != base:
            continue
        out.append(delta)
        if entry_key == key:
            return out
    return None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class ResidentMiss(ReproError):
    """The worker does not hold the version a delta job builds on."""


class _Resident:
    """One tenant held by a worker: version key, instance, and a
    rowid-keyed SQLite copy made on first use."""

    __slots__ = ("key", "db", "conn", "rowids")

    def __init__(self, key: Key, db: Database) -> None:
        self.key = key
        self.db = db
        self.conn = None
        self.rowids: Dict[str, int] = {}

    def connection(self):
        if self.conn is None:
            self.rowids = {}
            self.conn = sqlbridge.to_sqlite(self.db, self.rowids)
        return self.conn

    def apply(self, deltas, key: Key) -> None:
        db = self.db
        changes = []
        for delete, insert in deltas:
            db, delta = derive(db, delete, insert)
            changes.append((delta.deleted, delta.inserted))
        if self.conn is not None:
            sqlbridge.apply_sqlite_delta(self.conn, self.rowids, changes)
        self.db = db
        self.key = key

    def charge(self) -> int:
        return max(len(self.db), RESIDENT_TENANT_FLOOR)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class ResidentSet:
    """A worker's resident tenants, least recently used first."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, _Resident]" = OrderedDict()

    def install(self, spec: Dict[str, object], request):
        """Bring the tenant of *spec* to its version; return the request
        bound to the resident instance, the entry, and the names of
        tenants evicted to make room.

        *spec* is ``{"tenant", "key", "base"}`` plus ``"deltas"`` (wire
        form) when ``base`` is set; without a base the request carries
        the full instance, which replaces whatever was held.  Raises
        :class:`ResidentMiss` (after dropping the tenant) when the held
        version is not ``base`` or the deltas do not apply.
        """
        name = spec["tenant"]
        key = tuple(spec["key"])
        base = spec.get("base")
        if base is None:
            self.drop(name)
            entry = self._entries[name] = _Resident(key, request.db)
        else:
            entry = self._entries.get(name)
            if entry is None or entry.key != tuple(base):
                self.drop(name)
                raise ResidentMiss(
                    f"worker holds {entry.key if entry else None} of "
                    f"{name!r}, the job builds on {tuple(base)}"
                )
            try:
                entry.apply(spec.get("deltas") or (), key)
            except Exception as exc:  # noqa: BLE001 — drop, resend full
                self.drop(name)
                raise ResidentMiss(
                    f"deltas for {name!r} did not apply: "
                    f"{type(exc).__name__}: {exc}"
                )
            self._entries.move_to_end(name)
            request = replace(request, db=entry.db)
        return request, entry, self._evict(keep=name)

    def _evict(self, keep: str) -> List[str]:
        evicted = []
        total = sum(entry.charge() for entry in self._entries.values())
        for name in list(self._entries):
            if total <= RESIDENT_FACTS_LIMIT:
                break
            if name != keep:
                total -= self._entries[name].charge()
                self.drop(name)
                evicted.append(name)
        return evicted

    def drop(self, name: str) -> None:
        entry = self._entries.pop(name, None)
        if entry is not None:
            entry.close()
