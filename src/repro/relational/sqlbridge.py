"""Bridge between :class:`~repro.relational.database.Database` and SQLite.

Used by the ConQuer-style rewriting path (our substitute for running
consistent-query rewritings on a commercial SQL engine, Section 3.1 of the
paper): a database instance is materialized into an in-memory SQLite
database, generated SQL is executed there, and results are read back as
Python tuples.  NULL markers map to SQL NULL, so SQLite enforces the same
"null never joins" semantics the library uses internally.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..observability import add, span
from ..runtime.faults import sqlite_attempt
from ..runtime.retry import retry_transient
from .database import Database, Fact, Row
from .nulls import NULL, is_labeled_null, is_null


def _quote_identifier(name: str) -> str:
    """Quote an SQL identifier (relation or attribute name)."""
    return '"' + name.replace('"', '""') + '"'


def to_sqlite(
    db: Database, rowids: Optional[Dict[str, int]] = None
) -> sqlite3.Connection:
    """Materialize *db* into a fresh in-memory SQLite connection.

    Every relation becomes a table with the schema's attribute names.
    NULL markers become SQL NULLs; labeled nulls are rejected because
    SQLite cannot reproduce their naive-table join semantics.  Rows go
    in in index order, unsorted: :func:`run_sql` sorts what it reads
    back, so table order cannot show in any answer.

    When *rowids* is given, each fact's row gets an explicit rowid and
    the dict is filled with ``tid -> rowid``, so a resident copy can
    later delete single facts by rowid instead of scanning the table
    (:func:`apply_sqlite_delta`).
    """
    conn = sqlite3.connect(":memory:")
    cursor = conn.cursor()
    materialized = 0
    for name in db.schema.names():
        rel = db.schema.relation(name)
        columns = ", ".join(_quote_identifier(a) for a in rel.attributes)
        cursor.execute(f"CREATE TABLE {_quote_identifier(name)} ({columns})")
        index = db.relation_index(name)
        if not index:
            continue
        if rowids is None:
            prepared = [_sql_values(row) for row in index]
            placeholders = ", ".join("?" * rel.arity)
        else:
            prepared = []
            for row, tid in index.items():
                rowid = rowids[tid] = len(rowids) + 1
                prepared.append((rowid,) + _sql_values(row))
            placeholders = ", ".join("?" * (rel.arity + 1))
            columns = "rowid, " + columns
        cursor.executemany(
            f"INSERT INTO {_quote_identifier(name)} ({columns}) "
            f"VALUES ({placeholders})",
            prepared,
        )
        materialized += len(prepared)
    conn.commit()
    add("sql.rows_materialized", materialized)
    return conn


def _sql_values(row: Row) -> Tuple:
    for value in row:
        if is_labeled_null(value):
            raise ValueError(
                "labeled nulls cannot be materialized into SQLite"
            )
    return tuple(None if is_null(value) else value for value in row)


def apply_sqlite_delta(
    conn: sqlite3.Connection,
    rowids: Dict[str, int],
    changes: Iterable[
        Tuple[Iterable[Tuple[str, Fact]], Iterable[Tuple[str, Fact]]]
    ],
) -> None:
    """Patch a :func:`to_sqlite` copy made with *rowids*, in one
    transaction, by *changes*: per delta, ``(tid, fact)`` pairs out,
    then in.  Each change is one rowid-keyed statement, never a table
    scan; a new row takes SQLite's next rowid.  On any error the
    transaction rolls back and the error propagates (*rowids* may then
    be stale: the caller drops the copy)."""
    with conn:
        for deleted, inserted in changes:
            for tid, f in deleted:
                conn.execute(
                    f"DELETE FROM {_quote_identifier(f.relation)} "
                    "WHERE rowid = ?",
                    (rowids.pop(tid),),
                )
            for tid, f in inserted:
                placeholders = ", ".join("?" * len(f.values))
                cursor = conn.execute(
                    f"INSERT INTO {_quote_identifier(f.relation)} "
                    f"VALUES ({placeholders})",
                    _sql_values(f.values),
                )
                rowids[tid] = cursor.lastrowid


@contextmanager
def bound_connection(
    db: Database, connect: Callable[[], sqlite3.Connection]
):
    """Within the block, :func:`run_sql` on *db* (that very object)
    runs on the connection ``connect()`` returns instead of
    materializing a fresh copy; *connect* is called on first use."""
    token = _BOUND.set((db, connect))
    try:
        yield
    finally:
        _BOUND.reset(token)


_BOUND: ContextVar[
    Optional[Tuple[Database, Callable[[], sqlite3.Connection]]]
] = ContextVar("repro_bound_sqlite", default=None)


def run_sql(db: Database, sql: str) -> List[Row]:
    """Run *sql* against a materialization of *db*; return rows.

    SQL NULLs in the result are mapped back to the NULL marker.  Rows are
    returned in sorted order for deterministic comparison with the
    in-memory evaluator.

    Transient backend failures (``sqlite3.OperationalError`` and the
    fault harness's injected :class:`~repro.errors.TransientBackendError`)
    are retried with exponential backoff; each attempt rebuilds the
    in-memory materialization from scratch, so a retried statement never
    observes half-written state.  Inside :func:`bound_connection` for
    *db* the statement runs on the bound, already materialized copy
    (read-only, so retrying on it is safe too).
    """
    bound = _BOUND.get()
    with span("sql.run"):
        def attempt() -> List[Tuple]:
            sqlite_attempt()
            if bound is not None and bound[0] is db:
                return bound[1]().execute(sql).fetchall()
            conn = to_sqlite(db)
            try:
                return conn.execute(sql).fetchall()
            finally:
                conn.close()

        raw = retry_transient(attempt)
        add("sql.statements", 1)
        add("sql.rows_fetched", len(raw))
        rows = [
            tuple(NULL if v is None else v for v in row)
            for row in raw
        ]
        return sorted(set(rows), key=repr)


def run_sql_on_connection(
    conn: sqlite3.Connection, sql: str
) -> List[Row]:
    """Run *sql* on an existing connection (for benchmark reuse).

    Read-only statements are safe to retry on the live connection, so
    transient failures get the same backoff treatment as :func:`run_sql`.
    """
    def attempt() -> List[Tuple]:
        sqlite_attempt()
        return conn.execute(sql).fetchall()

    rows = [
        tuple(NULL if v is None else v for v in row)
        for row in retry_transient(attempt)
    ]
    return sorted(set(rows), key=repr)


def table_counts(conn: sqlite3.Connection, names: Iterable[str]) -> Tuple[int, ...]:
    """Row counts for the given tables (sanity checks in tests)."""
    counts = []
    for name in names:
        cursor = conn.execute(
            f"SELECT COUNT(*) FROM {_quote_identifier(name)}"
        )
        counts.append(cursor.fetchone()[0])
    return tuple(counts)
